"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for validation and precondition failures."""


class NotHermitian(ToolkitError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NonFiniteEntry(ToolkitError):
    """Matrix holds a NaN or infinite entry."""


class NotPsd(ToolkitError):
    """Operator has an eigenvalue below the positivity tolerance."""


class DimensionMismatch(ToolkitError):
    """Operand dimensions are inconsistent."""


class NotTracePreserving(ToolkitError):
    """Kraus operators do not sum to the identity in the adjoint sense."""


class InvalidPovm(ToolkitError):
    """POVM elements are not PSD or do not sum to the identity."""


class InvalidStochasticMatrix(ToolkitError):
    """Conditional distribution has negative entries or non-unit columns."""


class NotDensity(ToolkitError):
    """Operator is not a unit-trace PSD matrix."""


class NotIncoherent(ToolkitError):
    """Measurement has off-diagonal structure in the incoherent basis."""


class NotUnital(ToolkitError):
    """Channel does not fix the identity operator."""


class InvalidRank(ToolkitError):
    """Requested Kraus rank is outside 1..d^2."""


class SingularTotal(ToolkitError):
    """Random POVM normalization repeatedly produced a singular total."""


class UnsupportedScale(ToolkitError):
    """Operation invoked outside its supported dimension or outcome range."""


class PreconditionViolation(ToolkitError):
    """Caller-supplied operands violate a documented precondition."""
