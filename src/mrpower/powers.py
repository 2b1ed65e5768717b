"""Dynamical resource powers of quantum channels.

Implements the measurement-cohering power (closed form via the pulled-back
basis measurement), the state-cohering power (ancilla-free reduction over
basis states), the generalized-CNOT conversion channel together with its
equality certificate, the averaged entanglement lower bound for sandwiched
composites, and the adjoint-duality check for unital channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Povm,
    QuantumChannel,
    adjoint_channel,
    basis_measurement,
    classify_channel,
    compose,
    dephasing_channel,
    extend_with_identity,
    kron_stacks,
    measurement_as_channel,
    pad_povm,
    pullback_povm,
    unitary_channel,
)
from .errors import (
    DimensionMismatch,
    NotUnital,
    PreconditionViolation,
    UnsupportedScale,
)
from .measures import (
    coherences_of_states,
    ere_lower_bounds,
    measurement_coherence,
)

# Conversion certificates need d^2-dimensional eigendecompositions; the cap
# keeps them sub-millisecond and is configurable upward per call.
DEFAULT_CONVERSION_DIM_CAP = 6


def _require_square(channel: QuantumChannel) -> int:
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch(
            f"square channel required (dim_in {channel.dim_in} != dim_out {channel.dim_out})"
        )
    return channel.dim_in


def measurement_cohering_power(channel: QuantumChannel) -> float:
    """Maximum measurement-coherence the channel creates as a pre-processor.

    Equals the measurement-coherence of the incoherent basis measurement
    pulled back through the channel:
    (1/d) sum_i [S(dephase(E^dag(|i><i|))) - S(E^dag(|i><i|))].
    """
    d = _require_square(channel)
    return measurement_coherence(pullback_povm(channel, basis_measurement(d)))


def state_cohering_power(channel: QuantumChannel) -> float:
    """Maximum relative entropy of coherence over incoherent inputs.

    Reduces to maximizing over the d basis states; ancillas and mixtures
    cannot do better.
    """
    d = _require_square(channel)
    # E(|i><i|)[a, b] = J[(a, i), (b, i)]: the d images are one slice of the Choi matrix
    images = np.einsum("aibi->iab", channel.choi.matrix.reshape(d, d, d, d))
    return float(np.max(coherences_of_states(images)))


def cnot_matrix(d: int) -> np.ndarray:
    """Unitary sum_ij |i, i+j mod d><i, j| on the d^2-dimensional space."""
    if d < 2:
        raise DimensionMismatch(f"control dimension must be at least 2, got {d}")
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[i * d + (i + j) % d, i * d + j] = 1.0
    return u


def cnot_unitary(d: int) -> QuantumChannel:
    """The generalized-CNOT unitary channel on dimension d^2."""
    return unitary_channel(cnot_matrix(d))


def conversion_channel(channel: QuantumChannel) -> QuantumChannel:
    """dephase . (E (x) id) . CNOT^dag: turns cohering power into entangling
    power without any additional coherence source."""
    d = _require_square(channel)
    pre = unitary_channel(cnot_matrix(d).conj().T)
    return compose(
        dephasing_channel(d * d),
        compose(extend_with_identity(channel, d, "right"), pre),
    )


@dataclass(frozen=True)
class ConversionCertificate:
    """Two independently computed sides of the conversion equality.

    cohering_power comes from the closed form; avg_ere_lower_bound averages
    the entanglement lower bound over the d^2 pulled-back measurement
    elements of the conversion channel. For this construction the two agree,
    so a non-vanishing gap signals an internal inconsistency.
    """

    cohering_power: float
    avg_ere_lower_bound: float
    per_element_bounds: tuple[float, ...]
    gap: float


def conversion_ent_lower_bound(
    channel: QuantumChannel, max_dim: int = DEFAULT_CONVERSION_DIM_CAP
) -> ConversionCertificate:
    """Certificate that the conversion channel entangles exactly as much as
    the input channel coheres.

    Each pulled-back element U (E^dag(|i><i|) (x) |j><j|) U^dag is an
    isometric embedding whose two marginals both equal the dephasing of
    E^dag(|i><i|), so its entanglement lower bound reproduces the per-state
    coherence term exactly.
    """
    d = _require_square(channel)
    if d > max_dim:
        raise UnsupportedScale(f"conversion certificate capped at dim {max_dim}, got {d}")
    basis = basis_measurement(d)
    pulled = pullback_povm(channel, basis)
    power = measurement_coherence(pulled)
    # element (i, j) is U (E^dag(|i><i|) (x) |j><j|) U^dag, i-major
    products = kron_stacks(pulled.stack, basis.stack)
    u = cnot_matrix(d)
    embedded = u @ products.reshape(d * d, d * d, d * d) @ u.conj().T
    bounds = ere_lower_bounds(embedded, (d, d))
    avg = float(np.mean(bounds))
    return ConversionCertificate(
        cohering_power=power,
        avg_ere_lower_bound=avg,
        per_element_bounds=tuple(bounds.tolist()),
        gap=abs(power - avg),
    )


def composite_ent_lower_bound(
    channel: QuantumChannel, k: QuantumChannel, l: QuantumChannel
) -> float:
    """Averaged entanglement lower bound of the sandwiched composite
    dephase . K . (E (x) id) . L on dimension d^2.

    K must be detection incoherent and L unital detection incoherent; the
    result then never exceeds the cohering power of E. This is a one-sided
    proxy: it bounds the composite's true entangling power from below.
    """
    d = _require_square(channel)
    dd = d * d
    if k.dim_in != dd or k.dim_out != dd:
        raise PreconditionViolation(f"K must act on dimension {dd}")
    if l.dim_in != dd or l.dim_out != dd:
        raise PreconditionViolation(f"L must act on dimension {dd}")
    if not classify_channel(k).dio:
        raise PreconditionViolation("K is not detection incoherent")
    l_class = classify_channel(l)
    if not (l_class.dio and l_class.unital):
        raise PreconditionViolation("L is not unital detection incoherent")
    composite = compose(
        dephasing_channel(dd),
        compose(k, compose(extend_with_identity(channel, d, "right"), l)),
    )
    pulled = pullback_povm(composite, basis_measurement(dd))
    return float(np.mean(ere_lower_bounds(pulled.stack, (d, d))))


@dataclass(frozen=True)
class DualityCheck:
    """State-cohering power of a unital channel against the
    measurement-cohering power of its adjoint."""

    c_g: float
    c_adj: float
    sandwich_ok: bool


def duality_check(channel: QuantumChannel, tol: float = 1e-8) -> DualityCheck:
    """Verify c_g / d - tol <= C(adjoint) <= c_g + tol for a unital channel."""
    d = _require_square(channel)
    if not classify_channel(channel).unital:
        raise NotUnital("duality check requires a unital channel")
    c_g = state_cohering_power(channel)
    c_adj = measurement_cohering_power(adjoint_channel(channel))
    ok = (c_g / d - tol) <= c_adj <= (c_g + tol)
    return DualityCheck(c_g=c_g, c_adj=c_adj, sandwich_ok=ok)


def measurement_as_square_channel(povm: Povm) -> QuantumChannel:
    """Embed a measurement as a square channel by appending zero-probability
    outcomes until the output dimension matches the input dimension.

    Requires n <= d: a measurement with more outcomes than input dimensions
    has no square embedding that preserves the power/coherence equality.
    """
    if povm.n > povm.dim:
        raise UnsupportedScale(
            f"square embedding needs n <= d (got n = {povm.n}, d = {povm.dim})"
        )
    if povm.n == povm.dim:
        return measurement_as_channel(povm)
    return measurement_as_channel(pad_povm(povm, povm.dim))
