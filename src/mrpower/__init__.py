"""Measurement-resource powers of quantum channels.

Closed-form cohering-power quantifiers, the coherence-to-entanglement
conversion construction with its equality certificate, and randomized
verification suites, all in base-2 entropy units over a fixed incoherent
(computational) basis.
"""

from .channels import (
    ChannelClass,
    Povm,
    QuantumChannel,
    StochasticMatrix,
    adjoint_channel,
    basis_measurement,
    classical_postprocess,
    classify_channel,
    compose,
    dephasing_channel,
    images,
    is_dio,
    is_unital,
    measurement_as_channel,
    mix_povm,
    pad_povm,
    pullback_povm,
    pulled_back_basis,
    tensor_povm,
    unitary_channel,
)
from .measures import (
    IncoherentDecomposition,
    decompose_incoherent,
    ere_lower_bound,
    is_incoherent_measurement,
    measurement_coherence,
    measurement_relative_entropy,
    relative_entropy_of_coherence,
)
from .operators import (
    HermitianOperator,
    relative_entropy,
    von_neumann_entropy,
)
from .powers import (
    ConversionCertificate,
    cnot_matrix,
    cnot_unitary,
    composite_ent_lower_bound,
    conversion_channel,
    conversion_ent_lower_bound,
    measurement_as_square_channel,
    measurement_cohering_power,
    state_cohering_power,
)
from .sampling import (
    SeededRng,
    example_channels,
    haar_isometry,
    haar_unitary,
    random_channel,
    random_dio,
    random_povm,
    random_stochastic_matrix,
    splitmix64,
)
from .suites import SUITE_NAMES, VerificationReport, run_suite

__version__ = "0.1.0"
