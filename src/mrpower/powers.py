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
    is_dio,
    is_unital,
    kron_stacks,
    measurement_as_channel,
    pad_povm,
    pullback_povm,
    pulled_back_basis,
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

# Input-dimension cap of the conversion certificate, and so of `convert` and
# the conversion suites. Measured for `convert` on a full-Kraus-rank channel
# (Python 3.11, numpy 2.4, one BLAS thread, 2-vCPU VM whose speed varies
# about 2x between phases): d = 6 takes 0.27-0.34 s with the file read and
# written, writes 3,448,522 B and peaks at 74 MiB RSS, which building the
# dense d^4 x d^4 Choi matrix of the converted channel (26 MiB) sets; with
# the cap raised, d = 7 takes 0.91-0.96 s, writes 10,054,218 B and peaks at
# 166 MiB. The certificate alone takes 5 ms at d = 6.
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
    _require_square(channel)
    return measurement_coherence(pulled_back_basis(channel))


def state_cohering_power(channel: QuantumChannel) -> float:
    """Maximum relative entropy of coherence over incoherent inputs.

    Reduces to maximizing over the d basis states; ancillas and mixtures
    cannot do better.
    """
    d = _require_square(channel)
    # E(|i><i|)[a, b] = J[(a, i), (b, i)]: the d images are one slice of the Choi matrix
    images = np.einsum("aibi->iab", channel.choi.reshape(d, d, d, d))
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


def _embedded_elements(pulled: Povm) -> np.ndarray:
    """U (E^dag(|i><i|) (x) |j><j|) U^dag for U = CNOT, as one
    (d^2, d^2, d^2) stack, i-major, from the pulled-back basis measurement
    {E^dag(|i><i|)}."""
    d = pulled.dim
    products = kron_stacks(pulled.stack, basis_measurement(d).stack)
    u = cnot_matrix(d)
    return u @ products.reshape(d * d, d * d, d * d) @ u.conj().T


def conversion_channel(channel: QuantumChannel) -> QuantumChannel:
    """dephase . (E (x) id) . CNOT^dag: turns cohering power into entangling
    power without any additional coherence source.

    Its output is diagonal, with <a| Phi(rho) |a> = tr[rho U (E^dag (x) id)(|a><a|) U^dag],
    so Phi is the measurement channel of the embedded elements
    U (E^dag(|i><i|) (x) |j><j|) U^dag, a = (i, j).
    """
    _require_square(channel)
    return measurement_as_channel(Povm(_embedded_elements(pulled_back_basis(channel))))


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


def conversion_ent_lower_bound(channel: QuantumChannel) -> ConversionCertificate:
    """Certificate that the conversion channel entangles exactly as much as
    the input channel coheres.

    Each pulled-back element U (E^dag(|i><i|) (x) |j><j|) U^dag is an
    isometric embedding whose two marginals both equal the dephasing of
    E^dag(|i><i|), so its entanglement lower bound reproduces the per-state
    coherence term exactly.
    """
    d = _require_square(channel)
    if d > DEFAULT_CONVERSION_DIM_CAP:
        raise UnsupportedScale(
            f"conversion certificate capped at dim {DEFAULT_CONVERSION_DIM_CAP}, got {d}"
        )
    pulled = pulled_back_basis(channel)
    power = measurement_coherence(pulled)
    bounds = ere_lower_bounds(_embedded_elements(pulled), (d, d))
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
    if not is_dio(k):
        raise PreconditionViolation("K is not detection incoherent")
    if not (is_dio(l) and is_unital(l)):
        raise PreconditionViolation("L is not unital detection incoherent")
    # the basis measurement reads only the diagonal, so the final dephasing
    # leaves the pulled-back elements unchanged and is not applied; E^dag
    # acts on the first factor of each Y_n = K^dag(|n><n|):
    # X[n, i, x, j, y] = sum_ab conj(J[a, i, b, j]) Y[n, a, x, b, y]
    y = pulled_back_basis(k).stack.reshape(dd, d, d, d, d)
    x = np.einsum("aibj,naxby->nixjy", channel.choi.reshape(d, d, d, d).conj(), y)
    pulled = pullback_povm(l, Povm(x.reshape(dd, dd, dd)))
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
    if not is_unital(channel):
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
