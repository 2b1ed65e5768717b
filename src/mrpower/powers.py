"""Dynamical resource powers of quantum channels.

Implements the measurement-cohering power (closed form via the pulled-back
basis measurement), the state-cohering power (ancilla-free reduction over
basis states), the generalized-CNOT conversion channel together with its
equality certificate, and the averaged entanglement lower bound for
sandwiched composites.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import (
    Povm,
    QuantumChannel,
    basis_images,
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
from .errors import DimensionMismatch, PreconditionViolation, UnsupportedScale
from .measures import (
    _batch_value,
    coherences_of_states,
    ere_lower_bounds,
    measurement_coherences,
)

CONVERSION_GAP_TOL = 1e-9  # largest conversion-certificate gap accepted


def _require_square(channel: QuantumChannel) -> int:
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch(
            f"square channel required (dim_in {channel.dim_in} != dim_out {channel.dim_out})"
        )
    return channel.dim_in


def measurement_cohering_power(channel: QuantumChannel) -> float:
    """Maximum measurement-coherence the channel creates as a pre-processor,
    the batch of one of `measurement_cohering_powers`.

    Equals the measurement-coherence of the incoherent basis measurement
    pulled back through the channel:
    (1/d) sum_i [S(dephase(E^dag(|i><i|))) - S(E^dag(|i><i|))].
    """
    [value] = measurement_cohering_powers([channel])
    return value


def measurement_cohering_powers(channels: Sequence[QuantumChannel]) -> list[float]:
    """`measurement_cohering_power` of each square channel of a sequence of
    channels of one dimension, from one `measurement_coherences` call."""
    for channel in channels:
        _require_square(channel)
    return measurement_coherences([pulled_back_basis(channel) for channel in channels])


def state_cohering_power(channel: QuantumChannel) -> float:
    """Maximum relative entropy of coherence over incoherent inputs, the
    batch of one of `state_cohering_powers`.

    Reduces to maximizing over the d basis states; ancillas and mixtures
    cannot do better.
    """
    [value] = state_cohering_powers([channel])
    return value


def state_cohering_powers(channels: Sequence[QuantumChannel]) -> list[float]:
    """`state_cohering_power` of each square channel of a sequence of
    channels of one dimension, from one `coherences_of_states` call."""
    if not channels:
        return []
    d = _batch_value([_require_square(channel) for channel in channels], "channels differ in dim")
    images = np.concatenate([basis_images(channel) for channel in channels])
    return coherences_of_states(images).reshape(len(channels), d).max(axis=1).tolist()


@functools.cache
def cnot_matrix(d: int) -> np.ndarray:
    """Unitary sum_ij |i, i+j mod d><i, j| on the d^2-dimensional space, as
    one read-only array per d shared by every caller."""
    if d < 2:
        raise DimensionMismatch(f"control dimension must be at least 2, got {d}")
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[i * d + (i + j) % d, i * d + j] = 1.0
    u.setflags(write=False)
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
    return measurement_as_channel(Povm._from_valid(conversion_operands(channel)[1]))


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


def conversion_operands(channel: QuantumChannel) -> tuple[Povm, np.ndarray]:
    """The two operands of the square channel's conversion certificate: its
    pulled-back basis measurement {E^dag(|i><i|)} and the (d^2, d^2, d^2)
    stack of the embedded elements U (E^dag(|i><i|) (x) |j><j|) U^dag."""
    _require_square(channel)
    pulled = pulled_back_basis(channel)
    return pulled, _embedded_elements(pulled)


def conversion_ent_lower_bound(channel: QuantumChannel) -> ConversionCertificate:
    """Certificate that the conversion channel entangles exactly as much as
    the input channel coheres, the batch of one of
    `conversion_ent_lower_bounds`.

    Each pulled-back element U (E^dag(|i><i|) (x) |j><j|) U^dag is an
    isometric embedding whose two marginals both equal the dephasing of
    E^dag(|i><i|), so its entanglement lower bound reproduces the per-state
    coherence term exactly.
    """
    [certificate] = conversion_ent_lower_bounds([conversion_operands(channel)])
    return certificate


def conversion_ent_lower_bounds(
    operands: Sequence[tuple[Povm, np.ndarray]],
) -> list[ConversionCertificate]:
    """The certificate of each channel of one dimension, given by its
    `conversion_operands`, from one `measurement_coherences` call over the
    pulled-back bases and one `ere_lower_bounds` call over the embedded
    elements."""
    if not operands:
        return []
    powers = measurement_coherences([pulled for pulled, _ in operands])
    certificates = []
    for power, bounds in zip(powers, _ere_lower_bounds_each([e for _, e in operands])):
        avg = float(bounds.mean())
        certificates.append(ConversionCertificate(
            cohering_power=power,
            avg_ere_lower_bound=avg,
            per_element_bounds=tuple(bounds.tolist()),
            gap=abs(power - avg),
        ))
    return certificates


def _ere_lower_bounds_each(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """`ere_lower_bounds` over the (d, d) split of each (d^2, d^2, d^2) stack
    of a sequence of them, one row per stack, from one call over their
    concatenation."""
    shape = _batch_value([stack.shape for stack in stacks], "element stacks differ in shape")
    d = math.isqrt(shape[-1])
    return ere_lower_bounds(np.concatenate(stacks), (d, d)).reshape(len(stacks), -1)


def composite_elements(
    channel: QuantumChannel, k: QuantumChannel, l: QuantumChannel
) -> np.ndarray:
    """The (d^2, d^2, d^2) stack of the basis measurement pulled back through
    the sandwiched composite dephase . K . (E (x) id) . L on dimension d^2,
    the operand of `composite_ent_lower_bounds`.

    K must be detection incoherent and L unital detection incoherent; each
    is checked through its Kraus set.
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
    # leaves the pulled-back elements unchanged and is not applied. K is
    # detection incoherent, so K^dag(|n><n|) is diagonal (its off-diagonal
    # entries, within CHANNEL_EQ_TOL, are dropped), with entries
    # q[n, a, x] = sum_k |K_k[n, (a, x)]|^2, and E^dag (x) id maps it to
    # X_n = sum_x (sum_a q[n, a, x] E^dag(|a><a|)) (x) |x><x|
    q = (np.abs(k.kraus) ** 2).sum(axis=0).reshape(dd, d, d)
    pulled = pulled_back_basis(channel).stack.reshape(d, d * d)
    blocks = (q.transpose(0, 2, 1) @ pulled).reshape(dd, d, d, d)  # [n, x, i, j]
    x = blocks.transpose(0, 2, 1, 3)[..., None] * np.eye(d)[:, None, :]
    return pullback_povm(l, Povm._from_valid(x.reshape(dd, dd, dd))).stack


def composite_ent_lower_bound(
    channel: QuantumChannel, k: QuantumChannel, l: QuantumChannel
) -> float:
    """Averaged entanglement lower bound of the sandwiched composite
    dephase . K . (E (x) id) . L on dimension d^2, the batch of one of
    `composite_ent_lower_bounds`.

    K must be detection incoherent and L unital detection incoherent; the
    result then never exceeds the cohering power of E. This is a one-sided
    proxy: it bounds the composite's true entangling power from below.
    """
    [value] = composite_ent_lower_bounds([composite_elements(channel, k, l)])
    return value


def composite_ent_lower_bounds(stacks: Sequence[np.ndarray]) -> list[float]:
    """`composite_ent_lower_bound` of each composite of one dimension, given
    by its `composite_elements`, from one `ere_lower_bounds` call."""
    if not stacks:
        return []
    return [float(bounds.mean()) for bounds in _ere_lower_bounds_each(stacks)]


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
    return measurement_as_channel(pad_povm(povm, povm.dim))
