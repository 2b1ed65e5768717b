"""Static resource quantifiers.

Covers the relative entropy of coherence of states, the averaged relative
entropy between measurements, measurement-coherence in closed form (the
`cm_oracle` suite checks it against its variational definition, the
minimum of that relative entropy over incoherent measurements), the
stochastic-matrix structure of incoherent measurements, and an
entanglement lower bound for PSD operators.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import (
    Povm,
    StochasticMatrix,
    _off_diagonal,
    basis_measurement,
    classical_postprocess,
)
from .errors import DimensionMismatch, NotDensity, NotIncoherent
from .operators import (
    HermitianOperator,
    check_psd_spectra,
    entropies,
    psd_entropies,
    relative_entropies,
)

DENSITY_TRACE_TOL = 1e-9
INCOHERENT_TOL = 1e-9  # max-abs off-diagonal entry of an incoherent measurement


def relative_entropy_of_coherence(rho: HermitianOperator) -> float:
    """S(dephase(rho)) - S(rho), the coherence of a density operator in bits."""
    return float(coherences_of_states(rho.matrix[None])[0])


def coherences_of_states(states: Sequence[np.ndarray]) -> np.ndarray:
    """`relative_entropy_of_coherence` of every density operator of a
    sequence of d x d matrices, or of an (n, d, d) stack, from one batched
    eigvalsh. An empty sequence gives an empty array."""
    states = np.asarray(states)
    if not len(states):
        return np.zeros(0)
    traces = np.einsum("xii->x", states).real
    worst = float(np.abs(traces - 1.0).max())
    if not worst <= DENSITY_TRACE_TOL:
        raise NotDensity(f"trace deviates from 1 by {worst:.3e}, above {DENSITY_TRACE_TOL}")
    spectra = np.linalg.eigvalsh(states)
    check_psd_spectra(spectra, "density operator", NotDensity)
    return _dephasing_gains(states, spectra)


def _dephasing_gains(stack: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """S(dephase(X)) - S(X) for each operator of a stack with the given
    spectra; the spectrum of dephase(X) is the real diagonal of X, sorted.
    Both entropies come from one `entropies` pass over the sorted diagonals
    stacked on the spectra."""
    n = len(stack)
    both = np.concatenate((_diagonals(stack), spectra))
    both[:n].sort(axis=1)
    gains = entropies(both)
    return gains[:n] - gains[n:]


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """Real diagonals <i|X|i> of an (n, d, d) stack, shape (n, d)."""
    return stack.diagonal(axis1=1, axis2=2).real


def measurement_relative_entropy(m: Povm, n: Povm) -> float:
    """(1/d) sum_x D(M_x || N_x) in bits; +inf propagates from any outcome.
    The batch of one pair of `measurement_relative_entropies`."""
    [value] = measurement_relative_entropies([(m, n)])
    return value


def measurement_relative_entropies(pairs: Sequence[tuple[Povm, Povm]]) -> list[float]:
    """(1/d) sum_x D(M_x || N_x) in bits of each (M, N) pair of a sequence
    of pairs of one dimension; an empty sequence gives [].

    The 1/d prefactor uses the measured (input) dimension; this is the
    unique normalization under which the quantity adds over tensor products
    of measurements. Each term is `relative_entropy(M_x, N_x)`: one batched
    `eigvalsh` over the elements of each distinct M (by identity, so an M
    that several pairs share is decomposed once), one batched `eigh` over
    every N element and one `relative_entropies` call serve the whole batch,
    and each pair's terms are summed in outcome order.
    """
    if not pairs:
        return []
    for m, n in pairs:
        if m.dim != n.dim or m.n != n.n:
            raise DimensionMismatch(
                f"POVMs differ in dim ({m.dim} vs {n.dim}) or outcomes ({m.n} vs {n.n})"
            )
    _batch_value([m.dim for m, _ in pairs], "POVMs differ in dim")
    distinct = {id(m): m for m, _ in pairs}
    starts = dict(zip(distinct, itertools.accumulate((m.n for m in distinct.values()), initial=0)))
    spectra = np.linalg.eigvalsh(np.concatenate([m.stack for m in distinct.values()]))
    terms = relative_entropies(
        np.concatenate([m.stack for m, _ in pairs]),
        np.concatenate([spectra[starts[id(m)]:starts[id(m)] + m.n] for m, _ in pairs]),
        *np.linalg.eigh(np.concatenate([n.stack for _, n in pairs])),
    ).tolist()
    return _outcome_sums(terms, [m for m, _ in pairs])


def _batch_value(values: Sequence, differ: str):
    """The value that every member of a non-empty batch has; the first that
    differs raises DimensionMismatch, its message led by `differ`."""
    for value in values:
        if value != values[0]:
            raise DimensionMismatch(f"{differ} ({values[0]} vs {value}) across the batch")
    return values[0]


def _outcome_sums(terms: list[float], povms: Sequence[Povm]) -> list[float]:
    """(1/d) times the sum, in outcome order, of each POVM's run of `terms`,
    which hold one term per outcome of each POVM in turn."""
    ends = itertools.accumulate(m.n for m in povms)
    return [sum(terms[end - m.n:end]) / m.dim for m, end in zip(povms, ends)]


def measurement_coherence(m: Povm) -> float:
    """(1/d) sum_x [S(dephase(M_x)) - S(M_x)] in bits, the batch of one of
    `measurement_coherences`.

    This is the minimum averaged relative entropy to any incoherent
    measurement; the minimizer is the element-wise dephasing of m.
    """
    [value] = measurement_coherences([m])
    return value


def measurement_coherences(povms: Sequence[Povm]) -> list[float]:
    """`measurement_coherence` of each POVM of a sequence of POVMs of one
    dimension, from one batched eigvalsh over all their elements; each
    POVM's terms are summed in outcome order. An empty sequence gives []."""
    if not povms:
        return []
    _batch_value([m.dim for m in povms], "POVMs differ in dim")
    stack = np.concatenate([m.stack for m in povms])
    return _outcome_sums(_dephasing_gains(stack, np.linalg.eigvalsh(stack)).tolist(), povms)


def is_incoherent_measurement(m: Povm) -> bool:
    """True iff every element is diagonal within INCOHERENT_TOL, max-abs."""
    return _off_diagonal(m.stack) <= INCOHERENT_TOL


@dataclass(frozen=True)
class IncoherentDecomposition:
    """Classical post-processing realizing an incoherent measurement on top
    of the basis measurement, with the max-abs reconstruction error."""

    post: StochasticMatrix
    residual: float


def decompose_incoherent(m: Povm) -> IncoherentDecomposition:
    """Extract p(x|i) = <i|M_x|i> and verify it reconstructs the POVM.

    p(x|i) is column stochastic within the POVM's own completeness error, up
    to COMPLETENESS_TOL, so it is held without the STOCHASTIC_TOL check."""
    if not is_incoherent_measurement(m):
        raise NotIncoherent(f"POVM has off-diagonal entries above {INCOHERENT_TOL}")
    probs = np.clip(_diagonals(m.stack), 0.0, None)  # PSD diagonals can carry -1e-16 noise
    post = StochasticMatrix._from_valid(probs)
    recon = classical_postprocess(basis_measurement(m.dim), post)
    residual = float(np.abs(recon.stack - m.stack).max())
    return IncoherentDecomposition(post=post, residual=residual)


def ere_lower_bound(x: HermitianOperator, dims: tuple[int, int]) -> float:
    """max{S(X_A) - S(X_AB), S(X_B) - S(X_AB)} in bits.

    Lower-bounds the relative entropy of entanglement of a PSD bipartite
    operator over the (d_A, d_B) split. Returned raw: negative values are
    valid lower bounds and clamping would weaken equality certificates built
    on top of this quantity.
    """
    return float(ere_lower_bounds(x.matrix[None], dims)[0])


def ere_lower_bounds(stack: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """`ere_lower_bound` of every operator in an (n, d_A d_B, d_A d_B) stack,
    from one batched eigvalsh each for the joint operators and for both
    marginals."""
    d_a, d_b = dims
    if stack.shape[-1] != d_a * d_b:
        raise DimensionMismatch(f"dim {stack.shape[-1]} is not {d_a} * {d_b}")
    blocks = stack.reshape(-1, d_a, d_b, d_a, d_b)
    joint, s_a, s_b = (
        psd_entropies(np.linalg.eigvalsh(ops))
        for ops in (stack, np.einsum("xijkj->xik", blocks), np.einsum("xijil->xjl", blocks))
    )
    return np.maximum(s_a - joint, s_b - joint)
