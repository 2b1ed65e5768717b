"""Static resource quantifiers.

Covers the relative entropy of coherence of states, the averaged relative
entropy between measurements, measurement-coherence (closed form plus a
small-scale variational oracle), the stochastic-matrix structure of
incoherent measurements, and an entanglement lower bound for PSD operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    Povm,
    StochasticMatrix,
    basis_measurement,
    classical_postprocess,
)
from .errors import (
    DimensionMismatch,
    NotDensity,
    NotIncoherent,
    UnsupportedScale,
)
from .operators import (
    EIG_CLIP,
    SUPPORT_TOL,
    HermitianOperator,
    check_psd_spectra,
    entropies,
    partial_trace,
    von_neumann_entropy,
)

DENSITY_TRACE_TOL = 1e-9


def relative_entropy_of_coherence(rho: HermitianOperator) -> float:
    """S(dephase(rho)) - S(rho), the coherence of a density operator in bits."""
    return float(coherences_of_states(rho.matrix[None])[0])


def coherences_of_states(states: np.ndarray) -> np.ndarray:
    """`relative_entropy_of_coherence` of every density operator in an
    (n, d, d) stack, from one batched eigvalsh."""
    traces = np.einsum("xii->x", states).real
    worst = float(np.max(np.abs(traces - 1.0)))
    if not worst <= DENSITY_TRACE_TOL:
        raise NotDensity(f"trace deviates from 1 by {worst:.3e}, above {DENSITY_TRACE_TOL}")
    spectra = np.linalg.eigvalsh(states)
    check_psd_spectra(spectra, "density operator", NotDensity)
    return _dephasing_gains(states, spectra)


def _dephasing_gains(stack: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """S(dephase(X)) - S(X) for each operator of a stack with the given
    spectra; the spectrum of dephase(X) is the real diagonal of X, sorted."""
    return entropies(np.sort(_diagonals(stack), axis=1)) - entropies(spectra)


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """Real diagonals <i|X|i> of an (n, d, d) stack, shape (n, d)."""
    return np.diagonal(stack, axis1=1, axis2=2).real


def measurement_relative_entropy(m: Povm, n: Povm) -> float:
    """(1/d) sum_x D(M_x || N_x) in bits; +inf propagates from any outcome.

    The 1/d prefactor uses the measured (input) dimension; this is the
    unique normalization under which the quantity adds over tensor products
    of measurements. Each term is `relative_entropy(M_x, N_x)`, computed for
    all outcomes at once from one batched eigendecomposition of N's
    elements and the stored spectra of M's.
    """
    if m.dim != n.dim or m.n != n.n:
        raise DimensionMismatch(
            f"POVMs differ in dim ({m.dim} vs {n.dim}) or outcomes ({m.n} vs {n.n})"
        )
    n_eig, n_vec = np.linalg.eigh(n.stack)
    # <v_xj| M_x |v_xj> for each eigenvector of N_x
    weights = np.einsum("xji,xjk,xki->xi", n_vec.conj(), m.stack, n_vec).real
    null = n_eig <= EIG_CLIP
    if (np.where(null, weights, 0.0).sum(axis=1) > SUPPORT_TOL).any():
        return math.inf
    tr_x_log_x = -entropies(m.spectra)
    tr_x_log_y = np.sum(weights * np.log2(np.where(null, 1.0, n_eig)), axis=1)
    return sum((tr_x_log_x - tr_x_log_y).tolist()) / m.dim  # in outcome order


def measurement_coherence(m: Povm) -> float:
    """(1/d) sum_x [S(dephase(M_x)) - S(M_x)] in bits.

    This is the minimum averaged relative entropy to any incoherent
    measurement; the minimizer is the element-wise dephasing of m.
    """
    # summed in outcome order, as the per-element form was, so values stay bit-identical
    return sum(_dephasing_gains(m.stack, m.spectra).tolist()) / m.dim


def is_incoherent_measurement(m: Povm, tol: float) -> bool:
    """True iff every element is diagonal within max-abs tolerance."""
    off = m.stack[:, ~np.eye(m.dim, dtype=bool)]
    return float(np.max(np.abs(off), initial=0.0)) <= tol


def measurement_coherence_bruteforce(m: Povm, grid_steps: int) -> float:
    """Variational measurement-coherence for a qubit two-outcome POVM.

    Minimizes the averaged relative entropy over all incoherent two-outcome
    POVMs, exhaustively parametrized as F_0 = diag(a, b), F_1 = I - F_0 with
    a, b on a grid_steps x grid_steps grid over [0, 1]^2, followed by one
    local refinement pass around the best cell. Exists to certify the closed
    form at small scale, not for production use.
    """
    if m.dim != 2 or m.n != 2:
        raise UnsupportedScale(
            f"oracle supports d = 2, n = 2 only (got d = {m.dim}, n = {m.n})"
        )
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be at least 100, got {grid_steps}")

    # D(M_x || diag) splits into independent terms for the two diagonal slots.
    mass = np.clip(_diagonals(m.stack), 0.0, None)  # (2, 2)
    base = -sum(entropies(m.spectra).tolist())

    def slot_cost(axis_values: np.ndarray, slot: int) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = np.where(
                mass[0, slot] > 0.0, -mass[0, slot] * np.log2(axis_values), 0.0
            )
            c1 = np.where(
                mass[1, slot] > 0.0, -mass[1, slot] * np.log2(1.0 - axis_values), 0.0
            )
        return c0 + c1

    def grid_minimum(a_lo, a_hi, b_lo, b_hi):
        """Minimum of cost_a[ia] + cost_b[ib] over the grid and the first
        cell in row-major order that attains it, as `np.argmin` of the full
        grid would give. Rounded addition is monotone in each argument, so
        the grid minimum is exactly cost_a.min() + cost_b.min(), and a row
        attains it exactly when its sum with cost_b.min() does."""
        a = np.linspace(a_lo, a_hi, grid_steps)
        b = np.linspace(b_lo, b_hi, grid_steps)
        cost_a, cost_b = slot_cost(a, 0), slot_cost(b, 1)
        best = cost_a.min() + cost_b.min()
        ia = int(np.argmax(cost_a + cost_b.min() == best))
        ib = int(np.argmax(cost_a[ia] + cost_b == best))
        value = cost_a[ia] + cost_b[ib]
        return float(value), float(a[ia]), float(b[ib]), (a[1] - a[0]), (b[1] - b[0])

    best, a_star, b_star, ha, hb = grid_minimum(0.0, 1.0, 0.0, 1.0)
    refined, _, _, _, _ = grid_minimum(
        max(0.0, a_star - ha),
        min(1.0, a_star + ha),
        max(0.0, b_star - hb),
        min(1.0, b_star + hb),
    )
    return 0.5 * (base + min(best, refined))


@dataclass(frozen=True)
class IncoherentDecomposition:
    """Classical post-processing realizing an incoherent measurement on top
    of the basis measurement, with the max-abs reconstruction error."""

    post: StochasticMatrix
    residual: float


def decompose_incoherent(m: Povm, tol: float = 1e-9) -> IncoherentDecomposition:
    """Extract p(x|i) = <i|M_x|i> and verify it reconstructs the POVM."""
    if not is_incoherent_measurement(m, tol):
        raise NotIncoherent(f"POVM has off-diagonal entries above {tol}")
    probs = np.clip(_diagonals(m.stack), 0.0, None)  # PSD diagonals can carry -1e-16 noise
    post = StochasticMatrix(probs)
    recon = classical_postprocess(basis_measurement(m.dim), post)
    residual = float(np.max(np.abs(recon.stack - m.stack)))
    return IncoherentDecomposition(post=post, residual=residual)


def ere_lower_bound(x: HermitianOperator, dims: tuple[int, int]) -> float:
    """max{S(X_A) - S(X_AB), S(X_B) - S(X_AB)} in bits.

    Lower-bounds the relative entropy of entanglement of a PSD bipartite
    operator over the (d_A, d_B) split. Returned raw: negative values are
    valid lower bounds and clamping would weaken equality certificates built
    on top of this quantity.
    """
    joint = von_neumann_entropy(x)  # raises NotPsd where applicable
    s_a = von_neumann_entropy(partial_trace(x, dims, "A"))
    s_b = von_neumann_entropy(partial_trace(x, dims, "B"))
    return max(s_a - joint, s_b - joint)


def ere_lower_bounds(stack: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """`ere_lower_bound` of every operator in an (n, d_A d_B, d_A d_B) stack,
    from one batched eigvalsh each for the joint operators and for both
    marginals."""
    d_a, d_b = dims
    if stack.shape[-1] != d_a * d_b:
        raise DimensionMismatch(f"dim {stack.shape[-1]} is not {d_a} * {d_b}")
    blocks = stack.reshape(-1, d_a, d_b, d_a, d_b)
    joint, s_a, s_b = (
        _psd_entropies(np.linalg.eigvalsh(ops))
        for ops in (stack, np.einsum("xijkj->xik", blocks), np.einsum("xijil->xjl", blocks))
    )
    return np.maximum(s_a - joint, s_b - joint)


def _psd_entropies(spectra: np.ndarray) -> np.ndarray:
    check_psd_spectra(spectra, "entropy argument")
    return entropies(spectra)
