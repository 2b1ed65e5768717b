"""Dense complex Hermitian-operator primitives.

All entropic quantities are in bits (base-2 logarithms). The incoherent
basis is fixed to the computational basis |0>, ..., |d-1| throughout; any
diagonal/off-diagonal language below refers to it.

Relative entropy convention: no (tr Y - tr X) correction term is added for
subnormalized operators. Per-element values can therefore be negative, but
in every complete-POVM sum computed by this package the corrections cancel
exactly, and the split identity
D(X || dephase(Y)) = S(dephase(X)) - S(X) + D(dephase(X) || dephase(Y))
holds verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry, NotHermitian, NotPsd

HERM_TOL = 1e-10    # max-abs deviation allowed from X = X^dagger
PSD_TOL = 1e-9      # eigenvalues below -PSD_TOL fail positivity checks
EIG_CLIP = 1e-12    # eigenvalues at or below this are treated as zero
SUPPORT_TOL = 1e-9  # mass tolerated outside the support of the reference


def require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries, which every `deviation > tol` check
    would let through."""
    if not np.isfinite(values).all():
        raise NonFiniteEntry(f"{what} has a NaN or infinite entry")


def check_hermitian(matrices: np.ndarray, what: str) -> None:
    """Reject a matrix, or a stack of matrices over the last two axes, that
    deviates from its conjugate transpose by more than HERM_TOL or holds a
    NaN or infinite entry."""
    deviation = float(np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max())
    if not deviation <= HERM_TOL:  # any NaN or infinite entry lands here
        require_finite(matrices, what)
        raise NotHermitian(f"max deviation from Hermiticity {deviation:.3e} exceeds {HERM_TOL}")


def as_array(values, ndim: int, what: str, dtype=complex) -> np.ndarray:
    """`values` copied into a new `dtype` array with `ndim` axes, none of size
    zero; in a list or tuple, a `HermitianOperator` stands for its matrix.

    A ragged nesting, or any other shape, raises DimensionMismatch; an entry
    that is not a number raises numpy's ValueError.
    """
    if isinstance(values, (list, tuple)):
        values = [v.matrix if isinstance(v, HermitianOperator) else v for v in values]
    try:
        array = np.array(values, dtype=dtype)
    except ValueError:
        try:
            cells = np.array(values, dtype=object)
        except ValueError:  # a nesting numpy cannot hold even as objects
            cells = None
        if cells is not None and cells.ndim == ndim and not any(map(np.ndim, cells.flat)):
            raise  # every entry in place, and one of them is not a number
        raise DimensionMismatch(f"{what}: ragged nesting, expected {ndim} axes") from None
    if array.ndim != ndim or array.size == 0:
        raise DimensionMismatch(
            f"{what}: expected {ndim} axes, none of size zero, got shape {array.shape}"
        )
    return array


class HermitianOperator:
    """Immutable square complex matrix, validated Hermitian on construction."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        m = as_array(matrix, 2, "operator")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        check_hermitian(m, "operator")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def check_psd_spectra(eigenvalues: np.ndarray, what: str, error=NotPsd) -> None:
    """Raise `error` when a spectrum, or any spectrum of an (n, d) stack of
    them, has an eigenvalue below -PSD_TOL or NaN; for a stack the message
    names the first operator at fault."""
    if eigenvalues.size == 0:
        return
    if not eigenvalues.min() >= -PSD_TOL:  # min carries a NaN from anywhere
        lowest = eigenvalues.min(axis=-1)
        if lowest.ndim:
            x = int(np.argmax(~(lowest >= -PSD_TOL)))
            what, lowest = f"{what} {x} is not PSD", lowest[x]
        raise error(f"{what}: minimum eigenvalue {lowest:.3e} below -{PSD_TOL}")


def entropies(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum_k lambda_k log2 lambda_k along the last axis, over eigenvalues
    above EIG_CLIP, for a stack of spectra that the caller has already
    checked for positivity (`psd_entropies` checks them first)."""
    kept = np.where(eigenvalues > EIG_CLIP, eigenvalues, 1.0)  # 1 log 1 = 0
    # 0.0 - sum rather than -sum: an all-clipped spectrum gives 0.0, not -0.0
    return 0.0 - (kept * np.log2(kept)).sum(axis=-1)


def psd_entropies(spectra: np.ndarray) -> np.ndarray:
    """`entropies` of a stack of spectra, after checking them for positivity."""
    check_psd_spectra(spectra, "entropy argument")
    return entropies(spectra)


def von_neumann_entropy(x: HermitianOperator) -> float:
    """-sum_k lambda_k log2 lambda_k over eigenvalues above EIG_CLIP.

    The operator need not have unit trace (POVM elements are typically
    subnormalized), so the result can be negative. 0 log 0 := 0.
    """
    return float(psd_entropies(np.linalg.eigvalsh(x.matrix)))


def relative_entropies(
    x_stack: np.ndarray, x_spectra: np.ndarray, y_eig: np.ndarray, y_vec: np.ndarray
) -> np.ndarray:
    """tr[X_i log2 X_i] - tr[X_i log2 Y_i] in bits for each pair of two
    (n, d, d) stacks, from the spectra of the X_i and the eigendecompositions
    (`np.linalg.eigh`) of the Y_i; +inf on each pair whose supports do not
    match.

    Support inclusion is decided by projecting X_i onto the null space of
    Y_i (eigenvectors with eigenvalue <= EIG_CLIP): more than SUPPORT_TOL of
    projected mass means +inf. See the module docstring for the
    subnormalized-operator convention.
    """
    # <v_ij| X_i |v_ij> for each eigenvector of Y_i
    weights = np.einsum("xji,xjk,xki->xi", y_vec.conj(), x_stack, y_vec).real
    null = y_eig <= EIG_CLIP
    outside = np.where(null, weights, 0.0).sum(axis=1)
    tr_x_log_x = -entropies(x_spectra)
    tr_x_log_y = (weights * np.log2(np.where(null, 1.0, y_eig))).sum(axis=1)
    return np.where(outside > SUPPORT_TOL, math.inf, tr_x_log_x - tr_x_log_y)


def relative_entropy(x: HermitianOperator, y: HermitianOperator) -> float:
    """`relative_entropies` of the one pair (X, Y), after checking that both
    are PSD of the same dimension."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"operand dims {x.dim} and {y.dim} differ")
    x_eig = np.linalg.eigvalsh(x.matrix)
    check_psd_spectra(x_eig, "first argument")
    y_eig, y_vec = np.linalg.eigh(y.matrix)
    check_psd_spectra(y_eig, "second argument")
    return float(relative_entropies(x.matrix[None], x_eig[None], y_eig[None], y_vec[None])[0])
