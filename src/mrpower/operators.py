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
    deviation = float(np.max(np.abs(matrices - matrices.conj().swapaxes(-1, -2))))
    if not deviation <= HERM_TOL:  # any NaN or infinite entry lands here
        require_finite(matrices, what)
        raise NotHermitian(f"max deviation from Hermiticity {deviation:.3e} exceeds {HERM_TOL}")


class HermitianOperator:
    """Immutable square complex matrix, validated Hermitian on construction."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatch("dimension must be at least 1")
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


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim))


def basis_projector(index: int, dim: int) -> HermitianOperator:
    """|i><i| in the incoherent basis."""
    if not 0 <= index < dim:
        raise DimensionMismatch(f"basis index {index} out of range for dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return HermitianOperator(m)


def projector(vector) -> HermitianOperator:
    """|v><v| for an arbitrary (not necessarily normalized) vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return HermitianOperator(np.outer(v, v.conj()))


def diagonal_operator(values) -> HermitianOperator:
    return HermitianOperator(np.diag(np.asarray(values, dtype=float)))


def check_psd_spectra(eigenvalues: np.ndarray, what: str, error=NotPsd) -> None:
    """Raise `error` when an ascending spectrum, or any spectrum of an (n, d)
    stack of them, has an eigenvalue below -PSD_TOL; for a stack the message
    names the first operator at fault."""
    if eigenvalues.size == 0:
        return
    lowest = eigenvalues[..., 0]
    if lowest.min() < -PSD_TOL:
        if lowest.ndim:
            x = int(np.argmax(lowest < -PSD_TOL))
            what, lowest = f"{what} {x} is not PSD", lowest[x]
        raise error(f"{what}: minimum eigenvalue {lowest:.3e} below -{PSD_TOL}")


def entropies(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum_k lambda_k log2 lambda_k along the last axis, over eigenvalues
    above EIG_CLIP: `von_neumann_entropy` for a stack of spectra, which the
    caller has already checked for positivity."""
    kept = np.where(eigenvalues > EIG_CLIP, eigenvalues, 1.0)  # 1 log 1 = 0
    # 0.0 - sum rather than -sum: an all-clipped spectrum gives 0.0, not -0.0
    return 0.0 - np.sum(kept * np.log2(kept), axis=-1)


def von_neumann_entropy(x: HermitianOperator) -> float:
    """-sum_k lambda_k log2 lambda_k over eigenvalues above EIG_CLIP.

    The operator need not have unit trace (POVM elements are typically
    subnormalized), so the result can be negative. 0 log 0 := 0.
    """
    eig = np.linalg.eigvalsh(x.matrix)
    check_psd_spectra(eig, "entropy argument")
    lam = eig[eig > EIG_CLIP]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def relative_entropy(x: HermitianOperator, y: HermitianOperator) -> float:
    """tr[X log2 X] - tr[X log2 Y] in bits, or +inf on support mismatch.

    Support inclusion is decided by projecting X onto the null space of Y
    (eigenvectors with eigenvalue <= EIG_CLIP): more than SUPPORT_TOL of
    projected mass means +inf. See the module docstring for the
    subnormalized-operator convention.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"operand dims {x.dim} and {y.dim} differ")
    x_eig = np.linalg.eigvalsh(x.matrix)
    check_psd_spectra(x_eig, "first argument")
    y_eig, y_vec = np.linalg.eigh(y.matrix)
    check_psd_spectra(y_eig, "second argument")

    # <v_j| X |v_j> for each eigenvector of Y
    weights = np.einsum("ji,jk,ki->i", y_vec.conj(), x.matrix, y_vec).real
    null = y_eig <= EIG_CLIP
    if float(np.sum(weights[null])) > SUPPORT_TOL:
        return math.inf

    lam = x_eig[x_eig > EIG_CLIP]
    tr_x_log_x = float(np.sum(lam * np.log2(lam))) if lam.size else 0.0
    support = ~null
    tr_x_log_y = float(np.sum(weights[support] * np.log2(y_eig[support])))
    return tr_x_log_x - tr_x_log_y


def tensor_product(x: HermitianOperator, y: HermitianOperator) -> HermitianOperator:
    """Kronecker product; |i>_A (x) |j>_B maps to index i*d_B + j."""
    return HermitianOperator(np.kron(x.matrix, y.matrix))


def partial_trace(x: HermitianOperator, dims: tuple[int, int], keep: str) -> HermitianOperator:
    """Trace out one factor of a bipartite operator.

    dims is (d_A, d_B) under the tensor_product index ordering; keep is
    "A" or "B" and names the factor that survives.
    """
    d_a, d_b = dims
    if x.dim != d_a * d_b:
        raise DimensionMismatch(f"dim {x.dim} is not {d_a} * {d_b}")
    t = x.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        out = np.einsum("ijkj->ik", t)
    elif keep == "B":
        out = np.einsum("ijil->jl", t)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return HermitianOperator(out)


def dephase(x: HermitianOperator) -> HermitianOperator:
    """Zero all off-diagonal entries (incoherent-basis dephasing)."""
    return HermitianOperator(np.diag(np.diag(x.matrix)))


def is_psd(x: HermitianOperator, tol: float = PSD_TOL) -> bool:
    eig = np.linalg.eigvalsh(x.matrix)
    return bool(eig.size == 0 or eig[0] >= -tol)
