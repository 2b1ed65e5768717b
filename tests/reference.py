"""Independent one-operator implementations kept as references for the
batched kernels of mrpower, and the operator and channel helpers, random
operators among them, that the tests build inputs and compare results with.

The entropy filters the spectrum instead of clipping it, the relative
entropy projects onto the eigenvectors of its second argument one pair at a
time, and the entanglement bound takes explicit partial traces, so a test
that compares a batched kernel with these does not compare it with itself.
The measurement-coherence of a qubit two-outcome POVM is minimized by
exhaustive search over a grid of incoherent POVMs, not from the closed form.
"""

from __future__ import annotations

import math

import numpy as np

from mrpower.channels import CHANNEL_EQ_TOL, QuantumChannel, unitary_channel
from mrpower.errors import DimensionMismatch, SingularTotal
from mrpower.operators import (
    EIG_CLIP,
    PSD_TOL,
    SUPPORT_TOL,
    HermitianOperator,
    check_psd_spectra,
)


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim))


def basis_projector(index: int, dim: int) -> HermitianOperator:
    """|i><i| in the incoherent basis."""
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return HermitianOperator(m)


def projector(vector) -> HermitianOperator:
    """|v><v| for an arbitrary (not necessarily normalized) vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return HermitianOperator(np.outer(v, v.conj()))


def diagonal_operator(values) -> HermitianOperator:
    return HermitianOperator(np.diag(np.asarray(values, dtype=float)))


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
    projected mass means +inf. See the `mrpower.operators` docstring for the
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


def full_grid_bruteforce(m, grid_steps: int = 1000) -> float:
    """Measurement-coherence of a qubit two-outcome POVM by its definition:
    the minimum averaged relative entropy to an incoherent two-outcome POVM
    F_0 = diag(a, b), F_1 = I - F_0, over the whole grid_steps x grid_steps
    grid of (a, b) in [0, 1]^2 (np.argmin), then once more over a grid of
    the cells around the best point."""
    mass = np.clip(np.array([np.diag(el).real for el in m.stack]), 0.0, None)
    base = -sum(von_neumann_entropy(HermitianOperator(el)) for el in m.stack)

    def slot_cost(axis_values, slot):
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = np.where(mass[0, slot] > 0.0, -mass[0, slot] * np.log2(axis_values), 0.0)
            c1 = np.where(mass[1, slot] > 0.0, -mass[1, slot] * np.log2(1.0 - axis_values), 0.0)
        return c0 + c1

    def grid_minimum(a_lo, a_hi, b_lo, b_hi):
        a = np.linspace(a_lo, a_hi, grid_steps)
        b = np.linspace(b_lo, b_hi, grid_steps)
        grid = slot_cost(a, 0)[:, None] + slot_cost(b, 1)[None, :]
        ia, ib = divmod(int(np.argmin(grid)), grid_steps)
        return float(grid[ia, ib]), float(a[ia]), float(b[ib]), (a[1] - a[0]), (b[1] - b[0])

    best, a_star, b_star, ha, hb = grid_minimum(0.0, 1.0, 0.0, 1.0)
    refined, _, _, _, _ = grid_minimum(
        max(0.0, a_star - ha), min(1.0, a_star + ha), max(0.0, b_star - hb), min(1.0, b_star + hb)
    )
    return 0.5 * (base + min(best, refined))


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


def ginibre(rows: int, cols: int, rng) -> np.ndarray:
    """One complex Gaussian block from two draws: real part, then imaginary."""
    return (
        rng.gen.standard_normal((rows, cols)) + 1j * rng.gen.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def haar_isometry(rows: int, cols: int, rng) -> np.ndarray:
    """One Haar isometry: QR of one Ginibre block, R-diagonal phases absorbed."""
    q, r = np.linalg.qr(ginibre(rows, cols, rng))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(d: int, rng) -> np.ndarray:
    """Random density matrix with Dirichlet spectrum in a Haar eigenbasis."""
    u = haar_isometry(d, d, rng)
    w = rng.gen.dirichlet(np.ones(d))
    return (u * w) @ u.conj().T


def random_psd(d: int, rng) -> np.ndarray:
    """Random PSD matrix A A^dag (unnormalized)."""
    a = ginibre(d, d, rng)
    return a @ a.conj().T


def random_hermitian(d: int, rng) -> np.ndarray:
    a = ginibre(d, d, rng)
    return (a + a.conj().T) / 2.0


def unital_kraus(d: int, kraus_rank: int, rng) -> np.ndarray:
    """The Kraus set that `random_channel(d, kraus_rank, "unital", rng)`
    draws, one Haar unitary after another."""
    weights = rng.gen.dirichlet(np.ones(kraus_rank))
    return np.array([np.sqrt(w) * haar_isometry(d, d, rng) for w in weights])


def coherent_povm_blocks(d: int, n: int, rng) -> np.ndarray:
    """The n Ginibre blocks of a coherent `random_povm(d, n, False, rng)`
    draw, one block after another."""
    return np.array([ginibre(d, d, rng) for _ in range(n)])


def coherent_povm(d: int, n: int, rng, clip: float = EIG_CLIP) -> np.ndarray:
    """The elements of a coherent `random_povm(d, n, False, rng)`: n
    Wishart blocks normalized by the inverse square root of their total,
    drawn again while the total's smallest eigenvalue is at or below clip,
    at most 10 times in all."""
    for _ in range(10):
        a = coherent_povm_blocks(d, n, rng)
        blocks = a @ a.conj().transpose(0, 2, 1)
        eig, vec = np.linalg.eigh(blocks.sum(axis=0))
        if eig[0] > clip:
            inv_sqrt = (vec / np.sqrt(eig)) @ vec.conj().T
            return inv_sqrt @ blocks @ inv_sqrt
    raise SingularTotal("total of sampled blocks stayed singular after 10 redraws")


def identity_channel(dim: int) -> QuantumChannel:
    return unitary_channel(np.eye(dim))


def permutation_channel(perm) -> QuantumChannel:
    """Unitary channel of the basis permutation |i> -> |perm[i]>."""
    perm = np.asarray(perm, dtype=int)
    u = np.zeros((perm.size, perm.size), dtype=complex)
    u[perm, np.arange(perm.size)] = 1.0
    return unitary_channel(u)


def mix_channels(a: QuantumChannel, b: QuantumChannel, p: float) -> QuantumChannel:
    """Convex mixture p a + (1 - p) b, the Kraus union
    {sqrt(p) A_k} + {sqrt(1 - p) B_k}."""
    return QuantumChannel(np.concatenate((np.sqrt(p) * a.kraus, np.sqrt(1.0 - p) * b.kraus)))


def classical_choi(q: np.ndarray) -> np.ndarray:
    """The Choi matrix of the classical channel rho -> sum_nm q(n|m) <m|rho|m> |n><n|
    of a column-stochastic q: diagonal, with entry [(n, m), (n, m)] = q(n|m)."""
    return np.diag(q.reshape(-1)).astype(complex)


def choi_pulled_back_basis(choi: np.ndarray, d: int) -> np.ndarray:
    """E^dag(|a><a|)[i, j] = conj(J[(a, i), (a, j)]), the conjugated diagonal
    blocks of the Choi matrix of a channel on dimension d."""
    return np.einsum("aiaj->aij", choi.reshape(d, d, d, d)).conj()


def dirichlet_columns(rows: int, cols: int, rng) -> np.ndarray:
    """The column-stochastic q that a non-unital `random_dio` draws: Dirichlet
    columns, one draw of `cols` of them."""
    return rng.gen.dirichlet(np.ones(rows), size=cols).T


def extend_with_identity(channel: QuantumChannel, d_anc: int) -> QuantumChannel:
    """E (x) id on a d_anc-dimensional ancilla, from the Kraus set {K (x) I}."""
    return QuantumChannel([np.kron(k, np.eye(d_anc)) for k in channel.kraus])


def choi(channel: QuantumChannel) -> np.ndarray:
    """The Choi matrix sum_ij E(|i><j|) (x) |i><j| (unnormalized, output
    factor first, input factor second), whose entry [(a, i), (b, j)] is
    E(|i><j|)[a, b], as sum_k vec(K_k) vec(K_k)^dag from the Kraus stack."""
    vecs = channel.kraus.reshape(channel.kraus.shape[0], -1)
    return vecs.T @ vecs.conj()


def choi_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatch("channels act on different spaces")
    return float(np.max(np.abs(choi(a) - choi(b))))


def channels_equal(a: QuantumChannel, b: QuantumChannel) -> bool:
    """Equal Choi matrices within CHANNEL_EQ_TOL, max-abs."""
    return choi_distance(a, b) <= CHANNEL_EQ_TOL
