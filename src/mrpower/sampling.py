"""Reproducible random instances and named example channels.

Randomness comes from Philox (counter-based) streams keyed through
splitmix64, so per-trial draws are bit-identical across platforms and
independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    Povm,
    QuantumChannel,
    basis_measurement,
    classical_postprocess,
    dephasing_channel,
    StochasticMatrix,
    unitary_channel,
)
from .errors import InvalidRank, SingularTotal
from .operators import EIG_CLIP
from .powers import cnot_unitary

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SQRT2 = np.sqrt(2.0)


def splitmix64(seed: int, index: int) -> int:
    """index-th output of the splitmix64 stream started at seed."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SeededRng:
    """Counter-based random stream with splitmix64-derived children.

    Two instances built from the same master seed replay the same draw
    sequence bit for bit; `spawn(i)` derives an independent stream for
    trial i, so trials are order-independent. The Philox generator is built
    on the first `gen` read, so a stream that only spawns builds none.
    """

    algorithm = "philox4x64"

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed) & _MASK64
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self.master_seed))
        return self._gen

    def spawn(self, index: int) -> "SeededRng":
        return SeededRng(splitmix64(self.master_seed, index))

    def __repr__(self) -> str:
        return f"SeededRng(master_seed={self.master_seed})"


def _ginibre(rows: int, cols: int, rng: SeededRng, count: tuple[int, ...] = ()) -> np.ndarray:
    """Complex Gaussian rows x cols blocks, a stack of shape (*count, rows, cols),
    from one draw that takes each block's real part, then its imaginary part,
    block by block."""
    parts = rng.gen.standard_normal((*count, 2, rows, cols))
    blocks = np.empty((*count, rows, cols), dtype=complex)
    blocks.real = parts[..., 0, :, :]
    blocks.imag = parts[..., 1, :, :]
    blocks /= _SQRT2
    return blocks


def haar_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed d x d unitary."""
    return haar_isometry(d, d, rng)


def _haar_unitary_channel(d: int, rng: SeededRng) -> QuantumChannel:
    """The channel of a Haar unitary, the same as
    `unitary_channel(haar_unitary(d, rng))` without its check."""
    return QuantumChannel._from_kraus(haar_unitary(d, rng)[None])


def haar_isometry(
    rows: int, cols: int, rng: SeededRng, count: tuple[int, ...] = ()
) -> np.ndarray:
    """First `cols` columns of a Haar unitary on `rows` dimensions: QR of a
    tall Ginibre block with the R-diagonal phases absorbed into the columns
    of Q. `count` draws a stack of shape (*count, rows, cols) of independent
    isometries, the same as drawing them one after another."""
    q, r = np.linalg.qr(_ginibre(rows, cols, rng, count))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_channel(d: int, kraus_rank: int, kind: str, rng: SeededRng) -> QuantumChannel:
    """Random CPTP channel on dimension d.

    kind "general" slices a Haar isometry on d * kraus_rank into Kraus
    blocks; kind "unital" mixes kraus_rank Haar unitaries with Dirichlet
    weights.
    """
    if not 1 <= kraus_rank <= d * d:
        raise InvalidRank(f"kraus_rank must lie in 1..{d * d}, got {kraus_rank}")
    if kind == "general":
        isometry = haar_isometry(d * kraus_rank, d, rng)
        kraus = isometry.reshape(kraus_rank, d, d)
    elif kind == "unital":
        weights = rng.gen.dirichlet(np.ones(kraus_rank))
        kraus = np.sqrt(weights)[:, None, None] * haar_isometry(d, d, rng, (kraus_rank,))
    else:
        raise ValueError(f"kind must be 'general' or 'unital', got {kind!r}")
    return QuantumChannel._from_kraus(kraus)


def random_dio(d: int, unital: bool, rng: SeededRng) -> QuantumChannel:
    """Random detection-incoherent channel: the classical channel
    rho -> sum_nm q(n|m) <m|rho|m> |n><n| of a column-stochastic q, which is
    detection incoherent by construction, and unital when q is doubly
    stochastic.

    A channel K is detection incoherent exactly when each K^dag(|n><n|) is
    diagonal, and then K^dag(|n><n|) = sum_m q(n|m) |m><m| for the q of its
    basis statistics. A check that pulls the basis measurement back through
    K (its cohering power, or K as the last channel of a sandwiched
    composite) reads K only through q, so the classical channel of q gives
    every value such a check can take. Non-unital draws take q with
    Dirichlet columns; unital draws take a Dirichlet mixture of three
    permutation matrices, which is doubly stochastic but does not exhaust
    the unital class.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if unital:
        q = np.zeros((d, d))
        for weight in rng.gen.dirichlet(np.ones(3)):
            # the permutation |j> -> |perm[j]>
            q[rng.gen.permutation(d), np.arange(d)] += weight
    else:
        q = random_stochastic_matrix(d, d, rng).entries
    # Choi entry [(n, m), (n, m)] is q(n|m); every other entry is zero
    return QuantumChannel._from_choi(np.diag(q.reshape(-1).astype(complex)), d, d)


def random_stochastic_matrix(rows: int, cols: int, rng: SeededRng) -> StochasticMatrix:
    """Column-stochastic matrix with Dirichlet-distributed columns."""
    columns = rng.gen.dirichlet(np.ones(rows), size=cols)
    return StochasticMatrix._from_valid(np.ascontiguousarray(columns.T))


def random_povm(d: int, n: int, incoherent: bool, rng: SeededRng) -> Povm:
    """Random n-outcome POVM on dimension d.

    Coherent draws normalize Wishart blocks G_x = A_x A_x^dag by the inverse
    square root of their total; incoherent draws post-process the basis
    measurement with a random stochastic matrix.
    """
    if n < 2:
        raise ValueError(f"outcome count must be at least 2, got {n}")
    if incoherent:
        return classical_postprocess(basis_measurement(d), random_stochastic_matrix(n, d, rng))
    for _ in range(10):
        a = _ginibre(d, d, rng, (n,))
        blocks = a @ a.conj().transpose(0, 2, 1)
        eig, vec = np.linalg.eigh(blocks.sum(axis=0))
        if eig[0] > EIG_CLIP:
            inv_sqrt = (vec / np.sqrt(eig)) @ vec.conj().T
            return Povm._from_valid(inv_sqrt @ blocks @ inv_sqrt)
    raise SingularTotal("total of sampled blocks stayed singular after 10 redraws")


def example_channels() -> dict[str, QuantumChannel]:
    """Named qubit channels used as worked examples and CLI fixtures.

    "prep" discards its input and prepares |+>; "g" measures in the |+/->
    basis and records the outcome in the incoherent basis; the rest are the
    Hadamard unitary, the qubit dephasing channel, and the two-qubit CNOT.
    """
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    plus = (e0 + e1) / np.sqrt(2.0)
    minus = (e0 - e1) / np.sqrt(2.0)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return {
        "prep": QuantumChannel([np.outer(plus, e0.conj()), np.outer(plus, e1.conj())]),
        "g": QuantumChannel([np.outer(e0, plus.conj()), np.outer(e1, minus.conj())]),
        "hadamard": unitary_channel(hadamard),
        "qubit_dephase": dephasing_channel(2),
        "cnot2": cnot_unitary(2),
    }
