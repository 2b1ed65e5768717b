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
    dephased,
    dephasing_channel,
    is_dio,
    is_unital,
    StochasticMatrix,
    unitary_channel,
)
from .errors import ConstructionFailed, InvalidRank, SingularTotal
from .powers import cnot_unitary

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    trial i, so trials are order-independent.
    """

    algorithm = "philox4x64"

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed) & _MASK64
        self.gen = np.random.Generator(np.random.Philox(key=self.master_seed))

    def spawn(self, index: int) -> "SeededRng":
        return SeededRng(splitmix64(self.master_seed, index))

    def __repr__(self) -> str:
        return f"SeededRng(master_seed={self.master_seed})"


def _ginibre(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    return (
        rng.gen.standard_normal((rows, cols)) + 1j * rng.gen.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def haar_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed d x d unitary."""
    return haar_isometry(d, d, rng)


def haar_isometry(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    """First `cols` columns of a Haar unitary on `rows` dimensions: QR of a
    tall Ginibre block with the R-diagonal phases absorbed into the columns
    of Q."""
    q, r = np.linalg.qr(_ginibre(rows, cols, rng))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


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
        kraus = [np.sqrt(w) * haar_unitary(d, rng) for w in weights]
    else:
        raise ValueError(f"kind must be 'general' or 'unital', got {kind!r}")
    return QuantumChannel(kraus)


def random_dio(d: int, unital: bool, rng: SeededRng) -> QuantumChannel:
    """Random detection-incoherent channel, verified against the class
    predicate before returning.

    Non-unital draws compose a random channel after the dephasing channel.
    Unital draws mix basis-permutation-after-dephasing channels; this
    provably lands in the unital detection-incoherent class but does not
    exhaust it.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if unital:
        terms = 3
        weights = rng.gen.dirichlet(np.ones(terms))
        perms = [rng.gen.permutation(d) for _ in weights]
        # Kraus operator (t, j) is sqrt(w_t) |perm_t[j]><j|
        j = np.arange(d)
        kraus = np.zeros((terms, d, d, d), dtype=complex)
        kraus[np.arange(terms)[:, None], j, perms, j] = np.sqrt(weights)[:, None]
        channel = QuantumChannel(kraus.reshape(terms * d, d, d))
    else:
        rank = int(rng.gen.integers(1, d * d + 1))
        channel = dephased(random_channel(d, rank, "general", rng), "in")
    if not is_dio(channel) or (unital and not is_unital(channel)):
        raise ConstructionFailed("sampled channel failed its class predicate")
    return channel


def random_stochastic_matrix(rows: int, cols: int, rng: SeededRng) -> StochasticMatrix:
    """Column-stochastic matrix with Dirichlet-distributed columns."""
    cols_arr = rng.gen.dirichlet(np.ones(rows), size=cols).T
    return StochasticMatrix(cols_arr)


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
        a = np.array([_ginibre(d, d, rng) for _ in range(n)])
        blocks = a @ a.conj().transpose(0, 2, 1)
        eig, vec = np.linalg.eigh(blocks.sum(axis=0))
        if eig[0] > 1e-12:
            inv_sqrt = (vec / np.sqrt(eig)) @ vec.conj().T
            return Povm(inv_sqrt @ blocks @ inv_sqrt)
    raise SingularTotal("total of sampled blocks stayed singular after 10 redraws")


def random_density(d: int, rng: SeededRng) -> np.ndarray:
    """Random density matrix with Dirichlet spectrum in a Haar eigenbasis."""
    u = haar_unitary(d, rng)
    w = rng.gen.dirichlet(np.ones(d))
    return (u * w) @ u.conj().T


def random_psd(d: int, rng: SeededRng) -> np.ndarray:
    """Random PSD matrix A A^dag (unnormalized)."""
    a = _ginibre(d, d, rng)
    return a @ a.conj().T


def random_hermitian(d: int, rng: SeededRng) -> np.ndarray:
    a = _ginibre(d, d, rng)
    return (a + a.conj().T) / 2.0


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
