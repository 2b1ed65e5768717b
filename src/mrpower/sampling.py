"""Reproducible random instances and named example channels.

Randomness comes from Philox (counter-based) streams keyed through
splitmix64, so per-trial draws are bit-identical across platforms and
independent of scheduling order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channels import (
    Povm,
    QuantumChannel,
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


def _ginibre(rows: int, cols: int, counts, rngs) -> np.ndarray:
    """Complex Gaussian rows x cols blocks, one (total, rows, cols) stack in
    stream order: stream t gives *counts[t] blocks from one draw that takes
    each block's real part, then its imaginary part, block by block."""
    parts = np.concatenate([
        rng.gen.standard_normal((*count, 2, rows, cols)).reshape(-1, 2, rows, cols)
        for count, rng in zip(counts, rngs, strict=True)
    ])
    blocks = np.empty((len(parts), rows, cols), dtype=complex)
    blocks.real = parts[:, 0]
    blocks.imag = parts[:, 1]
    blocks /= _SQRT2
    return blocks


def _grouped(keys, items, draw) -> list:
    """draw(key, items of that key) once for each distinct key, which
    returns one draw per item; the draws of all the items in their order."""
    if len(keys) != len(items):
        raise ValueError(f"{len(keys)} parameters for {len(items)} streams")
    drawn = [None] * len(items)
    for key in dict.fromkeys(keys):
        members = [t for t, own in enumerate(keys) if own == key]
        for t, value in zip(members, draw(key, [items[t] for t in members]), strict=True):
            drawn[t] = value
    return drawn


def haar_isometries(rows: int, cols: int, counts, rngs) -> list[np.ndarray]:
    """Haar isometries: the first `cols` columns of Haar unitaries on `rows`
    dimensions, from the QR of tall Ginibre blocks with the R-diagonal phases
    absorbed into the columns of Q. Stream t gives a (*counts[t], rows, cols)
    stack, bit for bit the same as drawing its isometries one after another,
    and one stacked QR serves the whole block."""
    if not 1 <= cols <= rows:
        raise ValueError(f"an isometry needs 1 <= cols <= rows, got {rows} x {cols}")
    q, r = np.linalg.qr(_ginibre(rows, cols, counts, rngs))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    sizes = [math.prod(count) for count in counts]
    return [q[end - size:end].reshape(*count, rows, cols)
            for size, end, count in zip(sizes, itertools.accumulate(sizes), counts)]


def haar_isometry(rows: int, cols: int, rng: SeededRng, count: tuple = ()) -> np.ndarray:
    """`haar_isometries` of one stream: a (*count, rows, cols) stack of
    independent isometries."""
    return haar_isometries(rows, cols, [count], [rng])[0]


def haar_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed d x d unitary."""
    return haar_isometry(d, d, rng)


def random_channels(d: int, kraus_ranks, kind: str, rngs) -> list[QuantumChannel]:
    """Random CPTP channels on dimension d, the t-th of Kraus rank
    kraus_ranks[t] drawn from rngs[t].

    kind "general" slices a Haar isometry on d * kraus_rank into Kraus
    blocks, one stacked QR per rank; at rank 1 its one Kraus operator is
    `haar_unitary(d, rng)`, bit for bit. Kind "unital" mixes kraus_rank Haar
    unitaries with Dirichlet weights, one stacked QR for the block.
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    for rank in kraus_ranks:
        if not 1 <= rank <= d * d:
            raise InvalidRank(f"kraus_rank must lie in 1..{d * d}, got {rank}")
    if kind == "general":
        return _grouped(kraus_ranks, rngs, lambda rank, streams: [
            QuantumChannel._from_kraus(isometry.reshape(rank, d, d))
            for isometry in haar_isometries(d * rank, d, [()] * len(streams), streams)
        ])
    if kind == "unital":
        weights = [rng.gen.dirichlet(np.ones(rank))
                   for rank, rng in zip(kraus_ranks, rngs, strict=True)]
        unitaries = haar_isometries(d, d, [(rank,) for rank in kraus_ranks], rngs)
        return [QuantumChannel._from_kraus(np.sqrt(w)[:, None, None] * u)
                for w, u in zip(weights, unitaries)]
    raise ValueError(f"kind must be 'general' or 'unital', got {kind!r}")


def random_channel(d: int, kraus_rank: int, kind: str, rng: SeededRng) -> QuantumChannel:
    """`random_channels` of one stream."""
    return random_channels(d, [kraus_rank], kind, [rng])[0]


def random_dios(d: int, unital, rngs) -> list[QuantumChannel]:
    """Random detection-incoherent channels, the t-th unital when unital[t],
    held as monomial Kraus operators (one nonzero entry per column), which
    are strictly incoherent and so detection incoherent.

    A non-unital draw takes a column-stochastic q with Dirichlet columns and
    holds its shift form K_j = sum_m sqrt(q(m+j mod d | m)) |m+j><m|,
    j = 0..d-1. Its pulled-back basis K^dag(|n><n|) = sum_m q(n|m) |m><m| is
    that of the classical channel of q, and a check that pulls the basis
    measurement back through K reads K only through it. A unital draw is a
    Dirichlet mixture of three phased permutation unitaries
    sum_m e^{i theta_m} |perm(m)><m|, which keep coherence.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    columns = np.arange(d)

    def draw(doubly, streams):
        if doubly:
            # each stream's weights, then its phases, then its permutations
            # |m> -> |perm[m]>
            weights, phases, perms = [], [], []
            for gen in (rng.gen for rng in streams):
                weights.append(gen.dirichlet(np.ones(3)))
                phases.append(gen.uniform(size=(3, d)))
                perms.append([gen.permutation(d) for _ in range(3)])
            trial, op = np.ogrid[:len(streams), :3]
            kraus = np.zeros((len(streams), 3, d, d), dtype=complex)
            kraus[trial[..., None], op[..., None], np.array(perms), columns] = (
                np.sqrt(weights)[..., None] * np.exp(2j * np.pi * np.array(phases)))
        else:
            q = np.array([_dirichlet_columns(d, d, rng) for rng in streams])
            shifted = (columns[:, None] + columns) % d  # [j, m] = m + j mod d
            kraus = np.zeros((len(streams), d, d, d), dtype=complex)
            kraus[:, columns[:, None], shifted, columns] = np.sqrt(q[:, shifted, columns])
        return [QuantumChannel._from_kraus(ops) for ops in kraus]

    return _grouped([bool(flag) for flag in unital], rngs, draw)


def random_dio(d: int, unital: bool, rng: SeededRng) -> QuantumChannel:
    """`random_dios` of one stream."""
    return random_dios(d, [unital], [rng])[0]


def random_stochastic_matrix(rows: int, cols: int, rng: SeededRng) -> StochasticMatrix:
    """Column-stochastic matrix with Dirichlet-distributed columns."""
    if rows < 1 or cols < 1:
        raise ValueError(f"a stochastic matrix needs a row and a column, got {rows} x {cols}")
    return StochasticMatrix._from_valid(_dirichlet_columns(rows, cols, rng))


def _dirichlet_columns(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    """A rows x cols column-stochastic matrix with Dirichlet columns."""
    return np.ascontiguousarray(rng.gen.dirichlet(np.ones(rows), size=cols).T)


def random_povms(d: int, ns, incoherent, rngs) -> list[Povm]:
    """Random POVMs on dimension d, the t-th with ns[t] outcomes, incoherent
    when incoherent[t], drawn from rngs[t].

    Coherent draws normalize Wishart blocks G_x = A_x A_x^dag by the inverse
    square root of their total, one stacked eigh per outcome count; a stream
    whose total is singular draws again at once, alone. Incoherent draws
    post-process the basis measurement with a random stochastic matrix p,
    which gives the diagonal elements M_y = sum_i p(y|i) |i><i|.
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    if min(ns, default=2) < 2:
        raise ValueError(f"outcome count must be at least 2, got {min(ns)}")

    def draw(classical, trials):
        ns, streams = zip(*trials)
        if not classical:
            return _grouped(ns, streams, lambda n, group: _coherent_povms(d, n, group))
        stacks = np.zeros((len(streams), max(ns), d, d), dtype=complex)
        for stack, n, rng in zip(stacks, ns, streams):
            stack[:n, np.arange(d), np.arange(d)] = _dirichlet_columns(n, d, rng)
        return [Povm._from_valid(stack[:n]) for stack, n in zip(stacks, ns)]

    return _grouped(incoherent, list(zip(ns, rngs, strict=True)), draw)


def _coherent_povms(d: int, n: int, rngs, attempts: int = 10) -> list[Povm]:
    a = _ginibre(d, d, [(n,)] * len(rngs), rngs).reshape(len(rngs), n, d, d)
    blocks = a @ a.conj().swapaxes(-1, -2)
    eig, vec = np.linalg.eigh(blocks.sum(axis=1))
    # the floor changes only a singular total, whose POVM is dropped
    inv_sqrt = (vec / np.sqrt(np.maximum(eig, EIG_CLIP))[:, None, :]) @ vec.conj().swapaxes(1, 2)
    elements = inv_sqrt[:, None] @ blocks @ inv_sqrt[:, None]
    povms = []
    for stack, smallest, rng in zip(elements, eig[:, 0], rngs):
        if smallest > EIG_CLIP:
            povms.append(Povm._from_valid(stack))
        elif attempts > 1:
            povms += _coherent_povms(d, n, [rng], attempts - 1)
        else:
            raise SingularTotal("total of sampled blocks stayed singular after 10 redraws")
    return povms


def random_povm(d: int, n: int, incoherent: bool, rng: SeededRng) -> Povm:
    """`random_povms` of one stream."""
    return random_povms(d, [n], [incoherent], [rng])[0]


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
