"""Code the benchmark owns and mrpower never sees: the reference kernel that
normalises operation times, and independent numpy recomputations of the
quantities mrpower prints and writes."""

from __future__ import annotations

import json
import time

import numpy as np

EIG_CLIP = 1e-12
KERNEL_SEED = 20241027


class ReferenceKernel:
    """A fixed piece of numpy work, timed after every operation.

    It mirrors the program's mix: a loop of small `eigvalsh` calls on 4x4 and
    9x9 Hermitian matrices (per-call overhead, as in entropies and POVM
    validation) and one batched complex matmul on 16x16 blocks (as in Kraus
    products). Its inputs never change, so its time tracks only the speed of
    the machine at that moment.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(KERNEL_SEED)

        def hermitian(n: int, d: int) -> np.ndarray:
            a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            return a + a.conj().transpose(0, 2, 1)

        self._small = list(hermitian(48, 4)) + list(hermitian(16, 9))
        self._batch = rng.standard_normal((32, 16, 16)) + 1j * rng.standard_normal((32, 16, 16))

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        start = time.perf_counter()
        for m in self._small:
            np.linalg.eigvalsh(m)
        np.matmul(self._batch, self._batch)
        return time.perf_counter() - start


def read_kraus(path) -> np.ndarray:
    """Kraus operators of a channel file as an array (rank, dim_out, dim_in)."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    pairs = np.asarray(obj["kraus"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def entropy_bits(matrix: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > EIG_CLIP]
    return float(-np.sum(lam * np.log2(lam)))


def coherence_gain(matrix: np.ndarray) -> float:
    """S(diag(X)) - S(X) in bits."""
    return entropy_bits(np.diag(np.diag(matrix))) - entropy_bits(matrix)


def cohering_powers(kraus: np.ndarray) -> tuple[float, float]:
    """(C, C_g) of a square channel.

    C = (1/d) sum_i [S(diag(E^dag(|i><i|))) - S(E^dag(|i><i|))] and
    C_g = max_i [S(diag(E(|i><i|))) - S(E(|i><i|))].
    """
    d = kraus.shape[2]
    c = 0.0
    c_g = -np.inf
    for i in range(d):
        pulled = np.einsum("ka,kb->ab", kraus[:, i, :].conj(), kraus[:, i, :])
        image = np.einsum("ka,kb->ab", kraus[:, :, i], kraus[:, :, i].conj())
        c += coherence_gain(pulled)
        c_g = max(c_g, coherence_gain(image))
    return c / d, c_g


def trace_preservation_error(kraus: np.ndarray) -> float:
    """max |sum_k K_k^dag K_k - I|."""
    gram = np.einsum("kab,kac->bc", kraus.conj(), kraus)
    return float(np.max(np.abs(gram - np.eye(kraus.shape[2]))))


def average_marginal_bound(kraus: np.ndarray, d: int) -> float:
    """Average over the d^2 pulled-back basis elements X of a channel on
    d x d of max{S(X_A) - S(X), S(X_B) - S(X)}: the measurement-side
    entanglement lower bound the conversion equality speaks of."""
    dd = kraus.shape[2]
    total = 0.0
    for k in range(dd):
        x = np.einsum("ra,rb->ab", kraus[:, k, :].conj(), kraus[:, k, :])
        blocks = x.reshape(d, d, d, d)
        joint = entropy_bits(x)
        s_a = entropy_bits(np.einsum("ijkj->ik", blocks))
        s_b = entropy_bits(np.einsum("ijil->jl", blocks))
        total += max(s_a - joint, s_b - joint)
    return total / dd
