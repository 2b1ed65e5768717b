"""Quantum channels, POVMs, stochastic post-processing, and channel-class
predicates.

A channel is canonically its Choi matrix, and every operation on channels
works on it directly: application, composition (one matrix product in the
natural, superoperator representation, which is a reshuffle of the Choi
matrix), adjoints and the class predicates. Kraus
operators are a view: a channel built from Kraus operators holds them and
builds its Choi matrix the first time `choi` is read, so a channel that is
only written out never builds it; any other channel computes a minimal
Kraus set from the Choi eigendecomposition the first time `kraus` is read.
Either derived array is a deterministic function of the other, and both are
read-only, so instances are immutable. The class predicates compare Choi
entries with the identity or zero within CHANNEL_EQ_TOL, which is
representation independent.

Channels, POVMs and stochastic matrices are validated where they enter:
from a file, from `unitary_channel`, or from user code calling the public
constructors. What the library derives from valid objects is valid by
construction and is not checked again:
- a POVM computed from valid ones (a pull-back through a channel, a
  classical post-processing, a product, a mixture, a padding);
- a channel held through `QuantumChannel._from_kraus`: both kinds of
  `random_channel`, Haar unitary channels and `measurement_as_channel`,
  which also builds `conversion_channel` and `measurement_as_square_channel`;
  a channel held through `_from_choi`: composites, adjoints and the
  classical channels of `random_dio`;
- a Dirichlet draw of `random_stochastic_matrix`, and the p(x|i) = <i|M_x|i>
  that `decompose_incoherent` reads off an incoherent POVM.
The edge: a derived object whose rounding would pass its tolerance is
accepted, not refused inside the deriving call; for example
`measurement_as_channel` of a user POVM at the completeness edge no longer
raises NotTracePreserving. Likewise the columns of the p(x|i) of an
incoherent POVM sum to one only within the POVM's COMPLETENESS_TOL, looser
than STOCHASTIC_TOL, so `decompose_incoherent` accepts every incoherent POVM
that `Povm` accepts, and `StochasticMatrix` may refuse the p(x|i) it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPovm,
    InvalidStochasticMatrix,
    NotTracePreserving,
    NotUnital,
)
from .operators import (
    EIG_CLIP,
    PSD_TOL,
    as_array,
    check_hermitian,
    check_psd_spectra,
    require_finite,
)

TP_TOL = 1e-9           # max-abs deviation of sum_k K_k^dag K_k from I
COMPLETENESS_TOL = 1e-9  # max-abs deviation of sum_x M_x from I
CHANNEL_EQ_TOL = 1e-9    # max-abs Choi deviation the class predicates allow
STOCHASTIC_TOL = 1e-10   # column-sum deviation allowed in p(x|i)


class QuantumChannel:
    """Completely positive trace-preserving map, canonically its Choi matrix.

    The Choi matrix is sum_ij E(|i><j|) (x) |i><j| (unnormalized, output
    factor first, input factor second), so its entry [(a, i), (b, j)] is
    E(|i><j|)[a, b]. Complete positivity is automatic for any Kraus list,
    so construction validates finiteness and trace preservation only, the
    latter on the dim_in x dim_in Gram matrix sum_k K_k^dag K_k. A channel
    built from Kraus operators holds them and builds its Choi matrix on the
    first `choi` read. A channel the library derives from valid inputs is
    held by `_from_kraus` or `_from_choi` without any check.
    """

    __slots__ = ("_choi", "_dim_in", "_dim_out", "_kraus")

    def __init__(self, kraus) -> None:
        arr = as_array(kraus, 3, "Kraus operators")
        require_finite(arr, "Kraus operators")
        self._dim_out, self._dim_in = arr.shape[1], arr.shape[2]
        rows = arr.reshape(-1, self._dim_in)  # every row of every K_k
        # finite entries can overflow the Gram matrix to inf and NaN, which
        # the comparison below rejects without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            residual = _max_abs(rows.conj().T @ rows - _identity(self._dim_in))
        if not residual <= TP_TOL:
            raise NotTracePreserving(
                f"sum of K^dag K deviates from identity by {residual:.3e}"
            )
        arr.setflags(write=False)
        self._kraus = arr
        self._choi = None

    @classmethod
    def _from_kraus(cls, kraus: np.ndarray) -> "QuantumChannel":
        """Hold a new C-contiguous complex (rank, dim_out, dim_in) stack of
        Kraus operators of a map already known to be trace preserving, made
        read-only in place, with no check."""
        channel = cls.__new__(cls)
        kraus.setflags(write=False)
        channel._kraus = kraus
        channel._dim_out, channel._dim_in = kraus.shape[1], kraus.shape[2]
        channel._choi = None
        return channel

    @classmethod
    def _from_choi(cls, choi: np.ndarray, dim_in: int, dim_out: int) -> "QuantumChannel":
        """Hold the complex Choi matrix of a map already known to be CPTP,
        made read-only in place."""
        channel = cls.__new__(cls)
        choi.setflags(write=False)
        channel._choi = choi
        channel._dim_in, channel._dim_out = dim_in, dim_out
        channel._kraus = None
        return channel

    @property
    def kraus(self) -> np.ndarray:
        """Stacked Kraus operators, shape (rank, dim_out, dim_in).

        The operators the channel was built from; for any other channel, the
        minimal set sqrt(lambda_k) v_k of the Choi eigendecomposition,
        computed on first access.
        """
        if self._kraus is None:
            eig, vec = np.linalg.eigh(self._choi)
            keep = eig > EIG_CLIP
            kraus = (vec[:, keep] * np.sqrt(eig[keep])).T
            kraus = kraus.reshape(-1, self._dim_out, self._dim_in)
            kraus.setflags(write=False)
            self._kraus = kraus
        return self._kraus

    @property
    def dim_in(self) -> int:
        return self._dim_in

    @property
    def dim_out(self) -> int:
        return self._dim_out

    @property
    def choi(self) -> np.ndarray:
        """The Choi matrix as a read-only complex array, shape
        (dim_out * dim_in, dim_out * dim_in); for a channel built from Kraus
        operators, sum_k vec(K_k) vec(K_k)^dag, computed on first access."""
        if self._choi is None:
            vecs = self._kraus.reshape(self._kraus.shape[0], -1)
            choi = vecs.T @ vecs.conj()
            choi.setflags(write=False)
            self._choi = choi
        return self._choi

    def __repr__(self) -> str:
        return f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out})"


def _blocks(channel: QuantumChannel) -> np.ndarray:
    """The Choi matrix as a view J[a, i, b, j] = E(|i><j|)[a, b]."""
    d_in, d_out = channel.dim_in, channel.dim_out
    return channel.choi.reshape(d_out, d_in, d_out, d_in)


def _tp_residual(channel: QuantumChannel) -> float:
    """Max-abs deviation from the identity of the Choi matrix's partial trace
    over the output, tr E(|i><j|) = sum_k K_k^dag K_k."""
    return _max_abs(np.einsum("aiaj->ij", _blocks(channel)) - _identity(channel.dim_in))


def _unital_residual(channel: QuantumChannel) -> float:
    """Max-abs deviation from the identity of the Choi matrix's partial trace
    over the input, E(I)."""
    return _max_abs(np.einsum("aibi->ab", _blocks(channel)) - _identity(channel.dim_out))


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity as a read-only array shared by every caller."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def images(channel: QuantumChannel, matrices: np.ndarray) -> np.ndarray:
    """E(X)[a, b] = sum_ij J[(a, i), (b, j)] X[i, j] for one matrix or a
    stack of them along the leading axis."""
    if matrices.shape[-2:] != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch(
            f"operator shape {matrices.shape[-2:]} != channel input dim {channel.dim_in}"
        )
    lead = matrices.shape[:-2]
    flat = matrices.reshape(*lead, -1) @ _superoperator(channel).T
    return flat.reshape(*lead, channel.dim_out, channel.dim_out)


def _adjoint_images(channel: QuantumChannel, matrices: np.ndarray) -> np.ndarray:
    """E^dag(Y)[i, j] = sum_ab conj(J[(a, i), (b, j)]) Y[a, b] for one matrix
    or a stack of them along the leading axis."""
    lead = matrices.shape[:-2]
    flat = matrices.reshape(*lead, -1).conj() @ _superoperator(channel)
    return flat.conj().reshape(*lead, channel.dim_in, channel.dim_in)


def _superoperator(channel: QuantumChannel) -> np.ndarray:
    """Natural representation S[(a, b), (i, j)] = J[(a, i), (b, j)], which maps
    the row-major vec(X) to vec(E(X))."""
    d_in, d_out = channel.dim_in, channel.dim_out
    return _blocks(channel).transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel applying `first` then `second`: the product of their
    superoperators, reshuffled back to a Choi matrix."""
    if second.dim_in != first.dim_out:
        raise DimensionMismatch(
            f"cannot compose: inner dims {second.dim_in} and {first.dim_out} differ"
        )
    d_in, d_out = first.dim_in, second.dim_out
    product = _superoperator(second) @ _superoperator(first)
    choi = product.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3)
    return QuantumChannel._from_choi(choi.reshape(d_out * d_in, d_out * d_in), d_in, d_out)


def unitary_channel(unitary) -> QuantumChannel:
    return QuantumChannel([unitary])


def dephasing_channel(dim: int) -> QuantumChannel:
    """Kraus set {|i><i|}, the basis-measurement stack: zeroes every
    off-diagonal entry of its input."""
    return QuantumChannel(basis_measurement(dim).stack)


def adjoint_channel(channel: QuantumChannel) -> QuantumChannel:
    """The Heisenberg-picture map E^dag as a channel (Kraus set {K^dag}):
    Choi entries J'[(i, a), (j, b)] = conj(J[(a, i), (b, j)]). Trace
    preserving iff the input is unital."""
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch("adjoint channel requires a square channel")
    d = channel.dim_in
    residual = _unital_residual(channel)
    if not residual <= TP_TOL:
        raise NotUnital(f"channel is not unital: E(I) deviates from identity by {residual:.3e}")
    choi = _blocks(channel).conj().transpose(1, 0, 3, 2).reshape(d * d, d * d)
    return QuantumChannel._from_choi(choi, d, d)


@dataclass(frozen=True)
class ChannelClass:
    """Membership flags for the standard channel classes.

    dio, mio and unital are reported False for non-square channels, where
    the defining equations do not apply.
    """

    cptp: bool
    unital: bool
    dio: bool
    mio: bool


def is_unital(channel: QuantumChannel) -> bool:
    """E(I) = I: the Choi matrix's partial trace over the input. False for a
    non-square channel."""
    if channel.dim_in != channel.dim_out:
        return False
    return _unital_residual(channel) <= CHANNEL_EQ_TOL


def is_dio(channel: QuantumChannel) -> bool:
    """Detection incoherence, dephase . E = dephase . E . dephase: E(|i><j|)
    has a zero diagonal for i != j, so J[(a, i), (a, j)] = 0. False for a
    non-square channel."""
    if channel.dim_in != channel.dim_out:
        return False
    off = ~np.eye(channel.dim_in, dtype=bool)
    return _max_abs(np.einsum("aiaj->aij", _blocks(channel))[:, off]) <= CHANNEL_EQ_TOL


def classify_channel(channel: QuantumChannel) -> ChannelClass:
    """Read the class flags off the Choi matrix J[(a, i), (b, j)] = E(|i><j|)[a, b].

    Trace preservation and unitality are its two partial traces, complete
    positivity its lowest eigenvalue; `is_dio` and `is_unital` give one flag
    each without that eigendecomposition. Preservation of incoherent states
    means E(|i><i|) is diagonal, so J[(a, i), (b, i)] = 0 for a != b.
    """
    tp_ok = _tp_residual(channel) <= CHANNEL_EQ_TOL
    cptp = tp_ok and bool(np.linalg.eigvalsh(channel.choi)[0] >= -PSD_TOL)

    if channel.dim_in != channel.dim_out:
        return ChannelClass(cptp=cptp, unital=False, dio=False, mio=False)

    off = ~np.eye(channel.dim_in, dtype=bool)
    mio = _max_abs(np.einsum("aibi->abi", _blocks(channel))[off]) <= CHANNEL_EQ_TOL
    return ChannelClass(cptp=cptp, unital=is_unital(channel), dio=is_dio(channel), mio=mio)


class Povm:
    """Finite POVM: PSD elements summing to the identity.

    The elements are held as one read-only complex (n, d, d) stack, so
    instances are immutable. The public constructor validates its input in
    full (shape, Hermiticity, finiteness, positivity from one batched
    `eigvalsh`, completeness). A POVM the library computes from valid ones
    (a pull-back, a post-processing, a product, a mixture, a padding) is
    held by `_from_valid` without any check.
    """

    __slots__ = ("_stack",)

    def __init__(self, elements) -> None:
        if len(elements) == 0:
            raise InvalidPovm("a POVM needs at least one element")
        stack = as_array(elements, 3, "POVM elements")
        if stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"POVM elements must be square, got {stack.shape[1:]}")
        check_hermitian(stack, "POVM elements")
        check_psd_spectra(np.linalg.eigvalsh(stack), "element", InvalidPovm)
        residual = _max_abs(stack.sum(axis=0) - _identity(stack.shape[1]))
        if residual > COMPLETENESS_TOL:
            raise InvalidPovm(f"elements sum to identity only within {residual:.3e}")
        stack.setflags(write=False)
        self._stack = stack

    @classmethod
    def _from_valid(cls, stack: np.ndarray) -> "Povm":
        """Hold a new complex (n, d, d) stack that is a POVM by construction,
        such as the image of valid POVMs under a map that keeps them valid,
        made read-only in place, with no check."""
        povm = cls.__new__(cls)
        stack.setflags(write=False)
        povm._stack = stack
        return povm

    @property
    def stack(self) -> np.ndarray:
        """The elements M_x as one read-only complex array, shape (n, d, d)."""
        return self._stack

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self._stack.shape[0]

    def __repr__(self) -> str:
        return f"Povm(dim={self.dim}, n={self.n})"


class StochasticMatrix:
    """Column-stochastic conditional distribution p(x|i).

    Rows index outcomes x, columns index inputs i; every column sums to one
    within STOCHASTIC_TOL. Entries down to -STOCHASTIC_TOL are clamped to
    zero (eigenvalue noise from PSD diagonals), anything lower is rejected.
    A matrix that is column stochastic by construction, such as a Dirichlet
    draw, is held by `_from_valid` without any check.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = as_array(entries, 2, "stochastic matrix", float)
        require_finite(arr, "stochastic matrix")
        if float(arr.min(initial=0.0)) < -STOCHASTIC_TOL:
            raise InvalidStochasticMatrix(f"negative entry {arr.min():.3e}")
        arr = np.clip(arr, 0.0, None)
        col_dev = _max_abs(arr.sum(axis=0) - 1.0)
        if col_dev > STOCHASTIC_TOL:
            raise InvalidStochasticMatrix(f"column sums deviate from 1 by {col_dev:.3e}")
        arr.setflags(write=False)
        self._entries = arr

    @classmethod
    def _from_valid(cls, entries: np.ndarray) -> "StochasticMatrix":
        """Hold a new C-contiguous float (rows, cols) array that is column
        stochastic by construction, made read-only in place, with no check."""
        matrix = cls.__new__(cls)
        entries.setflags(write=False)
        matrix._entries = entries
        return matrix

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def rows(self) -> int:
        return self._entries.shape[0]

    @property
    def cols(self) -> int:
        return self._entries.shape[1]

    def __repr__(self) -> str:
        return f"StochasticMatrix(rows={self.rows}, cols={self.cols})"


@functools.cache
def basis_measurement(dim: int) -> Povm:
    """The incoherent-basis measurement {|i><i|}, one immutable instance per
    dimension shared by every caller."""
    stack = np.zeros((dim, dim, dim), dtype=complex)
    stack[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    return Povm(stack)


def measurement_as_channel(povm: Povm) -> QuantumChannel:
    """The channel rho -> sum_x tr(M_x rho) |x><x| with classical outputs.

    Kraus operators are {|x><phi_xk| sqrt(lambda_xk)} from the element
    eigendecompositions; output dimension equals the outcome count, and the
    output is always diagonal.
    """
    eig, vec = np.linalg.eigh(povm.stack)
    x, k = np.nonzero(eig > EIG_CLIP)  # x-major, ascending eigenvalue within x
    kraus = np.zeros((x.size, povm.n, povm.dim), dtype=complex)
    kraus[np.arange(x.size), x, :] = np.sqrt(eig[x, k])[:, None] * vec[x, :, k].conj()
    return QuantumChannel._from_kraus(kraus)


def classical_postprocess(povm: Povm, post: StochasticMatrix) -> Povm:
    """Relabel outcomes: M'_y = sum_x p(y|x) M_x."""
    if post.cols != povm.n:
        raise DimensionMismatch(
            f"post-processing expects {post.cols} outcomes, POVM has {povm.n}"
        )
    return Povm._from_valid(np.einsum("yx,xij->yij", post.entries, povm.stack))


def pullback_povm(channel: QuantumChannel, povm: Povm) -> Povm:
    """POVM of the measurement `povm` preceded by `channel`: {E^dag(M_x)}."""
    if povm.dim != channel.dim_out:
        raise DimensionMismatch(
            f"POVM dim {povm.dim} != channel output dim {channel.dim_out}"
        )
    return Povm._from_valid(_adjoint_images(channel, povm.stack))


def pulled_back_basis(channel: QuantumChannel) -> Povm:
    """The incoherent-basis measurement pulled back through the channel,
    {E^dag(|a><a|)}, the same POVM as
    `pullback_povm(channel, basis_measurement(channel.dim_out))`:
    E^dag(|a><a|)[i, j] = conj(J[(a, i), (a, j)]), a conjugated diagonal
    block of the Choi matrix."""
    return Povm._from_valid(np.einsum("aiaj->aij", _blocks(channel)).conj())


def tensor_povm(a: Povm, b: Povm) -> Povm:
    """Product measurement {M_x (x) N_y}, x-major outcome ordering."""
    n, d = a.n * b.n, a.dim * b.dim
    return Povm._from_valid(kron_stacks(a.stack, b.stack).reshape(n, d, d))


def kron_stacks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of every pair (a[x], b[y]) as one broadcast product, indexed
    [x, y, row, col] with x-major pairs; the same products as np.kron,
    which einsum's complex multiply does not round identically to."""
    n_a, d_a, _ = a.shape
    n_b, d_b, _ = b.shape
    pairs = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return pairs.reshape(n_a, n_b, d_a * d_b, d_a * d_b)


def mix_povm(a: Povm, b: Povm, p: float) -> Povm:
    """Outcome-wise convex mixture {p M_x + (1-p) N_x}."""
    if a.dim != b.dim or a.n != b.n:
        raise DimensionMismatch("mixture requires POVMs of equal dim and outcome count")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight {p} outside [0, 1]")
    return Povm._from_valid(p * a.stack + (1.0 - p) * b.stack)


def pad_povm(povm: Povm, n_total: int) -> Povm:
    """Append zero elements (zero-probability outcomes) up to n_total."""
    if n_total < povm.n:
        raise DimensionMismatch(f"cannot pad {povm.n} outcomes down to {n_total}")
    zeros = np.zeros((n_total - povm.n, povm.dim, povm.dim))
    return Povm._from_valid(np.concatenate((povm.stack, zeros)))
