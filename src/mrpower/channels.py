"""Quantum channels, POVMs, stochastic post-processing, and channel-class
predicates.

A channel is its stack of Kraus operators, and every operation on channels
works on that stack with batched matrix products: images E(X) = sum_k
K_k X K_k^dag, pull-backs E^dag(Y) = sum_k K_k^dag Y K_k, composition (every
product K2_j K1_k), adjoints ({K_k^dag}) and the class predicates. The
stack is read-only, so instances are immutable. The class predicates compare
sums of Kraus products with the identity or zero within CHANNEL_EQ_TOL.

Channels, POVMs and stochastic matrices are validated where they enter:
from a file, from `unitary_channel`, or from user code calling the public
constructors. What the library derives from valid objects is valid by
construction and is not checked again:
- a POVM computed from valid ones (a pull-back through a channel, a
  classical post-processing, a product, a mixture, a padding);
- a channel held through `QuantumChannel._from_kraus`: composites, adjoints,
  both kinds of `random_channel` and of `random_dio`, and
  `measurement_as_channel`, which also builds `conversion_channel` and
  `measurement_as_square_channel`;
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
    as_array,
    check_hermitian,
    check_psd_spectra,
    require_finite,
)

TP_TOL = 1e-9           # max-abs deviation of sum_k K_k^dag K_k from I
COMPLETENESS_TOL = 1e-9  # max-abs deviation of sum_x M_x from I
CHANNEL_EQ_TOL = 1e-9    # max-abs deviation the class predicates allow
STOCHASTIC_TOL = 1e-10   # column-sum deviation allowed in p(x|i)


class QuantumChannel:
    """Completely positive trace-preserving map, held as its Kraus operators.

    Complete positivity is automatic for any Kraus list, so construction
    validates finiteness and trace preservation only, the latter on the
    dim_in x dim_in Gram matrix sum_k K_k^dag K_k. A channel the library
    derives from valid inputs is held by `_from_kraus` without any check.
    """

    __slots__ = ("_kraus",)

    def __init__(self, kraus) -> None:
        arr = as_array(kraus, 3, "Kraus operators")
        require_finite(arr, "Kraus operators")
        # finite entries can overflow the Gram matrix to inf and NaN, which
        # the comparison below rejects without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            residual = _identity_residual(arr)
        if not residual <= TP_TOL:
            raise NotTracePreserving(
                f"sum of K^dag K deviates from identity by {residual:.3e}"
            )
        arr.setflags(write=False)
        self._kraus = arr

    @classmethod
    def _from_kraus(cls, kraus: np.ndarray) -> "QuantumChannel":
        """Hold a new C-contiguous complex (rank, dim_out, dim_in) stack of
        Kraus operators of a map already known to be trace preserving, made
        read-only in place, with no check."""
        channel = cls.__new__(cls)
        kraus.setflags(write=False)
        channel._kraus = kraus
        return channel

    @property
    def kraus(self) -> np.ndarray:
        """Stacked Kraus operators, shape (rank, dim_out, dim_in)."""
        return self._kraus

    @property
    def dim_in(self) -> int:
        return self._kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self._kraus.shape[1]

    def __repr__(self) -> str:
        return f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out})"


def _identity_residual(ops: np.ndarray) -> float:
    """Max-abs deviation of sum_k A_k^dag A_k from the identity for an
    (r, p, q) stack A, from its rows side by side: trace preservation for a
    Kraus stack, unitality E(I) = sum_k K_k K_k^dag = I for its daggers."""
    rows = ops.reshape(-1, ops.shape[2])
    return _max_abs(rows.conj().T @ rows - _identity(ops.shape[2]))


def _daggers(ops: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each operator of an (r, p, q) stack."""
    return ops.conj().swapaxes(1, 2)


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity as a read-only array shared by every caller."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _conjugations(ops: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """sum_k A_k^dag Y A_k for the (r, p, q) stack A and each p x p matrix Y
    of a stack along the leading axes: one product of every Y row with the
    operators side by side, then one with their conjugate columns."""
    r, p, q = ops.shape
    lead = matrices.shape[:-2]
    side = ops.transpose(1, 0, 2).reshape(p, r * q)  # [a, (k, j)] = A_k[a, j]
    # Y A_k for each Y, with rows (a, k)
    products = (matrices.reshape(-1, p) @ side).reshape(-1, p * r, q)
    return (side.reshape(p * r, q).conj().T @ products).reshape(*lead, q, q)


def _row_grams(ops: np.ndarray) -> np.ndarray:
    """sum_k A_k^dag |a><a| A_k for each row a of the (r, p, q) stack A,
    shape (p, q, q): the Gram matrix of the a-th rows of the operators."""
    rows = ops.transpose(1, 0, 2)
    return rows.conj().swapaxes(1, 2) @ rows


def images(channel: QuantumChannel, matrices: np.ndarray) -> np.ndarray:
    """E(X) = sum_k K_k X K_k^dag for one matrix or a stack of them along the
    leading axis."""
    if matrices.shape[-2:] != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch(
            f"operator shape {matrices.shape[-2:]} != channel input dim {channel.dim_in}"
        )
    return _conjugations(_daggers(channel.kraus), matrices)


def basis_images(channel: QuantumChannel) -> np.ndarray:
    """The images E(|i><i|) = sum_k K_k |i><i| K_k^dag of the incoherent basis
    states, shape (dim_in, dim_out, dim_out): the same matrices as
    `images(channel, basis_measurement(channel.dim_in).stack)`, from the
    Gram matrices of the columns of the Kraus operators."""
    return _row_grams(_daggers(channel.kraus))


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel applying `first` then `second`: the Kraus set of every product
    K2_j K1_k, j-major."""
    if second.dim_in != first.dim_out:
        raise DimensionMismatch(
            f"cannot compose: inner dims {second.dim_in} and {first.dim_out} differ"
        )
    products = second.kraus[:, None] @ first.kraus[None]
    return QuantumChannel._from_kraus(products.reshape(-1, second.dim_out, first.dim_in))


def unitary_channel(unitary) -> QuantumChannel:
    return QuantumChannel([unitary])


def dephasing_channel(dim: int) -> QuantumChannel:
    """Kraus set {|i><i|}, the basis-measurement stack: zeroes every
    off-diagonal entry of its input."""
    return QuantumChannel(basis_measurement(dim).stack)


def adjoint_channel(channel: QuantumChannel) -> QuantumChannel:
    """The Heisenberg-picture map E^dag as a channel, Kraus set {K^dag}.
    Trace preserving iff the input is unital."""
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch("adjoint channel requires a square channel")
    residual = _identity_residual(_daggers(channel.kraus))
    if not residual <= TP_TOL:
        raise NotUnital(f"channel is not unital: E(I) deviates from identity by {residual:.3e}")
    return QuantumChannel._from_kraus(np.ascontiguousarray(_daggers(channel.kraus)))


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
    """E(I) = sum_k K_k K_k^dag = I. False for a non-square channel."""
    if channel.dim_in != channel.dim_out:
        return False
    return _identity_residual(_daggers(channel.kraus)) <= CHANNEL_EQ_TOL


def is_dio(channel: QuantumChannel) -> bool:
    """Detection incoherence, dephase . E = dephase . E . dephase: E(|i><j|)
    has a zero diagonal for i != j, so every pulled-back basis element
    E^dag(|a><a|) is diagonal. False for a non-square channel."""
    if channel.dim_in != channel.dim_out:
        return False
    return _off_diagonal(_row_grams(channel.kraus)) <= CHANNEL_EQ_TOL


def _off_diagonal(stack: np.ndarray) -> float:
    """The largest absolute off-diagonal entry of a stack of square matrices."""
    return _max_abs(stack[:, ~np.eye(stack.shape[1], dtype=bool)])


def classify_channel(channel: QuantumChannel) -> ChannelClass:
    """Read the class flags off the Kraus set.

    Complete positivity is automatic for a Kraus set, so `cptp` is trace
    preservation, sum_k K_k^dag K_k = I. Unitality and detection
    incoherence are `is_unital` and `is_dio`. Preservation of incoherent
    states means every basis image E(|i><i|) is diagonal.
    """
    cptp = _identity_residual(channel.kraus) <= CHANNEL_EQ_TOL
    if channel.dim_in != channel.dim_out:
        return ChannelClass(cptp=cptp, unital=False, dio=False, mio=False)
    mio = _off_diagonal(basis_images(channel)) <= CHANNEL_EQ_TOL
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
    return Povm._from_valid(_conjugations(channel.kraus, povm.stack))


def pulled_back_basis(channel: QuantumChannel) -> Povm:
    """The incoherent-basis measurement pulled back through the channel,
    {E^dag(|a><a|)}, the same POVM as
    `pullback_povm(channel, basis_measurement(channel.dim_out))`:
    E^dag(|a><a|) = sum_k K_k[a, :]^dag K_k[a, :], the Gram matrix of the
    a-th rows of the Kraus operators."""
    return Povm._from_valid(_row_grams(channel.kraus))


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
