import numpy as np
import pytest

import mrpower as mp
import reference as ref
from mrpower.errors import (
    DimensionMismatch,
    InvalidPovm,
    InvalidStochasticMatrix,
    NonFiniteEntry,
    NotHermitian,
    NotTracePreserving,
    NotUnital,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_channel_any(d, rng):
    rank = int(rng.gen.integers(1, d * d + 1))
    return mp.random_channel(d, rank, "general", rng)


class TestConstruction:
    def test_identity_kraus(self):
        channel = mp.QuantumChannel([np.eye(2)])
        assert (channel.dim_in, channel.dim_out) == (2, 2)

    def test_dephasing_kraus_pair_acts_as_dephase(self):
        channel = mp.QuantumChannel(
            [mp.basis_projector(0, 2).matrix, mp.basis_projector(1, 2).matrix]
        )
        rng = mp.SeededRng(201)
        rho = mp.HermitianOperator(mp.random_density(2, rng))
        np.testing.assert_allclose(
            channel.apply(rho).matrix, ref.dephase(rho).matrix, atol=1e-12
        )

    def test_not_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            mp.QuantumChannel([0.5 * np.eye(2)])

    def test_choi_matches_definition(self):
        # choi = sum_ij E(|i><j|) (x) |i><j|, built entry by entry
        rng = mp.SeededRng(202)
        channel = random_channel_any(3, rng)
        d = 3
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                image = sum(k @ unit @ k.conj().T for k in channel.kraus)
                basis = np.zeros((d, d), dtype=complex)
                basis[i, j] = 1.0
                expected += np.kron(image, basis)
        np.testing.assert_allclose(channel.choi, expected, atol=1e-12)


class TestApplyAndAdjoint:
    def test_identity_channel(self):
        rng = mp.SeededRng(203)
        x = mp.HermitianOperator(mp.random_hermitian(3, rng))
        channel = ref.identity_channel(3)
        np.testing.assert_allclose(channel.apply(x).matrix, x.matrix)
        np.testing.assert_allclose(channel.adjoint_apply(x).matrix, x.matrix)

    def test_dephasing_on_plus(self):
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = mp.dephasing_channel(2).apply(plus)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = mp.SeededRng(204)
        for i in range(20):
            channel = random_channel_any(3, rng.spawn(2 * i))
            rho = mp.HermitianOperator(mp.random_density(3, rng.spawn(2 * i + 1)))
            out = channel.apply(rho)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_unitary_adjoint(self):
        channel = mp.unitary_channel(HADAMARD)
        x = mp.basis_projector(0, 2)
        np.testing.assert_allclose(
            channel.adjoint_apply(x).matrix,
            HADAMARD.conj().T @ x.matrix @ HADAMARD,
            atol=1e-12,
        )

    def test_adjoint_is_unital(self):
        rng = mp.SeededRng(205)
        for i in range(50):
            channel = random_channel_any(3, rng.spawn(i))
            out = channel.adjoint_apply(ref.identity(3))
            np.testing.assert_allclose(out.matrix, np.eye(3), atol=1e-9)

    def test_adjoint_duality_pairing(self):
        # tr(X E(Y)) = tr(E^dag(X) Y)
        rng = mp.SeededRng(206)
        for i in range(30):
            channel = random_channel_any(3, rng.spawn(3 * i))
            x = mp.HermitianOperator(mp.random_hermitian(3, rng.spawn(3 * i + 1)))
            y = mp.HermitianOperator(mp.random_hermitian(3, rng.spawn(3 * i + 2)))
            lhs = np.trace(x.matrix @ channel.apply(y).matrix)
            rhs = np.trace(channel.adjoint_apply(x).matrix @ y.matrix)
            assert lhs.real == pytest.approx(rhs.real, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ref.identity_channel(2).apply(ref.identity(3))


class TestCompose:
    def test_identity_is_neutral(self):
        rng = mp.SeededRng(207)
        channel = random_channel_any(2, rng)
        composed = mp.compose(ref.identity_channel(2), channel)
        assert ref.choi_distance(composed, channel) <= 1e-10

    def test_dephasing_idempotent(self):
        delta = mp.dephasing_channel(3)
        assert ref.channels_equal(mp.compose(delta, delta), delta)

    def test_matches_sequential_application(self):
        rng = mp.SeededRng(208)
        for i in range(10):
            first = random_channel_any(2, rng.spawn(3 * i))
            second = random_channel_any(2, rng.spawn(3 * i + 1))
            rho = mp.HermitianOperator(mp.random_density(2, rng.spawn(3 * i + 2)))
            lhs = mp.compose(second, first).apply(rho)
            rhs = second.apply(first.apply(rho))
            np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-11)

    def test_inner_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            mp.compose(ref.identity_channel(3), ref.identity_channel(2))


class TestExtendWithIdentity:
    """The Kraus-kron extension in `reference`, which the conversion and
    composite references are built on."""

    def test_extended_identity(self):
        extended = ref.extend_with_identity(ref.identity_channel(2), 3)
        assert ref.channels_equal(extended, ref.identity_channel(6))

    def test_acts_locally(self):
        rng = mp.SeededRng(209)
        channel = random_channel_any(2, rng.spawn(0))
        x = mp.HermitianOperator(mp.random_psd(2, rng.spawn(1)))
        y = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2)))
        extended = ref.extend_with_identity(channel, 3)
        lhs = extended.apply(ref.tensor_product(x, y))
        rhs = ref.tensor_product(channel.apply(x), y)
        np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-11)


class TestClassify:
    def test_dephasing_is_free_everywhere(self):
        flags = mp.classify_channel(mp.dephasing_channel(2))
        assert flags == mp.ChannelClass(cptp=True, unital=True, dio=True, mio=True)

    def test_hadamard_is_coherent(self):
        flags = mp.classify_channel(mp.unitary_channel(HADAMARD))
        assert flags.cptp and flags.unital
        assert not flags.dio and not flags.mio

    def test_post_dephasing_composites_are_dio(self):
        rng = mp.SeededRng(212)
        for i in range(20):
            channel = mp.compose(random_channel_any(2, rng.spawn(i)), mp.dephasing_channel(2))
            assert mp.classify_channel(channel).dio


class TestMeasurementAsChannel:
    def test_basis_measurement_equals_dephasing(self):
        rng = mp.SeededRng(213)
        channel = mp.measurement_as_channel(mp.basis_measurement(3))
        for i in range(10):
            rho = mp.HermitianOperator(mp.random_density(3, rng.spawn(i)))
            np.testing.assert_allclose(
                channel.apply(rho).matrix, ref.dephase(rho).matrix, atol=1e-12
            )

    def test_trivial_measurement(self):
        povm = mp.Povm([np.eye(2) / 2, np.eye(2) / 2])
        channel = mp.measurement_as_channel(povm)
        rng = mp.SeededRng(214)
        rho = mp.HermitianOperator(mp.random_density(2, rng))
        np.testing.assert_allclose(channel.apply(rho).matrix, np.eye(2) / 2, atol=1e-12)

    def test_output_always_diagonal(self):
        rng = mp.SeededRng(215)
        for i in range(10):
            povm = mp.random_povm(3, 4, False, rng.spawn(2 * i))
            channel = mp.measurement_as_channel(povm)
            rho = mp.HermitianOperator(mp.random_density(3, rng.spawn(2 * i + 1)))
            out = channel.apply(rho)
            np.testing.assert_allclose(out.matrix, ref.dephase(out).matrix, atol=1e-12)

    def test_outcome_probabilities(self):
        rng = mp.SeededRng(216)
        povm = mp.random_povm(2, 3, False, rng.spawn(0))
        channel = mp.measurement_as_channel(povm)
        rho = mp.HermitianOperator(mp.random_density(2, rng.spawn(1)))
        out = channel.apply(rho)
        for x, el in enumerate(povm.elements):
            expected = np.trace(el.matrix @ rho.matrix).real
            assert out.matrix[x, x].real == pytest.approx(expected, abs=1e-12)


class TestClassicalPostprocess:
    def test_identity_is_neutral(self):
        rng = mp.SeededRng(217)
        povm = mp.random_povm(2, 3, False, rng)
        out = mp.classical_postprocess(povm, mp.StochasticMatrix(np.eye(3)))
        for a, b in zip(out.elements, povm.elements):
            np.testing.assert_allclose(a.matrix, b.matrix)

    def test_merge_all_outcomes(self):
        rng = mp.SeededRng(218)
        povm = mp.random_povm(2, 3, False, rng)
        merged = mp.classical_postprocess(povm, mp.StochasticMatrix(np.ones((1, 3))))
        assert merged.n == 1
        np.testing.assert_allclose(merged.elements[0].matrix, np.eye(2), atol=1e-9)

    def test_completeness_preserved(self):
        rng = mp.SeededRng(219)
        for i in range(20):
            povm = mp.random_povm(3, 4, False, rng.spawn(3 * i))
            post = mp.random_stochastic_matrix(
                int(rng.spawn(3 * i + 1).gen.integers(2, 6)), 4, rng.spawn(3 * i + 2)
            )
            merged = mp.classical_postprocess(povm, post)
            total = sum(el.matrix for el in merged.elements)
            np.testing.assert_allclose(total, np.eye(3), atol=1e-9)


class TestPullback:
    def test_identity_channel(self):
        rng = mp.SeededRng(220)
        povm = mp.random_povm(2, 3, False, rng)
        out = mp.pullback_povm(ref.identity_channel(2), povm)
        for a, b in zip(out.elements, povm.elements):
            np.testing.assert_allclose(a.matrix, b.matrix)

    def test_hadamard_pullback_of_basis(self):
        pulled = mp.pullback_povm(mp.unitary_channel(HADAMARD), mp.basis_measurement(2))
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        minus = ref.projector(np.array([1.0, -1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(pulled.elements[0].matrix, plus.matrix, atol=1e-12)
        np.testing.assert_allclose(pulled.elements[1].matrix, minus.matrix, atol=1e-12)

    def test_defining_property(self):
        # tr(E^dag(M_x) rho) = tr(M_x E(rho))
        rng = mp.SeededRng(221)
        for i in range(20):
            channel = random_channel_any(2, rng.spawn(3 * i))
            povm = mp.random_povm(2, 3, False, rng.spawn(3 * i + 1))
            rho = mp.HermitianOperator(mp.random_density(2, rng.spawn(3 * i + 2)))
            pulled = mp.pullback_povm(channel, povm)
            for mx, px in zip(povm.elements, pulled.elements):
                lhs = np.trace(px.matrix @ rho.matrix).real
                rhs = np.trace(mx.matrix @ channel.apply(rho).matrix).real
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestIncoherentProbabilityLaw:
    def test_outcomes_ignore_coherences(self):
        rng = mp.SeededRng(224)
        for i in range(30):
            povm = mp.random_povm(3, 4, True, rng.spawn(2 * i))
            rho = mp.HermitianOperator(mp.random_density(3, rng.spawn(2 * i + 1)))
            for el in povm.elements:
                p_full = np.trace(el.matrix @ rho.matrix).real
                p_dephased = np.trace(el.matrix @ ref.dephase(rho).matrix).real
                assert p_full == pytest.approx(p_dephased, abs=1e-10)


class TestDioClosure:
    def test_pullback_preserves_incoherence(self):
        rng = mp.SeededRng(225)
        for i in range(100):
            unital = bool(rng.spawn(3 * i).gen.integers(0, 2))
            channel = mp.random_dio(2, unital, rng.spawn(3 * i + 1))
            povm = mp.random_povm(2, 3, True, rng.spawn(3 * i + 2))
            pulled = mp.pullback_povm(channel, povm)
            assert mp.is_incoherent_measurement(pulled, 1e-9)


class TestValidation:
    def test_povm_requires_psd_elements(self):
        with pytest.raises(InvalidPovm):
            mp.Povm([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])

    def test_povm_requires_completeness(self):
        with pytest.raises(InvalidPovm):
            mp.Povm([np.eye(2) / 2, np.eye(2) / 4])

    def test_stochastic_rejects_negative(self):
        with pytest.raises(InvalidStochasticMatrix):
            mp.StochasticMatrix([[1.2], [-0.2]])

    def test_stochastic_rejects_bad_columns(self):
        with pytest.raises(InvalidStochasticMatrix):
            mp.StochasticMatrix([[0.5], [0.4]])

    def test_adjoint_channel_requires_unital(self):
        prep = mp.example_channels()["prep"]
        with pytest.raises(NotUnital):
            mp.adjoint_channel(prep)

    def test_pad_povm(self):
        rng = mp.SeededRng(226)
        povm = mp.random_povm(3, 2, False, rng)
        padded = mp.pad_povm(povm, 3)
        assert padded.n == 3
        np.testing.assert_allclose(padded.elements[2].matrix, np.zeros((3, 3)))


INVALID_KRAUS = [
    ("ragged", [np.eye(2), np.eye(3)], DimensionMismatch),
    ("zero size", [np.zeros((2, 0))], DimensionMismatch),
    ("empty", [], DimensionMismatch),
    ("NaN", [[[np.nan, 0.0], [0.0, 1.0]]], NonFiniteEntry),
    ("not trace preserving", [0.5 * np.eye(2)], NotTracePreserving),
]


@pytest.mark.parametrize(
    "kraus, error", [case[1:] for case in INVALID_KRAUS], ids=[case[0] for case in INVALID_KRAUS]
)
def test_channel_rejects_invalid_kraus(kraus, error):
    with pytest.raises(error):
        mp.QuantumChannel(kraus)


INVALID_POVMS = [
    ("empty", [], InvalidPovm),
    ("non-square", [np.ones((2, 3)) / 2, np.ones((2, 3)) / 2], DimensionMismatch),
    ("mixed dims", [np.eye(2), np.zeros((3, 3))], DimensionMismatch),
    ("zero dim", np.zeros((2, 0, 0)), DimensionMismatch),
    ("not Hermitian", [[[0.5, 0.1], [0.0, 0.5]], np.eye(2) / 2], NotHermitian),
    ("NaN off the diagonal", [[[0.5, np.nan], [np.nan, 0.5]], np.eye(2) / 2], NonFiniteEntry),
    ("inf", [np.diag([np.inf, 0.0]), np.diag([0.0, 1.0])], NonFiniteEntry),
    ("not PSD", [np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])], InvalidPovm),
    ("incomplete", [np.eye(2) / 2, np.eye(2) / 4], InvalidPovm),
]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
class TestPovmStack:
    @pytest.mark.parametrize(
        "elements, error",
        [case[1:] for case in INVALID_POVMS],
        ids=[case[0] for case in INVALID_POVMS],
    )
    def test_rejects_invalid_input(self, elements, error):
        with pytest.raises(error):
            mp.Povm(elements)

    @pytest.mark.parametrize(
        "elements, error",
        [case[1:] for case in INVALID_POVMS if case[2] in (NotHermitian, NonFiniteEntry)],
        ids=[c[0] for c in INVALID_POVMS if c[2] in (NotHermitian, NonFiniteEntry)],
    )
    def test_element_errors_are_the_operator_errors(self, elements, error):
        """Checks made once on the stack raise what the per-element
        HermitianOperator check raises."""
        with pytest.raises(error):
            for el in elements:
                mp.HermitianOperator(el)

    def test_names_the_element_that_is_not_psd(self):
        with pytest.raises(InvalidPovm, match="element 1 "):
            mp.Povm([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_spectra_and_elements_agree(self, dim):
        rng = mp.SeededRng(227)
        povm = mp.random_povm(dim, 4, False, rng)
        assert povm.stack.shape == (4, dim, dim) and povm.spectra.shape == (4, dim)
        for x, el in enumerate(povm.elements):
            assert np.array_equal(el.matrix, povm.stack[x])
            assert np.array_equal(np.linalg.eigvalsh(el.matrix), povm.spectra[x])
        assert not povm.stack.flags.writeable and not povm.spectra.flags.writeable

    def test_copies_its_input(self):
        elements = np.array([np.eye(2) / 2, np.eye(2) / 2], dtype=complex)
        povm = mp.Povm(elements)
        elements[0, 0, 0] = 7.0
        assert povm.stack[0, 0, 0] == 0.5

    def test_accepts_operators_and_arrays_alike(self):
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        from_operators = mp.Povm([plus, ref.identity(2).matrix - plus.matrix])
        from_stack = mp.Povm(from_operators.stack)
        assert np.array_equal(from_operators.stack, from_stack.stack)

    def test_tensor_povm_matches_kron_loop(self):
        rng = mp.SeededRng(228)
        a = mp.random_povm(2, 3, False, rng)
        b = mp.random_povm(3, 2, False, rng)
        loop = [np.kron(x.matrix, y.matrix) for x in a.elements for y in b.elements]
        assert np.array_equal(mp.tensor_povm(a, b).stack, np.array(loop))

    def test_measurement_as_channel_matches_element_loop(self):
        rng = mp.SeededRng(229)
        rotation = mp.unitary_channel(mp.haar_unitary(3, rng))
        povm = mp.pad_povm(mp.pullback_povm(rotation, mp.basis_measurement(3)), 4)
        kraus = []
        for x, el in enumerate(povm.elements):
            eig, vec = np.linalg.eigh(el.matrix)
            for k in np.flatnonzero(eig > 1e-12):
                op = np.zeros((4, 3), dtype=complex)
                op[x] = np.sqrt(eig[k]) * vec[:, k].conj()
                kraus.append(op)
        assert np.array_equal(mp.measurement_as_channel(povm).kraus, np.array(kraus))


def kraus_choi(kraus):
    """sum_k vec(K_k) vec(K_k)^dag, straight from a Kraus list."""
    vecs = np.array([np.asarray(k).reshape(-1) for k in kraus])
    return vecs.T @ vecs.conj()


def oversized_channel(d, count, rng):
    """A channel given by `count` Kraus operators, more than the minimal d^2."""
    isometry = mp.haar_isometry(d * count, d, rng)
    return mp.QuantumChannel([isometry[k * d : (k + 1) * d, :] for k in range(count)])


def kraus_reference_flags(channel, tol=1e-9):
    """Class flags from the Kraus operators and the definitions: images of
    matrix units, sum K^dag K and sum K K^dag."""
    kraus = channel.kraus
    d = channel.dim_in

    def image(i, j):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, j] = 1.0
        return sum(k @ unit @ k.conj().T for k in kraus)

    tp = np.max(np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(d))) <= tol
    unital = np.max(np.abs(sum(k @ k.conj().T for k in kraus) - np.eye(d))) <= tol
    dio = all(
        np.max(np.abs(np.diag(image(i, j)))) <= tol
        for i in range(d) for j in range(d) if i != j
    )
    mio = all(
        np.max(np.abs(image(i, i) - np.diag(np.diag(image(i, i))))) <= tol
        for i in range(d)
    )
    return mp.ChannelClass(cptp=bool(tp), unital=bool(unital), dio=dio, mio=mio)


class TestComposeMatchesKrausProducts:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_pairs(self, dim):
        rng = mp.SeededRng(230 + dim)
        for i in range(10):
            first = random_channel_any(dim, rng.spawn(2 * i))
            second = random_channel_any(dim, rng.spawn(2 * i + 1))
            products = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
            composed = mp.compose(second, first)
            np.testing.assert_allclose(composed.choi, kraus_choi(products), atol=1e-12)

    def test_more_than_4096_products(self):
        rng = mp.SeededRng(234)
        first = oversized_channel(4, 80, rng.spawn(0))
        second = oversized_channel(4, 60, rng.spawn(1))
        products = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
        assert len(products) > 4096
        composed = mp.compose(second, first)
        np.testing.assert_allclose(composed.choi, kraus_choi(products), atol=1e-12)

    def test_non_square_factors(self):
        rng = mp.SeededRng(235)
        first = random_channel_any(3, rng.spawn(0))
        second = mp.measurement_as_channel(mp.random_povm(3, 5, False, rng.spawn(1)))
        composed = mp.compose(second, first)
        assert (composed.dim_in, composed.dim_out) == (3, 5)
        products = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
        np.testing.assert_allclose(composed.choi, kraus_choi(products), atol=1e-12)


class TestLazyKraus:
    def test_given_kraus_are_kept(self):
        rng = mp.SeededRng(236)
        kraus = [np.asarray(k) for k in random_channel_any(3, rng).kraus]
        assert np.array_equal(mp.QuantumChannel(kraus).kraus, np.array(kraus))

    def test_derived_kraus_are_minimal_and_exact(self):
        rng = mp.SeededRng(237)
        first = oversized_channel(3, 20, rng.spawn(0))
        second = oversized_channel(3, 20, rng.spawn(1))
        composed = mp.compose(second, first)
        assert composed.kraus.shape == (9, 3, 3)  # rank of a 9 x 9 Choi matrix
        rebuilt = mp.QuantumChannel(composed.kraus)
        assert ref.choi_distance(rebuilt, composed) <= 1e-12

    def test_derived_kraus_follow_choi_rank(self):
        composed = mp.compose(mp.dephasing_channel(3), mp.dephasing_channel(3))
        assert composed.kraus.shape[0] == 3


class TestChoiAlgebraMatchesKraus:
    def test_mixture(self):
        rng = mp.SeededRng(238)
        a = random_channel_any(3, rng.spawn(0))
        b = random_channel_any(3, rng.spawn(1))
        expected = [np.sqrt(0.3) * k for k in a.kraus] + [np.sqrt(0.7) * k for k in b.kraus]
        mixed = mp.mix_channels(a, b, 0.3)
        np.testing.assert_allclose(mixed.choi, kraus_choi(expected), atol=1e-12)

    def test_adjoint(self):
        rng = mp.SeededRng(239)
        channel = mp.random_channel(3, 4, "unital", rng)
        adjoint = mp.adjoint_channel(channel)
        expected = [k.conj().T for k in channel.kraus]
        np.testing.assert_allclose(adjoint.choi, kraus_choi(expected), atol=1e-12)


class TestClassifyMatchesKrausReference:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_dio(self, dim):
        rng = mp.SeededRng(241 + dim)
        for i in range(10):
            channel = mp.random_dio(dim, False, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert flags.dio
            assert flags == kraus_reference_flags(channel)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unital_dio(self, dim):
        rng = mp.SeededRng(243 + dim)
        for i in range(10):
            channel = mp.random_dio(dim, True, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert flags.dio and flags.unital
            assert flags == kraus_reference_flags(channel)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mio_only(self, dim):
        # dephasing after a Haar unitary: outputs are always diagonal, but
        # the outcome statistics see input coherences
        rng = mp.SeededRng(245 + dim)
        for i in range(10):
            u = mp.haar_unitary(dim, rng.spawn(i))
            channel = mp.QuantumChannel([mp.basis_projector(j, dim).matrix @ u for j in range(dim)])
            flags = mp.classify_channel(channel)
            assert flags.mio and not flags.dio
            assert flags == kraus_reference_flags(channel)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_general(self, dim):
        rng = mp.SeededRng(247 + dim)
        for i in range(10):
            channel = random_channel_any(dim, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert flags.cptp
            assert flags == kraus_reference_flags(channel)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_channel_rejects(self, bad):
        with pytest.raises(NonFiniteEntry):
            mp.QuantumChannel([[[bad, 0.0], [0.0, 1.0]]])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_channel_rejects_finite_entries_that_overflow_the_choi_matrix(self):
        # the Choi entries overflow to +-inf, so its partial trace holds NaN
        with pytest.raises(NotTracePreserving):
            mp.QuantumChannel([[[1e155, 1e155], [1e155, -1e155]]])

    def test_povm_rejects(self):
        with pytest.raises(NonFiniteEntry):
            mp.Povm([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])

    def test_stochastic_matrix_rejects(self):
        with pytest.raises(NonFiniteEntry):
            mp.StochasticMatrix([[np.nan], [1.0]])


# each constructor of a channel: from a Kraus list, and each operation that
# builds the Choi matrix directly, applied to two random channels a and b
CHANNEL_BUILDERS = {
    "kraus": lambda a, b: a,
    "compose": mp.compose,
    "mix_channels": lambda a, b: mp.mix_channels(a, b, 0.3),
    "adjoint_channel": lambda a, b: mp.adjoint_channel(mp.unitary_channel(HADAMARD)),
    "dephased": lambda a, b: mp.dephased(a, "out"),
}


class TestReadOnly:
    @pytest.mark.parametrize("name", list(CHANNEL_BUILDERS))
    def test_choi_and_kraus_cannot_be_written(self, name):
        rng = mp.SeededRng(249)
        channel = CHANNEL_BUILDERS[name](
            random_channel_any(2, rng.spawn(0)), random_channel_any(2, rng.spawn(1))
        )
        for array in (channel.choi, channel.kraus):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 7.0


def composed_channel(d, rng):
    """A channel held only as a Choi matrix: the product of two random ones."""
    return mp.compose(random_channel_any(d, rng.spawn(0)), random_channel_any(d, rng.spawn(1)))


class TestPulledBackBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_pullback_of_basis_measurement(self, dim):
        rng = mp.SeededRng(250 + dim)
        channels = [
            random_channel_any(dim, rng.spawn(0)),
            composed_channel(dim, rng.spawn(1)),
            mp.random_dio(dim, True, rng.spawn(2)),
        ]
        for channel in channels:
            reference = mp.pullback_povm(channel, mp.basis_measurement(dim))
            pulled = mp.pulled_back_basis(channel)
            assert np.array_equal(pulled.stack, reference.stack)
            assert np.array_equal(pulled.spectra, reference.spectra)

    def test_non_square_channel(self):
        rng = mp.SeededRng(254)
        channel = mp.compose(
            mp.measurement_as_channel(mp.random_povm(3, 5, False, rng.spawn(0))),
            random_channel_any(3, rng.spawn(1)),
        )
        reference = mp.pullback_povm(channel, mp.basis_measurement(5))
        assert np.array_equal(mp.pulled_back_basis(channel).stack, reference.stack)


class TestDephased:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_compose_with_dephasing_channel(self, dim):
        rng = mp.SeededRng(255 + dim)
        for channel in (random_channel_any(dim, rng.spawn(0)), composed_channel(dim, rng.spawn(1))):
            after = mp.compose(mp.dephasing_channel(dim), channel)
            before = mp.compose(channel, mp.dephasing_channel(dim))
            assert np.array_equal(mp.dephased(channel, "out").choi, after.choi)
            assert np.array_equal(mp.dephased(channel, "in").choi, before.choi)

    def test_non_square_channel(self):
        rng = mp.SeededRng(259)
        channel = mp.measurement_as_channel(mp.random_povm(3, 5, True, rng))
        after = mp.compose(mp.dephasing_channel(5), channel)
        before = mp.compose(channel, mp.dephasing_channel(3))
        assert np.array_equal(mp.dephased(channel, "out").choi, after.choi)
        assert np.array_equal(mp.dephased(channel, "in").choi, before.choi)

    def test_output_dephasing_leaves_the_pulled_back_basis(self):
        channel = composed_channel(3, mp.SeededRng(260))
        assert np.array_equal(
            mp.pulled_back_basis(mp.dephased(channel, "out")).stack,
            mp.pulled_back_basis(channel).stack,
        )

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            mp.dephased(ref.identity_channel(2), "both")


def class_family(kind, dim, rng):
    if kind == "dio":
        return mp.random_dio(dim, False, rng)
    if kind == "unital_dio":
        return mp.random_dio(dim, True, rng)
    if kind == "mio_only":
        u = mp.haar_unitary(dim, rng)
        return mp.QuantumChannel([mp.basis_projector(j, dim).matrix @ u for j in range(dim)])
    unital = mp.random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    return unital if rng.gen.integers(0, 2) else random_channel_any(dim, rng)


class TestPredicatesMatchClassify:
    @pytest.mark.parametrize("kind", ["dio", "unital_dio", "mio_only", "general"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_families(self, kind, dim):
        rng = mp.SeededRng(261 + dim)
        for i in range(10):
            channel = class_family(kind, dim, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert mp.is_dio(channel) == flags.dio
            assert mp.is_unital(channel) == flags.unital

    def test_non_square_channel_is_in_neither_class(self):
        channel = mp.measurement_as_channel(mp.random_povm(3, 5, True, mp.SeededRng(264)))
        assert not mp.is_dio(channel) and not mp.is_unital(channel)
        flags = mp.classify_channel(channel)
        assert not flags.dio and not flags.unital
