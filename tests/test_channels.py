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
            [ref.basis_projector(0, 2).matrix, ref.basis_projector(1, 2).matrix]
        )
        rng = mp.SeededRng(201)
        rho = mp.HermitianOperator(ref.random_density(2, rng))
        np.testing.assert_allclose(
            mp.images(channel, rho.matrix), ref.dephase(rho).matrix, atol=1e-12
        )

    def test_not_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            mp.QuantumChannel([0.5 * np.eye(2)])

    def test_choi_matches_definition(self):
        # the reference Choi matrix = sum_ij E(|i><j|) (x) |i><j|, built
        # entry by entry
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
        np.testing.assert_allclose(ref.choi(channel), expected, atol=1e-12)


class TestApplyAndAdjoint:
    """E through `images`, and E^dag through `pullback_povm` or, for a
    unital channel, `adjoint_channel`."""

    def test_identity_channel(self):
        rng = mp.SeededRng(203)
        x = ref.random_hermitian(3, rng)
        channel = ref.identity_channel(3)
        np.testing.assert_allclose(mp.images(channel, x), x)
        np.testing.assert_allclose(mp.images(mp.adjoint_channel(channel), x), x)

    def test_dephasing_on_plus(self):
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = mp.images(mp.dephasing_channel(2), plus.matrix)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = mp.SeededRng(204)
        for i in range(20):
            channel = random_channel_any(3, rng.spawn(2 * i))
            rho = ref.random_density(3, rng.spawn(2 * i + 1))
            out = mp.images(channel, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_unitary_adjoint(self):
        channel = mp.unitary_channel(HADAMARD)
        pulled = mp.pullback_povm(channel, mp.basis_measurement(2))
        for x, element in enumerate(mp.basis_measurement(2).stack):
            np.testing.assert_allclose(
                pulled.stack[x], HADAMARD.conj().T @ element @ HADAMARD, atol=1e-12
            )

    def test_adjoint_is_unital(self):
        rng = mp.SeededRng(205)
        for i in range(50):
            channel = random_channel_any(3, rng.spawn(i))
            out = mp.pullback_povm(channel, mp.Povm([np.eye(3)]))
            np.testing.assert_allclose(out.stack[0], np.eye(3), atol=1e-9)

    def test_adjoint_duality_pairing(self):
        # tr(M_x E(Y)) = tr(E^dag(M_x) Y) for each element of a POVM
        rng = mp.SeededRng(206)
        for i in range(30):
            channel = random_channel_any(3, rng.spawn(3 * i))
            povm = mp.random_povm(3, 3, False, rng.spawn(3 * i + 1))
            y = ref.random_hermitian(3, rng.spawn(3 * i + 2))
            image = mp.images(channel, y)
            for x, pulled in zip(povm.stack, mp.pullback_povm(channel, povm).stack):
                lhs = np.trace(x @ image)
                rhs = np.trace(pulled @ y)
                assert lhs.real == pytest.approx(rhs.real, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mp.images(ref.identity_channel(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            mp.pullback_povm(ref.identity_channel(2), mp.basis_measurement(3))


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
            rho = ref.random_density(2, rng.spawn(3 * i + 2))
            lhs = mp.images(mp.compose(second, first), rho)
            rhs = mp.images(second, mp.images(first, rho))
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

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
        x = ref.random_psd(2, rng.spawn(1))
        y = ref.random_psd(3, rng.spawn(2))
        extended = ref.extend_with_identity(channel, 3)
        lhs = mp.images(extended, np.kron(x, y))
        rhs = np.kron(mp.images(channel, x), y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


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
            rho = mp.HermitianOperator(ref.random_density(3, rng.spawn(i)))
            np.testing.assert_allclose(
                mp.images(channel, rho.matrix), ref.dephase(rho).matrix, atol=1e-12
            )

    def test_trivial_measurement(self):
        povm = mp.Povm([np.eye(2) / 2, np.eye(2) / 2])
        channel = mp.measurement_as_channel(povm)
        rng = mp.SeededRng(214)
        rho = ref.random_density(2, rng)
        np.testing.assert_allclose(mp.images(channel, rho), np.eye(2) / 2, atol=1e-12)

    def test_output_always_diagonal(self):
        rng = mp.SeededRng(215)
        for i in range(10):
            povm = mp.random_povm(3, 4, False, rng.spawn(2 * i))
            channel = mp.measurement_as_channel(povm)
            rho = ref.random_density(3, rng.spawn(2 * i + 1))
            out = mp.images(channel, rho)
            np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-12)

    def test_outcome_probabilities(self):
        rng = mp.SeededRng(216)
        povm = mp.random_povm(2, 3, False, rng.spawn(0))
        channel = mp.measurement_as_channel(povm)
        rho = ref.random_density(2, rng.spawn(1))
        out = mp.images(channel, rho)
        for x, el in enumerate(povm.stack):
            expected = np.trace(el @ rho).real
            assert out[x, x].real == pytest.approx(expected, abs=1e-12)


class TestClassicalPostprocess:
    def test_identity_is_neutral(self):
        rng = mp.SeededRng(217)
        povm = mp.random_povm(2, 3, False, rng)
        out = mp.classical_postprocess(povm, mp.StochasticMatrix(np.eye(3)))
        np.testing.assert_allclose(out.stack, povm.stack)

    def test_merge_all_outcomes(self):
        rng = mp.SeededRng(218)
        povm = mp.random_povm(2, 3, False, rng)
        merged = mp.classical_postprocess(povm, mp.StochasticMatrix(np.ones((1, 3))))
        assert merged.n == 1
        np.testing.assert_allclose(merged.stack[0], np.eye(2), atol=1e-9)

    def test_completeness_preserved(self):
        rng = mp.SeededRng(219)
        for i in range(20):
            povm = mp.random_povm(3, 4, False, rng.spawn(3 * i))
            post = mp.random_stochastic_matrix(
                int(rng.spawn(3 * i + 1).gen.integers(2, 6)), 4, rng.spawn(3 * i + 2)
            )
            merged = mp.classical_postprocess(povm, post)
            np.testing.assert_allclose(merged.stack.sum(axis=0), np.eye(3), atol=1e-9)


class TestPullback:
    def test_identity_channel(self):
        rng = mp.SeededRng(220)
        povm = mp.random_povm(2, 3, False, rng)
        out = mp.pullback_povm(ref.identity_channel(2), povm)
        np.testing.assert_allclose(out.stack, povm.stack)

    def test_hadamard_pullback_of_basis(self):
        pulled = mp.pullback_povm(mp.unitary_channel(HADAMARD), mp.basis_measurement(2))
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        minus = ref.projector(np.array([1.0, -1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(pulled.stack[0], plus.matrix, atol=1e-12)
        np.testing.assert_allclose(pulled.stack[1], minus.matrix, atol=1e-12)

    def test_defining_property(self):
        # tr(E^dag(M_x) rho) = tr(M_x E(rho))
        rng = mp.SeededRng(221)
        for i in range(20):
            channel = random_channel_any(2, rng.spawn(3 * i))
            povm = mp.random_povm(2, 3, False, rng.spawn(3 * i + 1))
            rho = ref.random_density(2, rng.spawn(3 * i + 2))
            pulled = mp.pullback_povm(channel, povm)
            for mx, px in zip(povm.stack, pulled.stack):
                lhs = np.trace(px @ rho).real
                rhs = np.trace(mx @ mp.images(channel, rho)).real
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestIncoherentProbabilityLaw:
    def test_outcomes_ignore_coherences(self):
        rng = mp.SeededRng(224)
        for i in range(30):
            povm = mp.random_povm(3, 4, True, rng.spawn(2 * i))
            rho = mp.HermitianOperator(ref.random_density(3, rng.spawn(2 * i + 1)))
            for el in povm.stack:
                p_full = np.trace(el @ rho.matrix).real
                p_dephased = np.trace(el @ ref.dephase(rho).matrix).real
                assert p_full == pytest.approx(p_dephased, abs=1e-10)


class TestDioClosure:
    def test_pullback_preserves_incoherence(self):
        rng = mp.SeededRng(225)
        for i in range(100):
            unital = bool(rng.spawn(3 * i).gen.integers(0, 2))
            channel = mp.random_dio(2, unital, rng.spawn(3 * i + 1))
            povm = mp.random_povm(2, 3, True, rng.spawn(3 * i + 2))
            pulled = mp.pullback_povm(channel, povm)
            assert mp.is_incoherent_measurement(pulled)


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
        np.testing.assert_allclose(padded.stack[2], np.zeros((3, 3)))


INVALID_KRAUS = [
    ("ragged", [np.eye(2), np.eye(3)], DimensionMismatch),
    ("zero size", [np.zeros((2, 0))], DimensionMismatch),
    ("empty", [], DimensionMismatch),
    ("NaN", [[[np.nan, 0.0], [0.0, 1.0]]], NonFiniteEntry),
    ("not trace preserving", [0.5 * np.eye(2)], NotTracePreserving),
    ("ragged operator", [[[1.0, 0.0], [0.0]]], DimensionMismatch),
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
    ("ragged element", [np.eye(2), [[1.0, 0.0], [0.0]]], DimensionMismatch),
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
        assert povm.stack.shape == (4, dim, dim)
        spectra = np.linalg.eigvalsh(povm.stack)
        for x, el in enumerate(povm.stack):
            assert np.array_equal(np.linalg.eigvalsh(el), spectra[x])
        assert not povm.stack.flags.writeable

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
        loop = [np.kron(x, y) for x in a.stack for y in b.stack]
        assert np.array_equal(mp.tensor_povm(a, b).stack, np.array(loop))

    def test_measurement_as_channel_matches_element_loop(self):
        rng = mp.SeededRng(229)
        rotation = mp.unitary_channel(mp.haar_unitary(3, rng))
        povm = mp.pad_povm(mp.pullback_povm(rotation, mp.basis_measurement(3)), 4)
        kraus = []
        for x, el in enumerate(povm.stack):
            eig, vec = np.linalg.eigh(el)
            for k in np.flatnonzero(eig > 1e-12):
                op = np.zeros((4, 3), dtype=complex)
                op[x] = np.sqrt(eig[k]) * vec[:, k].conj()
                kraus.append(op)
        assert np.array_equal(mp.measurement_as_channel(povm).kraus, np.array(kraus))


# every library function that builds a POVM from valid ones without
# re-validating it, as (channel E, rng, d) -> the call
DERIVED_POVM_BUILDERS = {
    "pullback_povm": lambda e, rng, d: mp.pullback_povm(e, mp.random_povm(d, 3, False, rng)),
    "pulled_back_basis": lambda e, rng, d: mp.pulled_back_basis(e),
    "classical_postprocess": lambda e, rng, d: mp.classical_postprocess(
        mp.pulled_back_basis(e), mp.random_stochastic_matrix(3, d, rng)
    ),
    "tensor_povm": lambda e, rng, d: mp.tensor_povm(
        mp.pulled_back_basis(e), mp.random_povm(2, 3, False, rng)
    ),
    "mix_povm": lambda e, rng, d: mp.mix_povm(
        mp.pulled_back_basis(e), mp.random_povm(d, d, False, rng), rng.gen.uniform()
    ),
    "pad_povm": lambda e, rng, d: mp.pad_povm(mp.pulled_back_basis(e), d + 2),
    "random_povm": lambda e, rng, d: mp.random_povm(d, d + 1, False, rng),
    "conversion_channel": lambda e, rng, d: mp.conversion_channel(e),
    "composite_ent_lower_bound": lambda e, rng, d: mp.composite_ent_lower_bound(
        e, mp.random_dio(d * d, False, rng.spawn(1)), mp.random_dio(d * d, True, rng.spawn(2))
    ),
}


@pytest.fixture
def derived_povms(monkeypatch):
    """Every POVM `Povm._from_valid` makes while the test runs, and a count
    of the Hermiticity checks `channels` makes meanwhile."""
    made, checks = [], []
    from_valid = mp.Povm.__dict__["_from_valid"].__func__
    check_hermitian = mp.channels.check_hermitian

    def recording(cls, stack):
        made.append(from_valid(cls, stack))
        return made[-1]

    def counting(*args):
        checks.append(args)
        return check_hermitian(*args)

    monkeypatch.setattr(mp.Povm, "_from_valid", classmethod(recording))
    monkeypatch.setattr(mp.channels, "check_hermitian", counting)
    return made, checks


class TestDerivedPovmsStayValid:
    """The public validator accepts every POVM the library derives without
    checking it, at unchanged tolerances, with the same coherence bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("name", list(DERIVED_POVM_BUILDERS))
    def test_validator_accepts_what_is_derived(self, name, dim, derived_povms):
        made, checks = derived_povms
        for d in {2, dim, dim * dim}:
            mp.basis_measurement(d)  # built once per dimension by the validator
        checks.clear()
        rng = mp.SeededRng(300 + dim)
        for i, rank in enumerate((1, 2, dim * dim)):  # rank-deficient to full Kraus rank
            channel = mp.random_channel(dim, rank, "general", rng.spawn(2 * i))
            DERIVED_POVM_BUILDERS[name](channel, rng.spawn(2 * i + 1), dim)
        assert made and not checks
        for derived in made:
            validated = mp.Povm(derived.stack)
            assert mp.measurement_coherence(validated) == mp.measurement_coherence(derived)


def derived_povm(seed=310):
    rng = mp.SeededRng(seed)
    return mp.pullback_povm(random_channel_any(3, rng.spawn(0)),
                            mp.random_povm(3, 4, False, rng.spawn(1)))


class TestPovmHoldsOnlyItsStack:
    @pytest.mark.parametrize("build", [derived_povm, lambda: mp.Povm(derived_povm().stack)],
                             ids=["derived", "validated"])
    def test_stack_is_all_it_holds_and_read_only(self, build):
        povm = build()
        assert type(povm).__slots__ == ("_stack",)
        assert not hasattr(povm, "spectra") and not hasattr(povm, "eigendecomposition")
        assert povm.stack.tobytes() == derived_povm().stack.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            povm.stack[0, 0, 0] = 7.0

    def test_each_reader_decomposes_on_every_call(self, monkeypatch):
        m, n = derived_povm(311), derived_povm(312)
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for _ in range(2):
            mp.measurement_relative_entropy(m, n)
        assert sorted(calls) == ["eigh", "eigh", "eigvalsh", "eigvalsh"]
        calls.clear()
        for _ in range(2):
            mp.measurement_coherence(n)
            mp.measurement_as_channel(n)
        assert calls == ["eigvalsh", "eigh", "eigvalsh", "eigh"]


# every library path that builds a channel through `QuantumChannel._from_kraus`,
# as (d, Kraus rank, rng) -> the call; a path that takes no rank ignores it
DERIVED_CHANNEL_BUILDERS = {
    "random_channel_general": lambda d, rank, rng: mp.random_channel(d, rank, "general", rng),
    "random_channel_unital": lambda d, rank, rng: mp.random_channel(d, rank, "unital", rng),
    "haar_unitary_channel": lambda d, rank, rng: mp.sampling.random_channels(
        d, [1], "general", [rng])[0],
    "measurement_as_channel": lambda d, rank, rng: mp.measurement_as_channel(
        mp.random_povm(d, d + 1, False, rng)
    ),
    "measurement_as_channel_rank_deficient": lambda d, rank, rng: mp.measurement_as_channel(
        mp.pulled_back_basis(mp.random_channel(d, rank, "general", rng))
    ),
    "measurement_as_square_channel": lambda d, rank, rng: mp.measurement_as_square_channel(
        mp.random_povm(d, 2, False, rng)  # padded to d outcomes for d > 2
    ),
    "conversion_channel": lambda d, rank, rng: mp.conversion_channel(
        mp.random_channel(d, rank, "general", rng)
    ),
}


@pytest.fixture
def derived_channels(monkeypatch):
    """Every channel `QuantumChannel._from_kraus` and every stochastic matrix
    `StochasticMatrix._from_valid` makes while the test runs, and the calls
    of both public constructors meanwhile."""
    made, validated = [], []
    for cls, name in ((mp.QuantumChannel, "_from_kraus"), (mp.StochasticMatrix, "_from_valid")):
        trusted = cls.__dict__[name].__func__

        def recording(cls, array, _trusted=trusted):
            made.append(_trusted(cls, array))
            return made[-1]

        def counting(self, *args, _init=cls.__init__, _cls=cls):
            validated.append(_cls)
            _init(self, *args)

        monkeypatch.setattr(cls, name, classmethod(recording))
        monkeypatch.setattr(cls, "__init__", counting)
    return made, validated


def assert_validator_accepts(derived) -> None:
    """The public constructor accepts a derived channel or stochastic matrix,
    holding the same bytes in the same C-contiguous layout."""
    if isinstance(derived, mp.QuantumChannel):
        array, validated = derived.kraus, mp.QuantumChannel(derived.kraus).kraus
    else:
        array, validated = derived.entries, mp.StochasticMatrix(derived.entries).entries
    assert array.flags.c_contiguous and not array.flags.writeable
    assert array.dtype == validated.dtype and array.shape == validated.shape
    assert array.tobytes() == validated.tobytes()


class TestDerivedChannelsStayValid:
    """The public validators accept every channel and stochastic matrix the
    library derives without checking them, at unchanged tolerances, with the
    same Kraus operators and entries bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("name", list(DERIVED_CHANNEL_BUILDERS))
    def test_validator_accepts_what_is_derived(self, name, dim, derived_channels):
        made, validated = derived_channels
        rng = mp.SeededRng(320 + dim)
        for i, rank in enumerate((1, 2, dim * dim)):  # rank-deficient to full Kraus rank
            DERIVED_CHANNEL_BUILDERS[name](dim, rank, rng.spawn(i))
        assert any(isinstance(x, mp.QuantumChannel) for x in made) and not validated
        for derived in made:
            assert_validator_accepts(derived)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("unital", [False, True])
    def test_validator_accepts_random_dio(self, unital, dim):
        rng = mp.SeededRng(360 + dim)
        for i in range(5):
            assert_validator_accepts(mp.random_dio(dim, unital, rng.spawn(i)))

    @pytest.mark.parametrize("dim", [5, 6])
    def test_conversion_channels_up_to_d6(self, dim, derived_channels):
        made, validated = derived_channels
        rng = mp.SeededRng(330 + dim)
        for i, rank in enumerate((1, 2, dim * dim)):
            DERIVED_CHANNEL_BUILDERS["conversion_channel"](dim, rank, rng.spawn(i))
        assert len(made) == 6 and not validated  # three random channels, three conversions
        for derived in made:
            assert_validator_accepts(derived)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_dirichlet_draws(self, dim, derived_channels):
        made, validated = derived_channels
        rng = mp.SeededRng(340 + dim)
        povms = []
        for i, rows in enumerate((2, dim, dim * dim)):
            mp.random_stochastic_matrix(rows, dim, rng.spawn(i))
            povms.append(mp.random_povm(dim, rows + 1, True, rng.spawn(10 + i)))
        assert len(made) == 3 and not validated
        for derived in made:
            assert_validator_accepts(derived)
        # an incoherent POVM puts its Dirichlet columns on the diagonals of
        # its elements without a StochasticMatrix; the POVM validator takes it
        for povm in povms:
            assert mp.Povm(povm.stack).stack.tobytes() == povm.stack.tobytes()

    def test_suites_call_no_public_validator(self, derived_channels):
        """Every channel and stochastic matrix of a suite run is derived."""
        made, validated = derived_channels
        for name in mp.SUITE_NAMES:
            mp.run_suite(name, dim=2, trials=10, seed=350)
            assert validated == [], name
        assert made

    def test_measurement_channel_of_an_edge_povm_is_not_checked_again(self):
        """The channel edge: the POVM passes its checks (completeness within
        1e-9, an eigenvalue of -9e-10 within PSD_TOL), and its channel drops
        that eigenvalue, so sum K^dag K misses the identity by 1.8e-9, past
        TP_TOL; the channel is returned, and only the public constructor
        refuses its Kraus set."""
        povm = mp.Povm([np.diag([1.0 + 1.8e-9, 0.5]), np.diag([-0.9e-9, 0.5])])
        channel = mp.measurement_as_channel(povm)
        with pytest.raises(NotTracePreserving):
            mp.QuantumChannel(channel.kraus)


def kraus_choi(kraus):
    """The reference Choi matrix of the map of a Kraus list."""
    return ref.choi(mp.QuantumChannel._from_kraus(np.array(kraus)))


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
            np.testing.assert_allclose(ref.choi(composed), kraus_choi(products), atol=1e-12)

    def test_more_than_4096_products(self):
        rng = mp.SeededRng(234)
        first = oversized_channel(4, 80, rng.spawn(0))
        second = oversized_channel(4, 60, rng.spawn(1))
        products = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
        assert len(products) > 4096
        composed = mp.compose(second, first)
        np.testing.assert_allclose(ref.choi(composed), kraus_choi(products), atol=1e-12)

    def test_non_square_factors(self):
        rng = mp.SeededRng(235)
        first = random_channel_any(3, rng.spawn(0))
        second = mp.measurement_as_channel(mp.random_povm(3, 5, False, rng.spawn(1)))
        composed = mp.compose(second, first)
        assert (composed.dim_in, composed.dim_out) == (3, 5)
        products = [k2 @ k1 for k2 in second.kraus for k1 in first.kraus]
        np.testing.assert_allclose(ref.choi(composed), kraus_choi(products), atol=1e-12)


class TestLazyKraus:
    def test_given_kraus_are_kept(self):
        rng = mp.SeededRng(236)
        kraus = [np.asarray(k) for k in random_channel_any(3, rng).kraus]
        assert np.array_equal(mp.QuantumChannel(kraus).kraus, np.array(kraus))


def rotation(off_diagonal):
    """The real qubit rotation whose pulled-back basis elements have
    off-diagonal entries of magnitude sin(t) cos(t) = off_diagonal."""
    t = np.arcsin(2.0 * off_diagonal) / 2.0
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def amplitude_damping(gamma):
    """Kraus set {diag(1, sqrt(1 - gamma)), sqrt(gamma) |0><1|}: trace
    preserving, with E(I) = sum K K^dag = diag(1 + gamma, 1 - gamma)."""
    return [np.diag([1.0, np.sqrt(1.0 - gamma)]),
            np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])]


class TestToleranceEdges:
    """Each rule on the Kraus stack at 10% inside and 10% outside its
    tolerance: the constructor's trace preservation, unitality and
    detection incoherence."""

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("base", ["identity", "random_channel"])
    def test_trace_preservation(self, base, scale, accepted):
        kraus = (np.eye(2)[None].astype(complex) if base == "identity"
                 else random_channel_any(3, mp.SeededRng(238)).kraus)
        strict, loose = (np.sqrt(1.0 + scale * tol) * kraus
                         for tol in (mp.channels.TP_TOL, mp.channels.CHANNEL_EQ_TOL))
        if accepted:
            mp.QuantumChannel(strict)
        else:
            with pytest.raises(NotTracePreserving):
                mp.QuantumChannel(strict)
        assert mp.classify_channel(mp.QuantumChannel._from_kraus(loose)).cptp == accepted

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_unitality(self, scale, accepted):
        channel = mp.QuantumChannel(amplitude_damping(scale * mp.channels.CHANNEL_EQ_TOL))
        assert mp.is_unital(channel) == accepted
        assert mp.classify_channel(channel).unital == accepted
        channel = mp.QuantumChannel(amplitude_damping(scale * mp.channels.TP_TOL))
        if accepted:
            mp.adjoint_channel(channel)
        else:
            with pytest.raises(NotUnital):
                mp.adjoint_channel(channel)

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_detection_incoherence(self, scale, accepted):
        channel = mp.unitary_channel(rotation(scale * mp.channels.CHANNEL_EQ_TOL))
        assert mp.is_dio(channel) == accepted
        assert mp.classify_channel(channel).dio == accepted


class TestChoiAlgebraMatchesKraus:
    def test_mixture(self):
        # the basis pulled back through the Kraus-union mixture mixes the
        # pulled-back bases, the identity `power_convexity` rests on
        rng = mp.SeededRng(238)
        a = random_channel_any(3, rng.spawn(0))
        b = random_channel_any(3, rng.spawn(1))
        expected = [np.sqrt(0.3) * k for k in a.kraus] + [np.sqrt(0.7) * k for k in b.kraus]
        mixed = mp.mix_povm(mp.pulled_back_basis(a), mp.pulled_back_basis(b), 0.3)
        pulled = mp.pulled_back_basis(mp.QuantumChannel(expected))
        np.testing.assert_allclose(mixed.stack, pulled.stack, atol=1e-12)

    def test_adjoint(self):
        rng = mp.SeededRng(239)
        channel = mp.random_channel(3, 4, "unital", rng)
        adjoint = mp.adjoint_channel(channel)
        expected = [k.conj().T for k in channel.kraus]
        np.testing.assert_allclose(ref.choi(adjoint), kraus_choi(expected), atol=1e-12)


class TestClassifyMatchesKrausReference:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_dio(self, dim):
        rng = mp.SeededRng(241 + dim)
        for i in range(10):
            channel = mp.random_dio(dim, False, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert flags.dio
            assert flags == kraus_reference_flags(channel)

    @pytest.mark.parametrize("dim", [2, 3, 4])
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
            channel = mp.QuantumChannel(mp.basis_measurement(dim).stack @ u)
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
    def test_channel_rejects_finite_entries_that_overflow_the_gram_matrix(self):
        # the entries of sum K^dag K overflow to +-inf, and inf - inf is NaN
        with pytest.raises(NotTracePreserving):
            mp.QuantumChannel([[[1e155, 1e155], [1e155, -1e155]]])

    def test_povm_rejects(self):
        with pytest.raises(NonFiniteEntry):
            mp.Povm([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])

    def test_stochastic_matrix_rejects(self):
        with pytest.raises(NonFiniteEntry):
            mp.StochasticMatrix([[np.nan], [1.0]])


# each constructor of a channel: from a Kraus list, and each operation or
# sampler that derives a Kraus set, applied to two random channels a and b
CHANNEL_BUILDERS = {
    "kraus": lambda a, b: a,
    "compose": mp.compose,
    "adjoint_channel": lambda a, b: mp.adjoint_channel(mp.unitary_channel(HADAMARD)),
    "random_dio": lambda a, b: mp.random_dio(a.dim_in, False, mp.SeededRng(249)),
}


class TestReadOnly:
    @pytest.mark.parametrize("name", list(CHANNEL_BUILDERS))
    def test_kraus_is_all_it_holds_and_read_only(self, name):
        rng = mp.SeededRng(249)
        channel = CHANNEL_BUILDERS[name](
            random_channel_any(2, rng.spawn(0)), random_channel_any(2, rng.spawn(1))
        )
        assert type(channel).__slots__ == ("_kraus",)
        assert not channel.kraus.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            channel.kraus[0, 0] = 7.0


class TestSharedConstants:
    def test_basis_measurement_is_built_once(self):
        assert mp.basis_measurement(3) is mp.basis_measurement(3)
        assert not mp.basis_measurement(3).stack.flags.writeable

    def test_cnot_matrix_cannot_be_written(self):
        with pytest.raises(ValueError, match="read-only"):
            mp.cnot_matrix(3)[0, 0] = 7.0


class TestImages:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_apply_and_kraus_reference(self, dim):
        rng = mp.SeededRng(260 + dim)
        channel = random_channel_any(dim, rng.spawn(0))
        stack = np.array([ref.random_hermitian(dim, rng.spawn(1 + i)) for i in range(4)])
        out = mp.images(channel, stack)
        assert out.shape == (4, dim, dim)
        for x, image in zip(stack, out):
            np.testing.assert_allclose(image, mp.images(channel, x), atol=1e-12)
            kraus_image = sum(k @ x @ k.conj().T for k in channel.kraus)
            np.testing.assert_allclose(image, kraus_image, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mp.images(ref.identity_channel(2), np.zeros((4, 3, 3)))


def composed_channel(d, rng):
    """A channel of many Kraus operators: the product of two random ones."""
    return mp.compose(random_channel_any(d, rng.spawn(0)), random_channel_any(d, rng.spawn(1)))


def assert_same_to_rounding(a, b):
    """Two routes that sum the same Kraus products in a different order
    agree to the last bits: within 1e-15, max-abs."""
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


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
            assert_same_to_rounding(mp.pulled_back_basis(channel).stack, reference.stack)

    def test_non_square_channel(self):
        rng = mp.SeededRng(254)
        channel = mp.compose(
            mp.measurement_as_channel(mp.random_povm(3, 5, False, rng.spawn(0))),
            random_channel_any(3, rng.spawn(1)),
        )
        reference = mp.pullback_povm(channel, mp.basis_measurement(5))
        assert_same_to_rounding(mp.pulled_back_basis(channel).stack, reference.stack)

    def test_output_dephasing_leaves_the_pulled_back_basis(self):
        channel = composed_channel(3, mp.SeededRng(260))
        assert_same_to_rounding(
            mp.pulled_back_basis(mp.compose(mp.dephasing_channel(3), channel)).stack,
            mp.pulled_back_basis(channel).stack,
        )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_basis_images_match_images_of_the_basis(self, dim):
        rng = mp.SeededRng(255 + dim)
        for channel in (random_channel_any(dim, rng.spawn(0)), composed_channel(dim, rng.spawn(1))):
            assert_same_to_rounding(
                mp.channels.basis_images(channel),
                mp.images(channel, mp.basis_measurement(dim).stack),
            )


def class_family(kind, dim, rng):
    if kind == "dio":
        return mp.random_dio(dim, False, rng)
    if kind == "unital_dio":
        return mp.random_dio(dim, True, rng)
    if kind == "mio_only":
        u = mp.haar_unitary(dim, rng)
        return mp.QuantumChannel(mp.basis_measurement(dim).stack @ u)
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
