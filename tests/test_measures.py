import math

import numpy as np
import pytest

import mrpower as mp
import reference as ref
from mrpower.errors import (
    DimensionMismatch,
    InvalidStochasticMatrix,
    NotDensity,
    NotIncoherent,
    NotPsd,
)
from mrpower import powers, suites
from mrpower.measures import ere_lower_bounds, measurement_relative_entropies


def plus_povm():
    plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = ref.projector(np.array([1.0, -1.0]) / np.sqrt(2.0))
    return mp.Povm([plus, minus])


def coherence_grid_oracle(rho, points=10_000):
    """Brute-force min_q D(rho || diag(q, 1-q)) on a qubit grid."""
    diag = np.diag(rho.matrix).real
    q = np.linspace(0.0, 1.0, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(diag[0] > 0, -diag[0] * np.log2(q), 0.0) + np.where(
            diag[1] > 0, -diag[1] * np.log2(1.0 - q), 0.0
        )
    return -ref.von_neumann_entropy(rho) + float(np.min(cross))


class TestRelativeEntropyOfCoherence:
    def test_plus_state_is_maximal(self):
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert mp.relative_entropy_of_coherence(plus) == pytest.approx(1.0)

    def test_diagonal_states_vanish(self):
        rng = mp.SeededRng(301)
        for i in range(10):
            w = rng.spawn(i).gen.dirichlet(np.ones(3))
            rho = ref.diagonal_operator(w)
            assert mp.relative_entropy_of_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_minimum(self):
        rng = mp.SeededRng(302)
        for i in range(20):
            rho = mp.HermitianOperator(ref.random_density(2, rng.spawn(i)))
            closed = mp.relative_entropy_of_coherence(rho)
            assert closed == pytest.approx(coherence_grid_oracle(rho), abs=2e-3)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensity):
            mp.relative_entropy_of_coherence(ref.identity(2))


class TestMeasurementRelativeEntropy:
    def test_self_divergence_vanishes(self):
        rng = mp.SeededRng(303)
        for i in range(20):
            povm = mp.random_povm(2, 3, False, rng.spawn(i))
            assert mp.measurement_relative_entropy(povm, povm) == pytest.approx(0.0, abs=1e-10)

    def test_basis_vs_trivial(self):
        trivial = mp.Povm([np.eye(2) / 2, np.eye(2) / 2])
        value = mp.measurement_relative_entropy(mp.basis_measurement(2), trivial)
        assert value == pytest.approx(1.0)

    def test_tensor_additivity(self):
        rng = mp.SeededRng(304)
        for i in range(20):
            m = mp.random_povm(2, 2, False, rng.spawn(4 * i))
            k = mp.random_povm(2, 2, False, rng.spawn(4 * i + 1))
            n = mp.random_povm(3, 3, False, rng.spawn(4 * i + 2))
            l = mp.random_povm(3, 3, False, rng.spawn(4 * i + 3))
            joint = mp.measurement_relative_entropy(mp.tensor_povm(m, n), mp.tensor_povm(k, l))
            split = mp.measurement_relative_entropy(m, k) + mp.measurement_relative_entropy(n, l)
            assert joint == pytest.approx(split, abs=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known failure: tensor additivity in dm_properties at d = 3 misses 1e-8 by "
            "rounding (violation 1.16e-8); eigh's absolute error of about 1e-16 on a "
            "product element's eigenvalue of 3.1e-11 is a relative error of about 3e-6, "
            "which moves the divergence by about 1e-8"
        ),
    )
    def test_dm_properties_tensor_additivity_at_d3(self):
        report = mp.run_suite("dm_properties", dim=3, trials=20, seed=1199875773)
        assert report.passed, f"max_violation {report.max_violation:.3e}"

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known failure: tensor additivity in dm_properties at d = 2 misses 1e-8 by "
            "rounding (violation 1.857e-7), the fault seen at d = 3: a product element "
            "has an eigenvalue of 2.4e-11. The seed is the one the verify_d2 benchmark "
            "derives for round 332 at seed 77"
        ),
    )
    def test_dm_properties_tensor_additivity_at_d2(self):
        report = mp.run_suite("dm_properties", dim=2, trials=10, seed=2461759266)
        assert report.passed, f"max_violation {report.max_violation:.3e}"

    def test_support_mismatch_propagates(self):
        basis = mp.basis_measurement(2)
        swapped = mp.Povm(basis.stack[::-1])
        assert math.isinf(mp.measurement_relative_entropy(basis, swapped))

    def test_outcome_count_mismatch(self):
        rng = mp.SeededRng(305)
        with pytest.raises(DimensionMismatch):
            mp.measurement_relative_entropy(
                mp.random_povm(2, 2, False, rng.spawn(0)),
                mp.random_povm(2, 3, False, rng.spawn(1)),
            )


class TestMeasurementCoherence:
    def test_plus_minus_is_maximal(self):
        assert mp.measurement_coherence(plus_povm()) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_povm_vanishes(self):
        trivial = mp.Povm([np.eye(2) / 2, np.eye(2) / 2])
        assert mp.measurement_coherence(trivial) == pytest.approx(0.0, abs=1e-12)

    def test_basis_measurement_vanishes(self):
        assert mp.measurement_coherence(mp.basis_measurement(3)) == pytest.approx(0.0, abs=1e-12)


class TestBruteforceOracle:
    """The closed form against `reference.full_grid_bruteforce`, the
    exhaustive grid over incoherent qubit two-outcome POVMs."""

    def test_plus_minus(self):
        assert ref.full_grid_bruteforce(plus_povm()) == pytest.approx(1.0, abs=2e-3)

    def test_incoherent_minimizer_is_self(self):
        rng = mp.SeededRng(306)
        for i in range(5):
            povm = mp.random_povm(2, 2, True, rng.spawn(i))
            assert ref.full_grid_bruteforce(povm) == pytest.approx(0.0, abs=1e-6)

    def test_matches_closed_form(self):
        rng = mp.SeededRng(307)
        for i in range(10):
            povm = mp.random_povm(2, 2, False, rng.spawn(i))
            closed = mp.measurement_coherence(povm)
            assert closed == pytest.approx(ref.full_grid_bruteforce(povm), abs=5e-3)


class TestVerifyKillsMutants:
    """Which suites fail, at 20 trials and seed 42, when a closed form is
    scaled or shifted (the C, C_m, D and C_g mutants are patched into
    `suites`, the ERE bound into `powers`). A mutant no suite fails is a gap
    in the verify contract; a new kill is recorded here."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("module, name, mutant, killed_by", [
        (suites, "measurement_cohering_powers",
         lambda f: lambda es: [1.001 * v for v in f(es)], {"duality", "thm7_reduction"}),
        (suites, "measurement_cohering_powers", lambda f: lambda es: [0.999 * v for v in f(es)],
         {"duality", "thm3_proxy", "thm7_reduction"}),
        (suites, "measurement_cohering_powers", lambda f: lambda es: [v + 1e-6 for v in f(es)],
         {"power_monotone", "duality", "thm7_reduction"}),
        (suites, "measurement_coherences", lambda f: lambda ms: [v + 1e-6 for v in f(ms)],
         {"cm_faithfulness", "cm_oracle", "thm7_reduction"}),
        (powers, "ere_lower_bounds", lambda f: lambda x, dims: 1.5 * f(x, dims),
         {"conversion_equality", "thm3_proxy"}),
        (powers, "ere_lower_bounds", lambda f: lambda x, dims: f(x, dims) + 1e-3,
         {"conversion_equality", "thm3_proxy"}),
        (suites, "measurement_relative_entropies",
         lambda f: lambda pairs: [1.01 * v for v in f(pairs)], {"cm_oracle"}),
        (suites, "state_cohering_powers", lambda f: lambda es: [1.01 * v for v in f(es)],
         {"duality"}),
    ], ids=["C-times-1.001", "C-times-0.999", "C-plus-1e-6", "Cm-plus-1e-6",
            "ERE-times-1.5", "ERE-plus-1e-3", "D-times-1.01", "Cg-times-1.01"])
    def test_mutant_fails_these_suites(self, module, name, mutant, killed_by, dim, monkeypatch):
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        failed = {s for s in mp.SUITE_NAMES if not mp.run_suite(s, dim, 20, 42).passed}
        assert failed == killed_by


def operators(m):
    """The elements of a POVM as the operators the references take."""
    return [mp.HermitianOperator(el) for el in m.stack]


def per_element_coherence(m):
    entropy = ref.von_neumann_entropy
    return sum(entropy(ref.dephase(el)) - entropy(el) for el in operators(m)) / m.dim


def per_element_divergence(m, n):
    terms = [ref.relative_entropy(a, b) for a, b in zip(operators(m), operators(n))]
    return math.inf if any(math.isinf(t) for t in terms) else sum(terms) / m.dim


def sample_povms(dim, rng):
    """Full-rank, incoherent, rank-deficient (pulled back through a unitary)
    and zero-padded POVMs with 3 outcomes."""
    rotation = mp.unitary_channel(mp.haar_unitary(dim, rng))
    projective = mp.pullback_povm(rotation, mp.basis_measurement(dim))
    return [
        mp.random_povm(dim, 3, False, rng),
        mp.random_povm(dim, 3, True, rng),
        mp.classical_postprocess(projective, mp.random_stochastic_matrix(3, dim, rng)),
        mp.pad_povm(mp.random_povm(dim, 2, False, rng), 3),
    ]


class TestBatchedMeasuresMatchPerElementSums:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_coherence(self, dim):
        rng = mp.SeededRng(314)
        for i in range(10):
            for povm in sample_povms(dim, rng.spawn(i)):
                expected = per_element_coherence(povm)
                assert mp.measurement_coherence(povm) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_divergence(self, dim):
        """The scalar against the per-element sum, and the batch of every
        ordered pair of the sample mix, the support mismatches among them,
        against the scalar bit for bit."""
        rng = mp.SeededRng(315)
        for i in range(10):
            povms = sample_povms(dim, rng.spawn(i))
            pairs = [(m, n) for m in povms for n in povms]
            batched = measurement_relative_entropies(pairs)
            for (m, n), batched_value in zip(pairs, batched):
                expected = per_element_divergence(m, n)
                value = mp.measurement_relative_entropy(m, n)
                if math.isinf(expected):
                    assert value == math.inf
                else:
                    assert value == pytest.approx(expected, abs=1e-12)
                assert batched_value == value
            assert math.inf in batched

    def test_batch_of_mixed_outcome_counts_and_repeated_povms(self):
        """One POVM in several pairs, as `dm_properties` passes M three
        times, beside pairs of 2, 3 and 5 outcomes."""
        rng = mp.SeededRng(319)
        m, k = (mp.random_povm(3, 3, False, rng) for _ in range(2))
        post = mp.random_stochastic_matrix(5, 3, rng)
        rotation = mp.random_channel(3, 1, "general", rng)
        pairs = [
            (m, k),
            (m, m),
            (mp.random_povm(3, 2, False, rng), mp.random_povm(3, 2, True, rng)),
            (mp.classical_postprocess(m, post), mp.classical_postprocess(k, post)),
            (mp.pullback_povm(rotation, m), mp.pullback_povm(rotation, k)),
            (m, k),
        ]
        values = measurement_relative_entropies(pairs)
        assert values == [mp.measurement_relative_entropy(a, b) for a, b in pairs]
        assert values[0] == values[-1]

    def test_each_distinct_m_is_decomposed_once(self, monkeypatch):
        """A repeated M and an equal copy of it give the same bits, as every
        pair does alone; the eigvalsh stack holds each M once by identity,
        so the copy, a distinct object, is decomposed beside M."""
        rng = mp.SeededRng(323)
        m, k, n = (mp.random_povm(3, 3, False, rng) for _ in range(3))
        copy = mp.Povm._from_valid(m.stack.copy())
        pairs = [(m, k), (m, n), (m, m), (copy, k), (copy, n), (k, m)]
        alone = [measurement_relative_entropies([pair])[0] for pair in pairs]
        decomposed = []
        original = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            decomposed.append(a.shape[0])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        values = measurement_relative_entropies(pairs)
        assert decomposed == [m.n + copy.n + k.n]
        assert [v.hex() for v in values] == [v.hex() for v in alone]
        assert values[0].hex() == values[3].hex() and values[1].hex() == values[4].hex()

    def test_batch_decomposes_once_whatever_its_pair_count(self, monkeypatch):
        rng = mp.SeededRng(320)
        rotation = mp.random_channel(2, 1, "general", rng)
        m, n = (mp.pullback_povm(rotation, mp.random_povm(2, 3, False, rng)) for _ in range(2))
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        measurement_relative_entropies([(m, n), (n, m), (m, m)])
        assert sorted(calls) == ["eigh", "eigvalsh"]

    def test_scalar_is_the_batch_of_one(self, monkeypatch):
        rng = mp.SeededRng(322)
        m, n = (mp.random_povm(3, 3, False, rng) for _ in range(2))
        batches = []

        def recording(pairs):
            batches.append(list(pairs))
            return measurement_relative_entropies(pairs)

        monkeypatch.setattr(mp.measures, "measurement_relative_entropies", recording)
        value = mp.measurement_relative_entropy(m, n)
        assert len(batches) == 1 and len(batches[0]) == 1
        assert batches[0][0][0] is m and batches[0][0][1] is n
        assert value == measurement_relative_entropies([(m, n)])[0]

    def test_empty_batch(self):
        assert measurement_relative_entropies([]) == []

    def test_batch_rejects_mismatched_pairs_with_the_scalar_message(self):
        rng = mp.SeededRng(321)
        qubit, qubit_3, qutrit = (mp.random_povm(d, n, False, rng) for d, n in
                                  ((2, 2), (2, 3), (3, 2)))
        for m, n in ((qubit, qutrit), (qubit, qubit_3), (qubit_3, qubit)):
            with pytest.raises(DimensionMismatch) as scalar:
                mp.measurement_relative_entropy(m, n)
            with pytest.raises(DimensionMismatch) as batched:
                measurement_relative_entropies([(qubit, qubit), (m, n)])
            assert str(batched.value) == str(scalar.value)
        with pytest.raises(DimensionMismatch, match=r"differ in dim \(2 vs 3\)"):
            measurement_relative_entropies([(qubit, qubit), (qutrit, qutrit)])

    def test_support_mismatch_is_inf(self):
        rng = mp.SeededRng(316)
        coherent = mp.random_povm(3, 3, False, rng)
        padded = mp.pad_povm(mp.random_povm(3, 2, False, rng), 3)  # zero last element
        for m, n in ((plus_povm(), mp.basis_measurement(2)), (coherent, padded)):
            assert per_element_divergence(m, n) == math.inf
            assert mp.measurement_relative_entropy(m, n) == math.inf
        assert mp.measurement_relative_entropy(padded, coherent) < math.inf

    def test_state_coherence_matches_entropy_difference(self):
        rng = mp.SeededRng(317)
        for dim in (2, 3, 4):
            rho = mp.HermitianOperator(ref.random_density(dim, rng))
            expected = ref.von_neumann_entropy(ref.dephase(rho)) - ref.von_neumann_entropy(rho)
            assert mp.relative_entropy_of_coherence(rho) == pytest.approx(expected, abs=1e-12)


class TestMeasurementCoherences:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_batch_is_each_scalar_bit_for_bit(self, dim):
        """POVMs of 2 to 5 outcomes, incoherent, rank deficient and padded
        ones among them, and one POVM twice."""
        rng = mp.SeededRng(330 + dim)
        povms = [povm for i in range(3) for povm in sample_povms(dim, rng.spawn(i))]
        povms += [mp.random_povm(dim, n, False, rng) for n in (2, 5)] + povms[:1]
        values = mp.measures.measurement_coherences(povms)
        assert [v.hex() for v in values] == [mp.measurement_coherence(m).hex() for m in povms]

    def test_scalar_is_the_batch_of_one(self, monkeypatch):
        povm = mp.random_povm(3, 3, False, mp.SeededRng(333))
        batches = []
        batch = mp.measures.measurement_coherences
        monkeypatch.setattr(mp.measures, "measurement_coherences",
                            lambda povms: batches.append(list(povms)) or batch(povms))
        mp.measurement_coherence(povm)
        assert len(batches) == 1 and batches[0][0] is povm and len(batches[0]) == 1

    def test_empty_batch_and_mixed_dimensions(self):
        assert mp.measures.measurement_coherences([]) == []
        with pytest.raises(DimensionMismatch, match=r"differ in dim \(2 vs 3\)"):
            mp.measures.measurement_coherences([mp.basis_measurement(2), mp.basis_measurement(3)])


# each batch kernel with the arguments of an empty batch
EMPTY_BATCHES = [
    (mp.measures.measurement_coherences, ([],)),
    (measurement_relative_entropies, ([],)),
    (mp.measures.coherences_of_states, ([],)),
    (powers.measurement_cohering_powers, ([],)),
    (powers.state_cohering_powers, ([],)),
    (powers.conversion_ent_lower_bounds, ([],)),
    (powers.composite_ent_lower_bounds, ([],)),
    (ere_lower_bounds, (np.zeros((0, 4, 4), dtype=complex), (2, 2))),
]


@pytest.mark.parametrize("kernel, args", EMPTY_BATCHES,
                         ids=[kernel.__name__ for kernel, _ in EMPTY_BATCHES])
def test_batch_kernel_gives_an_empty_result_for_an_empty_batch(kernel, args):
    assert len(kernel(*args)) == 0


class TestIncoherentStructure:
    def test_basis_is_incoherent(self):
        assert mp.is_incoherent_measurement(mp.basis_measurement(2))

    def test_plus_minus_is_coherent(self):
        assert not mp.is_incoherent_measurement(plus_povm())

    @pytest.mark.parametrize("scale, incoherent", [(0.9, True), (1.1, False)])
    def test_off_diagonal_at_the_tolerance_edge(self, scale, incoherent):
        off = scale * mp.measures.INCOHERENT_TOL
        element = np.array([[0.5, off], [off, 0.5]])
        assert mp.is_incoherent_measurement(mp.Povm([element, np.eye(2) - element])) == incoherent

    def test_one_dimensional_povm_is_incoherent(self):
        povm = mp.Povm([[[0.25]], [[0.75]]])
        assert mp.is_incoherent_measurement(povm)
        np.testing.assert_allclose(mp.decompose_incoherent(povm).post.entries, [[0.25], [0.75]])

    def test_postprocessed_basis_stays_incoherent(self):
        rng = mp.SeededRng(309)
        for i in range(20):
            post = mp.random_stochastic_matrix(4, 3, rng.spawn(i))
            povm = mp.classical_postprocess(mp.basis_measurement(3), post)
            assert mp.is_incoherent_measurement(povm)

    def test_basis_decomposes_to_identity(self):
        decomposition = mp.decompose_incoherent(mp.basis_measurement(3))
        np.testing.assert_allclose(decomposition.post.entries, np.eye(3))
        assert decomposition.residual <= 1e-12

    def test_trivial_povm_decomposition(self):
        trivial = mp.Povm([np.eye(2) / 2, np.eye(2) / 2])
        decomposition = mp.decompose_incoherent(trivial)
        np.testing.assert_allclose(decomposition.post.entries, np.full((2, 2), 0.5))

    def test_round_trip(self):
        rng = mp.SeededRng(310)
        for i in range(50):
            d = int(rng.spawn(3 * i).gen.integers(2, 5))
            n = int(rng.spawn(3 * i + 1).gen.integers(2, 7))
            povm = mp.random_povm(d, n, True, rng.spawn(3 * i + 2))
            decomposition = mp.decompose_incoherent(povm)
            assert decomposition.residual <= 1e-10
            columns = decomposition.post.entries.sum(axis=0)
            np.testing.assert_allclose(columns, np.ones(d), atol=1e-10)

    def test_rejects_coherent_input(self):
        with pytest.raises(NotIncoherent):
            mp.decompose_incoherent(plus_povm())

    def test_accepts_the_completeness_edge(self):
        """Povm allows a completeness error up to 1e-9, past STOCHASTIC_TOL;
        the decomposition holds p(x|i) as read and reconstructs the POVM,
        and only the public constructor refuses that p(x|i)."""
        povm = mp.Povm([np.diag([0.5 + 5e-10, 0.5]), np.diag([0.5, 0.5])])
        decomposition = mp.decompose_incoherent(povm)
        np.testing.assert_array_equal(decomposition.post.entries, [[0.5 + 5e-10, 0.5], [0.5, 0.5]])
        assert decomposition.residual == 0.0
        with pytest.raises(InvalidStochasticMatrix):
            mp.StochasticMatrix(decomposition.post.entries)


def random_separable(d_a, d_b, trace, rng):
    """Random mixture of product PSD blocks, rescaled to the target trace."""
    terms = int(rng.gen.integers(1, 4))
    total = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for _ in range(terms):
        total += np.kron(ref.random_psd(d_a, rng), ref.random_psd(d_b, rng))
    return mp.HermitianOperator(total * (trace / np.trace(total).real))


class TestEreLowerBounds:
    def test_matches_per_operator_bound(self):
        rng = mp.SeededRng(318)
        stack = np.array([ref.random_psd(6, rng) for _ in range(5)] + [np.zeros((6, 6))])
        expected = [ref.ere_lower_bound(mp.HermitianOperator(x), (2, 3)) for x in stack]
        np.testing.assert_allclose(ere_lower_bounds(stack, (2, 3)), expected, rtol=0, atol=1e-12)

    def test_rejects_non_psd_operator(self):
        stack = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
        with pytest.raises(NotPsd):
            ere_lower_bounds(stack, (2, 2))


class TestEreLowerBound:
    def test_bell_state(self):
        bell = ref.projector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        assert mp.ere_lower_bound(bell, (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure_state(self):
        rng = mp.SeededRng(311)
        u = mp.haar_unitary(2, rng.spawn(0))
        v = mp.haar_unitary(2, rng.spawn(1))
        state = ref.projector(np.kron(u[:, 0], v[:, 0]))
        assert mp.ere_lower_bound(state, (2, 2)) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_two_qubits(self):
        mixed = mp.HermitianOperator(np.eye(4) / 4)
        assert mp.ere_lower_bound(mixed, (2, 2)) == pytest.approx(-1.0)

    def test_below_divergence_to_separables(self):
        # 500 random trace-matched separable references
        rng = mp.SeededRng(312)
        for i in range(5):
            x = mp.HermitianOperator(ref.random_psd(4, rng.spawn(2 * i)))
            bound = mp.ere_lower_bound(x, (2, 2))
            trace = np.trace(x.matrix).real
            sep_rng = rng.spawn(2 * i + 1)
            for j in range(100):
                sigma = random_separable(2, 2, trace, sep_rng.spawn(j))
                assert bound <= ref.relative_entropy(x, sigma) + 1e-9
