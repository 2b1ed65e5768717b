import math

import numpy as np
import pytest

import mrpower as mp
from mrpower.errors import (
    DimensionMismatch,
    NotDensity,
    NotIncoherent,
    NotPsd,
    UnsupportedScale,
)
from mrpower.measures import ere_lower_bounds


def plus_povm():
    plus = mp.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = mp.projector(np.array([1.0, -1.0]) / np.sqrt(2.0))
    return mp.Povm([plus, minus])


def coherence_grid_oracle(rho, points=10_000):
    """Brute-force min_q D(rho || diag(q, 1-q)) on a qubit grid."""
    diag = np.diag(rho.matrix).real
    q = np.linspace(0.0, 1.0, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(diag[0] > 0, -diag[0] * np.log2(q), 0.0) + np.where(
            diag[1] > 0, -diag[1] * np.log2(1.0 - q), 0.0
        )
    return -mp.von_neumann_entropy(rho) + float(np.min(cross))


class TestRelativeEntropyOfCoherence:
    def test_plus_state_is_maximal(self):
        plus = mp.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert mp.relative_entropy_of_coherence(plus) == pytest.approx(1.0)

    def test_diagonal_states_vanish(self):
        rng = mp.SeededRng(301)
        for i in range(10):
            w = rng.spawn(i).gen.dirichlet(np.ones(3))
            rho = mp.diagonal_operator(w)
            assert mp.relative_entropy_of_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_minimum(self):
        rng = mp.SeededRng(302)
        for i in range(20):
            rho = mp.HermitianOperator(mp.random_density(2, rng.spawn(i)))
            closed = mp.relative_entropy_of_coherence(rho)
            assert closed == pytest.approx(coherence_grid_oracle(rho), abs=2e-3)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensity):
            mp.relative_entropy_of_coherence(mp.identity(2))


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

    def test_support_mismatch_propagates(self):
        basis = mp.basis_measurement(2)
        swapped = mp.Povm([basis.elements[1], basis.elements[0]])
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
    def test_plus_minus(self):
        assert mp.measurement_coherence_bruteforce(plus_povm(), 1000) == pytest.approx(
            1.0, abs=2e-3
        )

    def test_incoherent_minimizer_is_self(self):
        rng = mp.SeededRng(306)
        for i in range(5):
            povm = mp.random_povm(2, 2, True, rng.spawn(i))
            assert mp.measurement_coherence_bruteforce(povm, 1000) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_matches_closed_form(self):
        rng = mp.SeededRng(307)
        for i in range(10):
            povm = mp.random_povm(2, 2, False, rng.spawn(i))
            closed = mp.measurement_coherence(povm)
            grid = mp.measurement_coherence_bruteforce(povm, 1000)
            assert closed == pytest.approx(grid, abs=5e-3)

    def test_scale_cap(self):
        rng = mp.SeededRng(308)
        with pytest.raises(UnsupportedScale):
            mp.measurement_coherence_bruteforce(mp.random_povm(3, 2, False, rng), 1000)
        with pytest.raises(UnsupportedScale):
            mp.measurement_coherence_bruteforce(mp.random_povm(2, 3, False, rng), 1000)


def full_grid_bruteforce(m, grid_steps):
    """The grid oracle over the whole grid_steps x grid_steps grid and its
    np.argmin, kept as the reference for the per-slot minimum."""
    mass = np.clip(np.array([np.diag(el.matrix).real for el in m.elements]), 0.0, None)
    base = -sum(mp.von_neumann_entropy(el) for el in m.elements)

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


def oracle_povm(kind, rng):
    """Coherent, incoherent, rank-one projective or diagonal with extreme
    entries: the last two put zero mass in diagonal slots."""
    if kind == 0:
        return mp.random_povm(2, 2, False, rng)
    if kind == 1:
        return mp.random_povm(2, 2, True, rng)
    if kind == 2:
        rotation = mp.unitary_channel(mp.haar_unitary(2, rng))
        return mp.pullback_povm(rotation, mp.basis_measurement(2))
    a, b = rng.gen.choice([0.0, 0.5, 1.0, float(rng.gen.uniform())], size=2)
    return mp.Povm([np.diag([a, b]), np.diag([1.0 - a, 1.0 - b])])


class TestBruteforceOracleMatchesFullGrid:
    def test_bit_identical_on_seeded_povms(self):
        rng = mp.SeededRng(313)
        for i in range(600):
            povm = oracle_povm(i % 4, rng.spawn(i))
            steps = (1000, 100, 257)[i % 3]
            assert mp.measurement_coherence_bruteforce(povm, steps) == full_grid_bruteforce(
                povm, steps
            ), f"POVM {i}"


def per_element_coherence(m):
    entropy = mp.von_neumann_entropy
    return sum(entropy(mp.dephase(el)) - entropy(el) for el in m.elements) / m.dim


def per_element_divergence(m, n):
    terms = [mp.relative_entropy(a, b) for a, b in zip(m.elements, n.elements)]
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
        rng = mp.SeededRng(315)
        for i in range(10):
            povms = sample_povms(dim, rng.spawn(i))
            for m in povms:
                for n in povms:
                    expected = per_element_divergence(m, n)
                    value = mp.measurement_relative_entropy(m, n)
                    if math.isinf(expected):
                        assert value == math.inf
                    else:
                        assert value == pytest.approx(expected, abs=1e-12)

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
            rho = mp.HermitianOperator(mp.random_density(dim, rng))
            expected = mp.von_neumann_entropy(mp.dephase(rho)) - mp.von_neumann_entropy(rho)
            assert mp.relative_entropy_of_coherence(rho) == pytest.approx(expected, abs=1e-12)


class TestIncoherentStructure:
    def test_basis_is_incoherent(self):
        assert mp.is_incoherent_measurement(mp.basis_measurement(2), 1e-9)

    def test_plus_minus_is_coherent(self):
        assert not mp.is_incoherent_measurement(plus_povm(), 1e-9)

    def test_postprocessed_basis_stays_incoherent(self):
        rng = mp.SeededRng(309)
        for i in range(20):
            post = mp.random_stochastic_matrix(4, 3, rng.spawn(i))
            povm = mp.classical_postprocess(mp.basis_measurement(3), post)
            assert mp.is_incoherent_measurement(povm, 1e-9)

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


def random_separable(d_a, d_b, trace, rng):
    """Random mixture of product PSD blocks, rescaled to the target trace."""
    terms = int(rng.gen.integers(1, 4))
    total = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for _ in range(terms):
        total += np.kron(mp.random_psd(d_a, rng), mp.random_psd(d_b, rng))
    return mp.HermitianOperator(total * (trace / np.trace(total).real))


class TestEreLowerBounds:
    def test_matches_per_operator_bound(self):
        rng = mp.SeededRng(318)
        stack = np.array([mp.random_psd(6, rng) for _ in range(5)] + [np.zeros((6, 6))])
        expected = [mp.ere_lower_bound(mp.HermitianOperator(x), (2, 3)) for x in stack]
        np.testing.assert_allclose(ere_lower_bounds(stack, (2, 3)), expected, rtol=0, atol=1e-12)

    def test_rejects_non_psd_operator(self):
        stack = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
        with pytest.raises(NotPsd):
            ere_lower_bounds(stack, (2, 2))


class TestEreLowerBound:
    def test_bell_state(self):
        bell = mp.projector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        assert mp.ere_lower_bound(bell, (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure_state(self):
        rng = mp.SeededRng(311)
        u = mp.haar_unitary(2, rng.spawn(0))
        v = mp.haar_unitary(2, rng.spawn(1))
        state = mp.projector(np.kron(u[:, 0], v[:, 0]))
        assert mp.ere_lower_bound(state, (2, 2)) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_two_qubits(self):
        mixed = mp.HermitianOperator(np.eye(4) / 4)
        assert mp.ere_lower_bound(mixed, (2, 2)) == pytest.approx(-1.0)

    def test_below_divergence_to_separables(self):
        # 500 random trace-matched separable references
        rng = mp.SeededRng(312)
        for i in range(5):
            x = mp.HermitianOperator(mp.random_psd(4, rng.spawn(2 * i)))
            bound = mp.ere_lower_bound(x, (2, 2))
            trace = np.trace(x.matrix).real
            sep_rng = rng.spawn(2 * i + 1)
            for j in range(100):
                sigma = random_separable(2, 2, trace, sep_rng.spawn(j))
                assert bound <= mp.relative_entropy(x, sigma) + 1e-9
