import math

import numpy as np
import pytest

import mrpower as mp
from mrpower.errors import DimensionMismatch, NonFiniteEntry, NotHermitian, NotPsd


def plus_state():
    return mp.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            mp.HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            mp.HermitianOperator(np.zeros((2, 3)))

    def test_matrix_is_read_only(self):
        x = mp.identity(2)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 5.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "entries",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, complex(0.0, np.nan)], [0.0, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, entries):
        with pytest.raises(NonFiniteEntry):
            mp.HermitianOperator(entries)

    def test_tolerates_rounding_noise(self):
        m = np.array([[1.0, 0.3 + 1e-12j], [0.3, 1.0]])
        assert mp.HermitianOperator(m).dim == 2


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert mp.von_neumann_entropy(mp.HermitianOperator(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_pure_state(self):
        assert mp.von_neumann_entropy(mp.basis_projector(0, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_subnormalized_can_be_negative(self):
        x = mp.HermitianOperator(2.0 * mp.basis_projector(0, 2).matrix)
        assert mp.von_neumann_entropy(x) == pytest.approx(-2.0)

    def test_rejects_negative_operator(self):
        with pytest.raises(NotPsd):
            mp.von_neumann_entropy(mp.diagonal_operator([1.0, -0.5]))


class TestRelativeEntropy:
    def test_identical_arguments_vanish(self):
        rng = mp.SeededRng(101)
        for i in range(10):
            rho = mp.HermitianOperator(mp.random_density(3, rng.spawn(i)))
            assert mp.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        value = mp.relative_entropy(mp.basis_projector(0, 2), mp.HermitianOperator(np.eye(2) / 2))
        assert value == pytest.approx(1.0)

    def test_support_mismatch_is_infinite(self):
        value = mp.relative_entropy(mp.basis_projector(0, 2), mp.basis_projector(1, 2))
        assert math.isinf(value)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mp.relative_entropy(mp.identity(2), mp.identity(3))


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        out = mp.tensor_product(mp.identity(2), mp.identity(2))
        np.testing.assert_allclose(out.matrix, np.eye(4))

    def test_basis_ordering(self):
        out = mp.tensor_product(mp.basis_projector(0, 2), mp.basis_projector(1, 2))
        np.testing.assert_allclose(out.matrix, mp.basis_projector(1, 4).matrix)

    def test_trace_multiplicativity(self):
        rng = mp.SeededRng(102)
        for i in range(20):
            x = mp.HermitianOperator(mp.random_psd(2, rng.spawn(2 * i)))
            y = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2 * i + 1)))
            lhs = np.trace(mp.tensor_product(x, y).matrix)
            rhs = np.trace(x.matrix) * np.trace(y.matrix)
            assert lhs == pytest.approx(rhs)

    def test_partial_trace_of_product(self):
        rng = mp.SeededRng(103)
        x = mp.HermitianOperator(mp.random_psd(2, rng.spawn(0)))
        y = mp.HermitianOperator(mp.random_psd(3, rng.spawn(1)))
        kept = mp.partial_trace(mp.tensor_product(x, y), (2, 3), "A")
        np.testing.assert_allclose(kept.matrix, np.trace(y.matrix) * x.matrix, atol=1e-12)

    def test_bell_marginal(self):
        bell = mp.projector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        reduced = mp.partial_trace(bell, (2, 2), "A")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preservation(self):
        rng = mp.SeededRng(104)
        for i in range(20):
            x = mp.HermitianOperator(mp.random_psd(6, rng.spawn(i)))
            reduced = mp.partial_trace(x, (2, 3), "B")
            assert np.trace(reduced.matrix) == pytest.approx(np.trace(x.matrix).real)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            mp.partial_trace(mp.identity(5), (2, 3), "A")


class TestDephase:
    def test_diagonal_fixed_point(self):
        x = mp.diagonal_operator([0.2, 0.8])
        np.testing.assert_allclose(mp.dephase(x).matrix, x.matrix)

    def test_plus_state(self):
        np.testing.assert_allclose(mp.dephase(plus_state()).matrix, np.eye(2) / 2)

    def test_idempotence(self):
        rng = mp.SeededRng(105)
        for i in range(20):
            x = mp.HermitianOperator(mp.random_hermitian(4, rng.spawn(i)))
            once = mp.dephase(x)
            np.testing.assert_allclose(mp.dephase(once).matrix, once.matrix)


class TestIsPsd:
    def test_identity(self):
        assert mp.is_psd(mp.identity(3))

    def test_indefinite(self):
        assert not mp.is_psd(mp.diagonal_operator([1.0, -0.5]))

    def test_random_construction(self):
        rng = mp.SeededRng(106)
        for i in range(20):
            u = mp.haar_unitary(4, rng.spawn(2 * i))
            d = np.diag(rng.spawn(2 * i + 1).gen.uniform(0.0, 1.0, size=4))
            assert mp.is_psd(mp.HermitianOperator(u @ d @ u.conj().T))


class TestEntropyIdentities:
    def test_entropy_additivity(self):
        # S(X (x) Y) = tr(Y) S(X) + tr(X) S(Y)
        rng = mp.SeededRng(107)
        for i in range(100):
            x = mp.HermitianOperator(mp.random_psd(2, rng.spawn(2 * i)))
            y = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2 * i + 1)))
            lhs = mp.von_neumann_entropy(mp.tensor_product(x, y))
            rhs = np.trace(y.matrix).real * mp.von_neumann_entropy(x) + np.trace(
                x.matrix
            ).real * mp.von_neumann_entropy(y)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_entropy_dephasing_identity(self):
        # D(X || dephase(X)) = S(dephase(X)) - S(X)
        rng = mp.SeededRng(108)
        for i in range(50):
            x = mp.HermitianOperator(mp.random_psd(3, rng.spawn(i)))
            lhs = mp.relative_entropy(x, mp.dephase(x))
            rhs = mp.von_neumann_entropy(mp.dephase(x)) - mp.von_neumann_entropy(x)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_relative_entropy_split(self):
        # D(X || dephase(Y)) = S(dephase(X)) - S(X) + D(dephase(X) || dephase(Y))
        rng = mp.SeededRng(109)
        for i in range(50):
            x = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2 * i)))
            y = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2 * i + 1)))
            lhs = mp.relative_entropy(x, mp.dephase(y))
            rhs = (
                mp.von_neumann_entropy(mp.dephase(x))
                - mp.von_neumann_entropy(x)
                + mp.relative_entropy(mp.dephase(x), mp.dephase(y))
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_partial_trace_round_trip(self):
        rng = mp.SeededRng(110)
        for i in range(20):
            x = mp.HermitianOperator(mp.random_psd(3, rng.spawn(2 * i)))
            y = mp.HermitianOperator(mp.random_psd(2, rng.spawn(2 * i + 1)))
            normalized = mp.HermitianOperator(y.matrix / np.trace(y.matrix).real)
            back = mp.partial_trace(mp.tensor_product(x, normalized), (3, 2), "A")
            np.testing.assert_allclose(back.matrix, x.matrix, atol=1e-10)
