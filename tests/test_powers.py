import numpy as np
import pytest

import mrpower as mp
from mrpower.errors import (
    DimensionMismatch,
    NotUnital,
    PreconditionViolation,
    UnsupportedScale,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class TestExampleChannelPowers:
    def test_g_channel(self):
        g = mp.example_channels()["g"]
        assert mp.measurement_cohering_power(g) == pytest.approx(1.0, abs=1e-9)
        assert mp.state_cohering_power(g) == pytest.approx(0.0, abs=1e-9)

    def test_preparation_channel(self):
        prep = mp.example_channels()["prep"]
        assert mp.measurement_cohering_power(prep) == pytest.approx(0.0, abs=1e-9)
        assert mp.state_cohering_power(prep) == pytest.approx(1.0, abs=1e-9)

    def test_hadamard(self):
        channel = mp.unitary_channel(HADAMARD)
        assert mp.measurement_cohering_power(channel) == pytest.approx(1.0, abs=1e-9)

    def test_identity_has_no_power(self):
        channel = mp.identity_channel(3)
        assert mp.measurement_cohering_power(channel) == pytest.approx(0.0, abs=1e-12)
        assert mp.state_cohering_power(channel) == pytest.approx(0.0, abs=1e-12)

    def test_requires_square_channel(self):
        rng = mp.SeededRng(401)
        rect = mp.measurement_as_channel(mp.random_povm(2, 3, False, rng))
        with pytest.raises(DimensionMismatch):
            mp.measurement_cohering_power(rect)
        with pytest.raises(DimensionMismatch):
            mp.state_cohering_power(rect)


class TestCnot:
    def test_qubit_permutation(self):
        u = mp.cnot_matrix(2)
        # fixes |00>, |01>; swaps |10> <-> |11>
        np.testing.assert_allclose(u @ np.eye(4)[:, 0], np.eye(4)[:, 0])
        np.testing.assert_allclose(u @ np.eye(4)[:, 1], np.eye(4)[:, 1])
        np.testing.assert_allclose(u @ np.eye(4)[:, 2], np.eye(4)[:, 3])
        np.testing.assert_allclose(u @ np.eye(4)[:, 3], np.eye(4)[:, 2])

    def test_unitarity(self):
        for d in (2, 3, 4):
            u = mp.cnot_matrix(d)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(d * d), atol=1e-12)

    def test_qutrit_addition(self):
        u = mp.cnot_matrix(3)
        # |12> -> |1, 1+2 mod 3> = |10>
        src = np.zeros(9)
        src[1 * 3 + 2] = 1.0
        dst = np.zeros(9)
        dst[1 * 3 + 0] = 1.0
        np.testing.assert_allclose(u @ src, dst)

    def test_channel_wrapper(self):
        assert mp.cnot_unitary(2).dim_in == 4


class TestConversionChannel:
    def test_is_cptp(self):
        converted = mp.conversion_channel(mp.identity_channel(2))
        assert mp.classify_channel(converted).cptp

    def test_output_is_dephased(self):
        rng = mp.SeededRng(402)
        channel = mp.random_channel(2, 3, "general", rng)
        converted = mp.conversion_channel(channel)
        redephased = mp.compose(mp.dephasing_channel(4), converted)
        assert mp.channels_equal(redephased, converted)

    def test_free_input_keeps_zero_certificate(self):
        certificate = mp.conversion_ent_lower_bound(mp.dephasing_channel(2))
        assert certificate.cohering_power == pytest.approx(0.0, abs=1e-9)
        assert certificate.avg_ere_lower_bound == pytest.approx(0.0, abs=1e-9)


class TestConversionCertificate:
    def test_g_channel_certificate(self):
        certificate = mp.conversion_ent_lower_bound(mp.example_channels()["g"])
        assert certificate.cohering_power == pytest.approx(1.0, abs=1e-9)
        assert certificate.avg_ere_lower_bound == pytest.approx(1.0, abs=1e-9)
        assert certificate.gap <= 1e-9

    def test_identity_certificate(self):
        certificate = mp.conversion_ent_lower_bound(mp.identity_channel(2))
        assert certificate.cohering_power == pytest.approx(0.0, abs=1e-12)
        assert certificate.avg_ere_lower_bound == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_channels_close_the_gap(self, dim):
        rng = mp.SeededRng(403 + dim)
        for i in range(20):
            rank = int(rng.spawn(2 * i).gen.integers(1, dim * dim + 1))
            channel = mp.random_channel(dim, rank, "general", rng.spawn(2 * i + 1))
            certificate = mp.conversion_ent_lower_bound(channel)
            assert certificate.gap <= 1e-9
            assert len(certificate.per_element_bounds) == dim * dim

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedScale):
            mp.conversion_ent_lower_bound(mp.identity_channel(7))

    def test_cap_is_configurable(self):
        certificate = mp.conversion_ent_lower_bound(mp.identity_channel(7), max_dim=7)
        assert certificate.gap <= 1e-9


def per_element_certificate_bounds(channel):
    """The certificate's bounds one embedded element at a time."""
    d = channel.dim_in
    u = mp.cnot_matrix(d)
    bounds = []
    for i in range(d):
        pulled = channel.adjoint_apply(mp.basis_projector(i, d)).matrix
        for j in range(d):
            embedded = u @ np.kron(pulled, mp.basis_projector(j, d).matrix) @ u.conj().T
            bounds.append(mp.ere_lower_bound(mp.HermitianOperator(embedded), (d, d)))
    return bounds


class TestBatchedBoundsMatchElementLoops:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_certificate_bounds(self, dim):
        rng = mp.SeededRng(410 + dim)
        for i in range(4):
            rank = 1 + i * (dim * dim - 1) // 3  # unitary up to full rank
            channel = mp.random_channel(dim, rank, "general", rng.spawn(i))
            certificate = mp.conversion_ent_lower_bound(channel)
            np.testing.assert_allclose(
                certificate.per_element_bounds,
                per_element_certificate_bounds(channel),
                rtol=0,
                atol=1e-12,
            )

    def test_composite_bound(self):
        rng = mp.SeededRng(414)
        for i in range(5):
            channel = mp.random_channel(2, 1 + i % 4, "general", rng.spawn(3 * i))
            k = mp.random_dio(4, bool(i % 2), rng.spawn(3 * i + 1))
            l = mp.random_dio(4, True, rng.spawn(3 * i + 2))
            composite = mp.compose(
                mp.dephasing_channel(4),
                mp.compose(k, mp.compose(mp.extend_with_identity(channel, 2, "right"), l)),
            )
            pulled = mp.pullback_povm(composite, mp.basis_measurement(4))
            expected = np.mean([mp.ere_lower_bound(el, (2, 2)) for el in pulled.elements])
            proxy = mp.composite_ent_lower_bound(channel, k, l)
            assert proxy == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_state_cohering_power(self, dim):
        rng = mp.SeededRng(415 + dim)
        entropy = mp.von_neumann_entropy
        for i in range(5):
            rank = int(rng.spawn(2 * i).gen.integers(1, dim * dim + 1))
            channel = mp.random_channel(dim, rank, "general", rng.spawn(2 * i + 1))
            images = [channel.apply(mp.basis_projector(j, dim)) for j in range(dim)]
            expected = max(entropy(mp.dephase(rho)) - entropy(rho) for rho in images)
            assert mp.state_cohering_power(channel) == pytest.approx(expected, abs=1e-12)


class TestCompositeBound:
    def test_identity_sandwich_of_g(self):
        g = mp.example_channels()["g"]
        proxy = mp.composite_ent_lower_bound(g, mp.identity_channel(4), mp.identity_channel(4))
        assert proxy <= mp.measurement_cohering_power(g) + 1e-8

    def test_free_core_channel(self):
        rng = mp.SeededRng(405)
        free = mp.random_dio(2, False, rng)
        proxy = mp.composite_ent_lower_bound(free, mp.identity_channel(4), mp.identity_channel(4))
        assert proxy <= 1e-8

    def test_random_sandwiches(self):
        rng = mp.SeededRng(406)
        for i in range(10):
            channel = mp.random_channel(2, 2, "general", rng.spawn(4 * i))
            k = mp.random_dio(4, False, rng.spawn(4 * i + 1))
            l = mp.random_dio(4, True, rng.spawn(4 * i + 2))
            proxy = mp.composite_ent_lower_bound(channel, k, l)
            assert proxy <= mp.measurement_cohering_power(channel) + 1e-8

    def test_rejects_coherent_k(self):
        g = mp.example_channels()["g"]
        coherent = mp.unitary_channel(np.kron(HADAMARD, HADAMARD))
        with pytest.raises(PreconditionViolation):
            mp.composite_ent_lower_bound(g, coherent, mp.identity_channel(4))

    def test_rejects_non_unital_l(self):
        g = mp.example_channels()["g"]
        rng = mp.SeededRng(407)
        non_unital = mp.random_dio(4, False, rng)
        with pytest.raises(PreconditionViolation):
            mp.composite_ent_lower_bound(g, mp.identity_channel(4), non_unital)


class TestDuality:
    def test_hadamard(self):
        result = mp.duality_check(mp.unitary_channel(HADAMARD))
        assert result.c_g == pytest.approx(1.0, abs=1e-9)
        assert result.c_adj == pytest.approx(1.0, abs=1e-9)
        assert result.sandwich_ok

    def test_identity(self):
        result = mp.duality_check(mp.identity_channel(2))
        assert result.c_g == pytest.approx(0.0, abs=1e-12)
        assert result.c_adj == pytest.approx(0.0, abs=1e-12)
        assert result.sandwich_ok

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnital):
            mp.duality_check(mp.example_channels()["prep"])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_unital_channels(self, dim):
        rng = mp.SeededRng(408 + dim)
        for i in range(30):
            rank = int(rng.spawn(2 * i).gen.integers(1, dim * dim + 1))
            channel = mp.random_channel(dim, rank, "unital", rng.spawn(2 * i + 1))
            result = mp.duality_check(channel)
            assert result.sandwich_ok
            average = sum(
                mp.relative_entropy_of_coherence(channel.apply(mp.basis_projector(i, dim)))
                for i in range(dim)
            ) / dim
            assert result.c_adj == pytest.approx(average, abs=1e-10)


class TestMonotoneAxioms:
    def test_sandwich_monotonicity(self):
        rng = mp.SeededRng(410)
        for i in range(20):
            channel = mp.random_channel(2, 3, "general", rng.spawn(3 * i))
            k = mp.random_dio(2, False, rng.spawn(3 * i + 1))
            l = mp.random_dio(2, True, rng.spawn(3 * i + 2))
            sandwiched = mp.compose(k, mp.compose(channel, l))
            assert (
                mp.measurement_cohering_power(sandwiched)
                <= mp.measurement_cohering_power(channel) + 1e-8
            )

    def test_convexity(self):
        rng = mp.SeededRng(411)
        for i in range(10):
            first = mp.random_channel(2, 2, "general", rng.spawn(3 * i))
            second = mp.random_channel(2, 3, "general", rng.spawn(3 * i + 1))
            p = float(rng.spawn(3 * i + 2).gen.uniform())
            mixed = mp.measurement_cohering_power(mp.mix_channels(first, second, p))
            bound = p * mp.measurement_cohering_power(first) + (1.0 - p) * (
                mp.measurement_cohering_power(second)
            )
            assert mixed <= bound + 1e-8

    def test_faithfulness_on_free_channels(self):
        rng = mp.SeededRng(412)
        for i in range(20):
            unital = bool(rng.spawn(2 * i).gen.integers(0, 2))
            free = mp.random_dio(2, unital, rng.spawn(2 * i + 1))
            assert mp.measurement_cohering_power(free) <= 1e-9

    def test_permutation_invariance(self):
        rng = mp.SeededRng(413)
        for i in range(20):
            dim = 3
            channel = mp.random_channel(dim, 4, "general", rng.spawn(3 * i))
            left = mp.permutation_channel(rng.spawn(3 * i + 1).gen.permutation(dim))
            right = mp.permutation_channel(rng.spawn(3 * i + 2).gen.permutation(dim))
            wrapped = mp.compose(left, mp.compose(channel, right))
            assert mp.measurement_cohering_power(wrapped) == pytest.approx(
                mp.measurement_cohering_power(channel), abs=1e-10
            )


class TestMeasurementPowerReduction:
    def test_square_embedding_matches_coherence(self):
        rng = mp.SeededRng(414)
        for i in range(20):
            d = int(rng.spawn(3 * i).gen.integers(2, 5))
            n = int(rng.spawn(3 * i + 1).gen.integers(2, d + 1))
            povm = mp.random_povm(d, n, False, rng.spawn(3 * i + 2))
            channel = mp.measurement_as_square_channel(povm)
            assert mp.measurement_cohering_power(channel) == pytest.approx(
                mp.measurement_coherence(povm), abs=1e-9
            )

    def test_padded_outputs_are_silent(self):
        rng = mp.SeededRng(415)
        povm = mp.random_povm(3, 2, False, rng)
        channel = mp.measurement_as_square_channel(povm)
        assert (channel.dim_in, channel.dim_out) == (3, 3)

    def test_rejects_more_outcomes_than_dimensions(self):
        rng = mp.SeededRng(416)
        with pytest.raises(UnsupportedScale):
            mp.measurement_as_square_channel(mp.random_povm(2, 3, False, rng))
