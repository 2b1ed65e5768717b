import numpy as np
import pytest

import mrpower as mp
import reference as ref
from mrpower.errors import (
    DimensionMismatch,
    NotUnital,
    PreconditionViolation,
    UnsupportedScale,
)
from mrpower.measures import ere_lower_bounds
from mrpower.operators import EIG_CLIP
from mrpower.suites import SUITES

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
        channel = ref.identity_channel(3)
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
        converted = mp.conversion_channel(ref.identity_channel(2))
        assert mp.classify_channel(converted).cptp

    def test_output_is_dephased(self):
        rng = mp.SeededRng(402)
        channel = mp.random_channel(2, 3, "general", rng)
        converted = mp.conversion_channel(channel)
        redephased = mp.compose(mp.dephasing_channel(4), converted)
        assert ref.channels_equal(redephased, converted)

    def test_free_input_keeps_zero_certificate(self):
        certificate = mp.conversion_ent_lower_bound(mp.dephasing_channel(2))
        assert certificate.cohering_power == pytest.approx(0.0, abs=1e-9)
        assert certificate.avg_ere_lower_bound == pytest.approx(0.0, abs=1e-9)


def composed_conversion_channel(channel):
    """dephase . (E (x) id) . CNOT^dag as written, from every product of
    the Kraus sets: the reference for `conversion_channel`."""
    d = channel.dim_in
    pre = mp.unitary_channel(mp.cnot_matrix(d).conj().T)
    extended = mp.compose(ref.extend_with_identity(channel, d), pre)
    return mp.compose(mp.dephasing_channel(d * d), extended)


def conversion_inputs(dim, seed):
    rng = mp.SeededRng(seed)
    return {
        "full_rank": mp.random_channel(dim, dim * dim, "general", rng.spawn(0)),
        "rank_2": mp.random_channel(dim, 2, "general", rng.spawn(1)),
        "haar_unitary": mp.unitary_channel(mp.haar_unitary(dim, rng.spawn(2))),
        "dephasing": mp.dephasing_channel(dim),
    }


class TestConversionChannelMatchesComposition:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_same_channel_and_minimal_kraus_count(self, dim):
        for name, channel in conversion_inputs(dim, 420 + dim).items():
            converted = mp.conversion_channel(channel)
            reference = composed_conversion_channel(channel)
            assert ref.choi_distance(converted, reference) <= 1e-12, name
            choi_rank = np.count_nonzero(np.linalg.eigvalsh(ref.choi(reference)) > EIG_CLIP)
            assert converted.kraus.shape[0] == choi_rank, name
            assert converted.kraus.shape[0] <= dim**3, name

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pulled_back_elements_give_the_certificate_bounds(self, dim):
        for name, channel in conversion_inputs(dim, 430 + dim).items():
            pulled = mp.pulled_back_basis(mp.conversion_channel(channel))
            np.testing.assert_allclose(
                ere_lower_bounds(pulled.stack, (dim, dim)),
                mp.conversion_ent_lower_bound(channel).per_element_bounds,
                rtol=0,
                atol=1e-12,
                err_msg=name,
            )


class TestConversionCertificate:
    def test_g_channel_certificate(self):
        certificate = mp.conversion_ent_lower_bound(mp.example_channels()["g"])
        assert certificate.cohering_power == pytest.approx(1.0, abs=1e-9)
        assert certificate.avg_ere_lower_bound == pytest.approx(1.0, abs=1e-9)
        assert certificate.gap <= 1e-9

    def test_identity_certificate(self):
        certificate = mp.conversion_ent_lower_bound(ref.identity_channel(2))
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

    def test_closes_the_gap_above_the_cli_cap(self):
        channel = mp.random_channel(7, 49, "general", mp.SeededRng(408))
        certificate = mp.conversion_ent_lower_bound(channel)
        assert certificate.gap <= 1e-9
        assert len(certificate.per_element_bounds) == 49


def per_element_certificate_bounds(channel):
    """The certificate's bounds one embedded element at a time."""
    d = channel.dim_in
    u = mp.cnot_matrix(d)
    bounds = []
    for pulled in mp.pullback_povm(channel, mp.basis_measurement(d)).stack:
        for j in range(d):
            embedded = u @ np.kron(pulled, ref.basis_projector(j, d).matrix) @ u.conj().T
            bounds.append(ref.ere_lower_bound(mp.HermitianOperator(embedded), (d, d)))
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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_composite_bound(self, dim):
        rng = mp.SeededRng(412 + dim)  # 414 at d = 2
        dd = dim * dim
        for i in range(5):
            channel = mp.random_channel(dim, 1 + i % dd, "general", rng.spawn(3 * i))
            k = mp.random_dio(dd, bool(i % 2), rng.spawn(3 * i + 1))
            l = mp.random_dio(dd, True, rng.spawn(3 * i + 2))
            composite = mp.compose(
                mp.dephasing_channel(dd),
                mp.compose(k, mp.compose(ref.extend_with_identity(channel, dim), l)),
            )
            pulled = mp.pullback_povm(composite, mp.basis_measurement(dd))
            expected = np.mean([ref.ere_lower_bound(mp.HermitianOperator(el), (dim, dim))
                                for el in pulled.stack])
            proxy = mp.composite_ent_lower_bound(channel, k, l)
            assert proxy == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_state_cohering_power(self, dim):
        rng = mp.SeededRng(415 + dim)
        entropy = ref.von_neumann_entropy
        for i in range(5):
            rank = int(rng.spawn(2 * i).gen.integers(1, dim * dim + 1))
            channel = mp.random_channel(dim, rank, "general", rng.spawn(2 * i + 1))
            images = [mp.HermitianOperator(mp.images(channel, ref.basis_projector(j, dim).matrix))
                      for j in range(dim)]
            expected = max(entropy(ref.dephase(rho)) - entropy(rho) for rho in images)
            assert mp.state_cohering_power(channel) == pytest.approx(expected, abs=1e-12)


class TestBatchesAreTheirScalarsBitForBit:
    """Each batch of the powers gives, for every channel, the bits of its
    scalar, which is the batch of one."""

    @staticmethod
    def channels(dim, seed):
        rng = mp.SeededRng(seed)
        return [mp.random_channel(dim, rank, kind, rng.spawn(rank))
                for rank in (1, 2, dim * dim) for kind in ("general", "unital")]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cohering_powers(self, dim):
        channels = self.channels(dim, 420 + dim)
        for batch, scalar in (
            (mp.powers.measurement_cohering_powers, mp.measurement_cohering_power),
            (mp.powers.state_cohering_powers, mp.state_cohering_power),
        ):
            assert [v.hex() for v in batch(channels)] == [scalar(e).hex() for e in channels]
            assert batch([]) == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_certificates(self, dim):
        channels = self.channels(dim, 422 + dim)
        batch = mp.powers.conversion_ent_lower_bounds(
            [mp.powers.conversion_operands(e) for e in channels]
        )
        assert batch == [mp.conversion_ent_lower_bound(e) for e in channels]
        assert mp.powers.conversion_ent_lower_bounds([]) == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_composite_bounds(self, dim):
        rng = mp.SeededRng(424 + dim)
        dd = dim * dim
        triples = [(e, mp.random_dio(dd, bool(i % 2), rng.spawn(2 * i)),
                    mp.random_dio(dd, True, rng.spawn(2 * i + 1)))
                   for i, e in enumerate(self.channels(dim, 426 + dim))]
        batch = mp.powers.composite_ent_lower_bounds(
            [mp.powers.composite_elements(*triple) for triple in triples]
        )
        assert [v.hex() for v in batch] == [
            mp.composite_ent_lower_bound(*triple).hex() for triple in triples
        ]
        assert mp.powers.composite_ent_lower_bounds([]) == []

    def test_channels_of_two_dimensions_are_refused(self):
        pair = [mp.example_channels()["hadamard"], mp.dephasing_channel(3)]
        with pytest.raises(DimensionMismatch):
            mp.powers.measurement_cohering_powers(pair)
        with pytest.raises(DimensionMismatch):
            mp.powers.state_cohering_powers(pair)

    @pytest.mark.parametrize("order", [1, -1])
    def test_operands_of_two_dimensions_are_refused(self, order):
        """Both list forms over the (d^2, d^2, d^2) element stacks refuse a
        batch of two dimensions, in either order."""
        pair = [mp.example_channels()["hadamard"], mp.dephasing_channel(3)][::order]
        operands = [mp.powers.conversion_operands(e) for e in pair]
        with pytest.raises(DimensionMismatch, match="across the batch"):
            mp.powers.conversion_ent_lower_bounds(operands)
        with pytest.raises(DimensionMismatch, match="across the batch"):
            mp.powers.composite_ent_lower_bounds([elements for _, elements in operands])


class TestCompositeBound:
    def test_identity_sandwich_of_g(self):
        g = mp.example_channels()["g"]
        proxy = mp.composite_ent_lower_bound(g, ref.identity_channel(4), ref.identity_channel(4))
        assert proxy <= mp.measurement_cohering_power(g) + 1e-8

    def test_free_core_channel(self):
        rng = mp.SeededRng(405)
        free = mp.random_dio(2, False, rng)
        proxy = mp.composite_ent_lower_bound(free, ref.identity_channel(4), ref.identity_channel(4))
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
            mp.composite_ent_lower_bound(g, coherent, ref.identity_channel(4))

    def test_rejects_non_unital_l(self):
        g = mp.example_channels()["g"]
        rng = mp.SeededRng(407)
        non_unital = mp.random_dio(4, False, rng)
        with pytest.raises(PreconditionViolation):
            mp.composite_ent_lower_bound(g, ref.identity_channel(4), non_unital)


def duality_sides(channel):
    """C_g of a unital channel and C of its adjoint, the two sides that the
    `duality` suite compares."""
    c_adj = mp.measurement_cohering_power(mp.adjoint_channel(channel))
    return mp.state_cohering_power(channel), c_adj


def sandwich_holds(c_g, c_adj, d, tol=1e-8):
    """c_g / d <= C(adjoint) <= c_g within the `duality` suite's tolerance."""
    return c_g / d - tol <= c_adj <= c_g + tol


class TestDuality:
    def test_hadamard(self):
        c_g, c_adj = duality_sides(mp.unitary_channel(HADAMARD))
        assert c_g == pytest.approx(1.0, abs=1e-9)
        assert c_adj == pytest.approx(1.0, abs=1e-9)
        assert sandwich_holds(c_g, c_adj, 2)

    def test_identity(self):
        c_g, c_adj = duality_sides(ref.identity_channel(2))
        assert c_g == pytest.approx(0.0, abs=1e-12)
        assert c_adj == pytest.approx(0.0, abs=1e-12)
        assert sandwich_holds(c_g, c_adj, 2)

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnital):
            mp.adjoint_channel(mp.example_channels()["prep"])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_unital_channels(self, dim):
        rng = mp.SeededRng(408 + dim)
        for i in range(30):
            rank = int(rng.spawn(2 * i).gen.integers(1, dim * dim + 1))
            channel = mp.random_channel(dim, rank, "unital", rng.spawn(2 * i + 1))
            c_g, c_adj = duality_sides(channel)
            assert sandwich_holds(c_g, c_adj, dim)
            images = [mp.images(channel, ref.basis_projector(i, dim).matrix) for i in range(dim)]
            average = sum(
                mp.relative_entropy_of_coherence(mp.HermitianOperator(image)) for image in images
            ) / dim
            assert c_adj == pytest.approx(average, abs=1e-10)


class TestConvexitySuiteMatchesTheMixedChannel:
    """`power_convexity` takes C of the mixture from the mixed pulled-back
    bases. That value equals C of the mixture channel, the union of the
    weighted Kraus sets, to rounding (within 1e-15), and every trial value
    is, bit for bit, the one the mixed pulled-back bases give. The trial
    values alone would pin little: clipped at zero, they are all 0.0 for
    these seeds."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_trial_values(self, dim):
        trials, seed = 100, 42
        report = mp.run_suite("power_convexity", dim, trials, seed)
        suite_rng = mp.SeededRng(seed).spawn(SUITES["power_convexity"].stream)
        expected = []
        for index in range(trials):
            rng = suite_rng.spawn(index)
            first = mp.random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
            second = mp.random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
            p = float(rng.gen.uniform())
            mixed = mp.measurement_cohering_power(ref.mix_channels(first, second, p))
            pulled = mp.mix_povm(mp.pulled_back_basis(first), mp.pulled_back_basis(second), p)
            assert mixed == pytest.approx(mp.measurement_coherence(pulled), rel=0, abs=1e-15)
            mixed = mp.measurement_coherence(pulled)
            bound = p * mp.measurement_cohering_power(first) + (1.0 - p) * (
                mp.measurement_cohering_power(second)
            )
            expected.append(max(0.0, mixed - bound))
        assert [v.hex() for v in report.trial_values] == [v.hex() for v in expected]


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
            mixed = mp.measurement_cohering_power(ref.mix_channels(first, second, p))
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
            left = ref.permutation_channel(rng.spawn(3 * i + 1).gen.permutation(dim))
            right = ref.permutation_channel(rng.spawn(3 * i + 2).gen.permutation(dim))
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

    def test_square_povm_embeds_as_its_own_channel(self):
        rng = mp.SeededRng(417)
        for d in (2, 3, 4):
            povm = mp.random_povm(d, d, False, rng.spawn(d))
            square = mp.measurement_as_square_channel(povm)
            assert square.kraus.tobytes() == mp.measurement_as_channel(povm).kraus.tobytes()

    def test_padded_outputs_are_silent(self):
        rng = mp.SeededRng(415)
        povm = mp.random_povm(3, 2, False, rng)
        channel = mp.measurement_as_square_channel(povm)
        assert (channel.dim_in, channel.dim_out) == (3, 3)

    def test_rejects_more_outcomes_than_dimensions(self):
        rng = mp.SeededRng(416)
        with pytest.raises(UnsupportedScale):
            mp.measurement_as_square_channel(mp.random_povm(2, 3, False, rng))
