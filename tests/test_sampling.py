import hashlib
import platform

import numpy as np
import pytest

import mrpower as mp
import reference as ref
from mrpower import sampling
from mrpower.errors import InvalidRank, SingularTotal


class TestSeededRng:
    def test_splitmix_is_deterministic(self):
        assert mp.splitmix64(42, 0) == mp.splitmix64(42, 0)
        assert mp.splitmix64(42, 0) != mp.splitmix64(42, 1)
        assert mp.splitmix64(42, 0) != mp.splitmix64(43, 0)

    def test_same_seed_replays_bits(self):
        a = mp.haar_unitary(4, mp.SeededRng(7))
        b = mp.haar_unitary(4, mp.SeededRng(7))
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        root = mp.SeededRng(7)
        a = mp.haar_unitary(4, root.spawn(0))
        b = mp.haar_unitary(4, root.spawn(1))
        assert not np.allclose(a, b)

    def test_channel_reproducibility(self):
        first = mp.random_channel(3, 4, "general", mp.SeededRng(99))
        second = mp.random_channel(3, 4, "general", mp.SeededRng(99))
        assert np.array_equal(first.kraus, second.kraus)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = mp.haar_unitary(1, mp.SeededRng(1))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        rng = mp.SeededRng(2)
        for i in range(100):
            u = mp.haar_unitary(4, rng.spawn(i))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_first_entry_moment(self):
        # Haar moment E|U_ij|^2 = 1/d
        rng = mp.SeededRng(3)
        values = [abs(mp.haar_unitary(2, rng.spawn(i))[0, 0]) ** 2 for i in range(10_000)]
        assert np.mean(values) == pytest.approx(0.5, abs=0.02)


class TestRandomChannel:
    def test_general_is_cptp(self):
        rng = mp.SeededRng(4)
        for i in range(100):
            rank = int(rng.spawn(2 * i).gen.integers(1, 10))
            channel = mp.random_channel(3, rank, "general", rng.spawn(2 * i + 1))
            assert mp.classify_channel(channel).cptp

    def test_unital_kind(self):
        rng = mp.SeededRng(5)
        for i in range(100):
            rank = int(rng.spawn(2 * i).gen.integers(1, 5))
            channel = mp.random_channel(2, rank, "unital", rng.spawn(2 * i + 1))
            assert mp.classify_channel(channel).unital

    def test_rank_one_preserves_purity(self):
        rng = mp.SeededRng(6)
        channel = mp.random_channel(3, 1, "general", rng.spawn(0))
        vec = rng.spawn(1).gen.standard_normal(3) + 1j * rng.spawn(2).gen.standard_normal(3)
        rho = ref.projector(vec / np.linalg.norm(vec))
        out = mp.images(channel, rho.matrix)
        purity = np.trace(out @ out).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rank_one_general_draw_is_a_haar_unitary(self, d):
        """On each stream the one Kraus operator of a rank-1 general draw is
        `haar_unitary(d, rng)` byte for byte, and the stream ends where that
        draw leaves it."""
        for seed in range(13):
            rng, ref_rng = mp.SeededRng(8000 + seed), mp.SeededRng(8000 + seed)
            [kraus] = mp.random_channel(d, 1, "general", rng).kraus
            assert kraus.tobytes() == mp.haar_unitary(d, ref_rng).tobytes()
            assert rng.gen.integers(1 << 62) == ref_rng.gen.integers(1 << 62)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            mp.random_channel(2, 5, "general", mp.SeededRng(7))


class TestBatchedDrawsMatchOneByOne:
    """The batched Haar and Ginibre draws give the same bytes as drawing one
    matrix after another, and leave the stream at the same position."""

    @staticmethod
    def assert_same_draws_and_stream(batched, one_by_one, seed):
        rng, ref_rng = mp.SeededRng(seed), mp.SeededRng(seed)
        assert batched(rng).tobytes() == one_by_one(ref_rng).tobytes()
        assert rng.gen.standard_normal() == ref_rng.gen.standard_normal()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unital_channel_kraus(self, d):
        for rank in range(1, d * d + 1):
            for seed in range(20):
                self.assert_same_draws_and_stream(
                    lambda rng: mp.random_channel(d, rank, "unital", rng).kraus,
                    lambda rng: ref.unital_kraus(d, rank, rng),
                    1000 * d + 50 * rank + seed,
                )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coherent_povm_blocks(self, d):
        for n in range(2, d * d + 1):
            for seed in range(20):
                self.assert_same_draws_and_stream(
                    lambda rng: sampling._ginibre(d, d, [(n,)], [rng]),
                    lambda rng: ref.coherent_povm_blocks(d, n, rng),
                    2000 * d + 50 * n + seed,
                )

    def test_isometry_stack_of_any_shape(self):
        self.assert_same_draws_and_stream(
            lambda rng: mp.haar_isometry(5, 2, rng, (2, 3)),
            lambda rng: np.array([[ref.haar_isometry(5, 2, rng) for _ in range(3)]
                                  for _ in range(2)]),
            7,
        )


    # block sampler -> (d, ranks, ns, flags, rngs) -> each stream's array, and
    # its scalar -> (d, rank, n, flag, rng) -> the array of one draw
    BLOCK_DRAWS = {
        "random_channels_general": (
            lambda d, ranks, ns, flags, rngs: [
                c.kraus for c in sampling.random_channels(d, ranks, "general", rngs)],
            lambda d, rank, n, flag, rng: mp.random_channel(d, rank, "general", rng).kraus),
        "random_channels_unital": (
            lambda d, ranks, ns, flags, rngs: [
                c.kraus for c in sampling.random_channels(d, ranks, "unital", rngs)],
            lambda d, rank, n, flag, rng: mp.random_channel(d, rank, "unital", rng).kraus),
        "random_channels_rank_one": (
            lambda d, ranks, ns, flags, rngs: [
                c.kraus for c in sampling.random_channels(d, [1] * len(rngs), "general", rngs)],
            lambda d, rank, n, flag, rng: mp.unitary_channel(mp.haar_unitary(d, rng)).kraus),
        "haar_isometries": (
            lambda d, ranks, ns, flags, rngs: sampling.haar_isometries(
                d * d, d, [(rank % 3,) * (rank % 2) for rank in ranks], rngs),
            lambda d, rank, n, flag, rng: mp.haar_isometry(d * d, d, rng, (rank % 3,) * (rank % 2))),
        "random_povms": (
            lambda d, ranks, ns, flags, rngs: [
                p.stack for p in sampling.random_povms(d, ns, flags, rngs)],
            lambda d, rank, n, flag, rng: mp.random_povm(d, n, flag, rng).stack),
        "random_dios": (
            lambda d, ranks, ns, flags, rngs: [
                c.kraus for c in sampling.random_dios(d, flags, rngs)],
            lambda d, rank, n, flag, rng: mp.random_dio(d, flag, rng).kraus),
    }

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("sampler", list(BLOCK_DRAWS))
    def test_block_of_mixed_shapes(self, sampler, d):
        """A block of streams with Kraus ranks 1..d^2, outcome counts
        2..d+1 and mixed unital and coherence flags draws each stream's
        operands bit for bit as one draw alone does, and leaves each stream
        where one draw alone leaves it."""
        block, alone = self.BLOCK_DRAWS[sampler]
        ranks = list(range(1, d * d + 1)) * 2
        ns = [2 + rank % d for rank in ranks]
        flags = [rank % 3 == 0 for rank in ranks]
        seeds = [3000 * d + t for t in range(len(ranks))]
        rngs, ref_rngs = [mp.SeededRng(s) for s in seeds], [mp.SeededRng(s) for s in seeds]
        drawn = block(d, ranks, ns, flags, rngs)
        assert len(drawn) == len(ranks)
        for array, rank, n, flag, rng in zip(drawn, ranks, ns, flags, ref_rngs):
            expected = alone(d, rank, n, flag, rng)
            assert array.shape == expected.shape and array.tobytes() == expected.tobytes()
        assert [r.gen.integers(1 << 62) for r in rngs] == [r.gen.integers(1 << 62) for r in ref_rngs]

    def test_povms_of_one_dimension_and_many_outcomes(self):
        """At d = 1 numpy sums a stream's n Wishart blocks pairwise once n
        reaches 8, so a stream's total depends on its own outcome count
        only: a block that mixes counts up to 30 still draws each POVM bit
        for bit as it is drawn alone."""
        ns = [9, 20, 3, 30, 8, 2]
        flags = [False, False, False, False, True, True]
        for block in range(25):
            seeds = [7100 + 10 * block + t for t in range(len(ns))]
            drawn = sampling.random_povms(1, ns, flags, [mp.SeededRng(s) for s in seeds])
            for povm, n, flag, seed in zip(drawn, ns, flags, seeds):
                alone = mp.random_povm(1, n, flag, mp.SeededRng(seed))
                assert povm.stack.tobytes() == alone.stack.tobytes()

    def test_a_singular_total_draws_again_from_its_own_stream(self, monkeypatch):
        """With EIG_CLIP raised so that some streams' totals count as
        singular, each such stream draws again at once, as the one-by-one
        reference does, and every stream ends where the reference leaves it."""
        clip, d = 2.0, 2
        ns = [2 + t % 2 for t in range(20)]
        seeds = [7200 + t for t in range(20)]
        default = [p.stack for p in sampling.random_povms(
            d, ns, [False] * 20, [mp.SeededRng(s) for s in seeds])]
        monkeypatch.setattr(sampling, "EIG_CLIP", clip)
        rngs, ref_rngs = [mp.SeededRng(s) for s in seeds], [mp.SeededRng(s) for s in seeds]
        drawn = [p.stack for p in sampling.random_povms(d, ns, [False] * 20, rngs)]
        for stack, n, rng in zip(drawn, ns, ref_rngs):
            assert stack.tobytes() == ref.coherent_povm(d, n, rng, clip).tobytes()
        assert [r.gen.integers(1 << 62) for r in rngs] == [r.gen.integers(1 << 62) for r in ref_rngs]
        # six streams drew again, one of them five times
        assert sum(a.tobytes() != b.tobytes() for a, b in zip(drawn, default)) == 6

    def test_a_total_that_stays_singular_raises_after_ten_draws(self, monkeypatch):
        monkeypatch.setattr(sampling, "EIG_CLIP", np.inf)
        rng, ref_rng = mp.SeededRng(7300), mp.SeededRng(7300)
        with pytest.raises(SingularTotal, match="after 10 redraws"):
            mp.random_povm(3, 4, False, rng)
        ref_rng.gen.standard_normal((10, 4, 2, 3, 3))
        assert rng.gen.integers(1 << 62) == ref_rng.gen.integers(1 << 62)


@pytest.mark.parametrize("draw, message", [
    (lambda rng: mp.haar_isometry(2, 3, rng), "1 <= cols <= rows"),
    (lambda rng: mp.random_povm(0, 2, False, rng), "dimension must be at least 1"),
    (lambda rng: mp.random_povm(0, 2, True, rng), "dimension must be at least 1"),
    (lambda rng: mp.random_stochastic_matrix(0, 2, rng), "a row and a column"),
    (lambda rng: mp.random_channel(0, 0, "general", rng), "dimension must be at least 1"),
    (lambda rng: sampling.random_povms(2, [2, 2], [False], [rng, rng]), "1 parameters"),
    (lambda rng: sampling.random_channels(2, [1], "general", [rng, rng]), "1 parameters"),
], ids=["wide_isometry", "coherent_povm_d0", "incoherent_povm_d0", "stochastic_matrix_no_rows",
        "channel_d0", "povm_parameters_and_streams_differ", "channel_ranks_and_streams_differ"])
def test_a_sampler_refuses_an_empty_or_impossible_shape(draw, message):
    """A shape with no entries, an isometry with more columns than rows and
    per-stream parameters that do not match the streams raise ValueError
    before the stream is read."""
    rng = mp.SeededRng(10)
    with pytest.raises(ValueError, match=message):
        draw(rng)
    assert rng._gen is None


# sampler -> (d, rng) -> the array of one draw
STREAM_DRAWS = {
    "haar_isometry": lambda d, rng: mp.haar_isometry(2 * d, d, rng),
    "random_channel_general": lambda d, rng: mp.random_channel(d, d, "general", rng).kraus,
    "random_channel_unital": lambda d, rng: mp.random_channel(d, d, "unital", rng).kraus,
    "random_dio_general": lambda d, rng: mp.random_dio(d, False, rng).kraus,
    "random_dio_unital": lambda d, rng: mp.random_dio(d, True, rng).kraus,
    "random_povm_coherent": lambda d, rng: mp.random_povm(d, d + 1, False, rng).stack,
    "random_povm_incoherent": lambda d, rng: mp.random_povm(d, d + 1, True, rng).stack,
    "random_stochastic_matrix": lambda d, rng: mp.random_stochastic_matrix(d + 1, d, rng).entries,
}
STREAM_DIMS = (2, 3, 4)
STREAM_SEEDS = range(5)
# the digests depend on numpy's generators and LAPACK, so they hold under
# this numpy on this machine type only
STREAM_ENVIRONMENT = {"numpy": "2.4.6", "machine": "x86_64"}
STREAM_DIGESTS = {
    "haar_isometry d2": "1044b79e76a3237012a0bf45d07dcceb",
    "haar_isometry d3": "9bdcdede937df8fd02e30258ef5b50a6",
    "haar_isometry d4": "f6a302580a938377b02169f121bb8299",
    "random_channel_general d2": "79dd4afb6b661f0a3fd2174785b23054",
    "random_channel_general d3": "182b57d9b11617fdd1989e68c7868239",
    "random_channel_general d4": "e065cac6b196514bc72a6099542bb1d3",
    "random_channel_unital d2": "82b82f35eec6793f0d722bb8a19f5e19",
    "random_channel_unital d3": "65ecb5a6a1b27babb5c3c37dad5f3249",
    "random_channel_unital d4": "ddb7258e01ce02992458021151b3b1cc",
    "random_dio_general d2": "b6f7f1e72b3774a61280f2219997a682",
    "random_dio_general d3": "9c9139eb06e474df40980fbb4f430e10",
    "random_dio_general d4": "bec11ec88f4758dfb46ca09872598eb2",
    "random_dio_unital d2": "d7d405d071995d055d62da8c9aca571c",
    "random_dio_unital d3": "6cc9becbd3b451798f6885601a2c4330",
    "random_dio_unital d4": "6c8cbec262c205ed515f2801e6e3c083",
    "random_povm_coherent d2": "ca4547b9985367eb7b7661d9d6e7db07",
    "random_povm_coherent d3": "9eb67132f6dc91019768d5037502b55d",
    "random_povm_coherent d4": "c3bf2ab7ce7a143cb7ca72c9cbc0eceb",
    "random_povm_incoherent d2": "d2949c310d3051c6a0227d3dd23bed40",
    "random_povm_incoherent d3": "944afecd3307fb891ba3a43ce79706bb",
    "random_povm_incoherent d4": "a60911f2af8c4c0dc4b2a5665fbbcca3",
    "random_stochastic_matrix d2": "5f23510220289e0be4f245fa286d70bc",
    "random_stochastic_matrix d3": "c40aa2c915010995eb47288054f11769",
    "random_stochastic_matrix d4": "ff3e0e69614998f838f074346e36dd64",
}


def stream_digest(sampler: str, d: int) -> str:
    """blake2b of the shape, dtype and bytes of the draws from SeededRng(seed)
    for each seed of STREAM_SEEDS, each followed by the stream's next
    integer, which pins how much of the stream the draw used."""
    digest = hashlib.blake2b(digest_size=16)
    for seed in STREAM_SEEDS:
        rng = mp.SeededRng(1000 * d + seed)
        draw = STREAM_DRAWS[sampler](d, rng)
        digest.update(f"{draw.shape} {draw.dtype.str} ".encode())
        digest.update(draw.tobytes())
        digest.update(int(rng.gen.integers(1 << 62)).to_bytes(8, "little"))
    return digest.hexdigest()


def test_sampler_streams_match_recorded_digests():
    """Every sampler draws the same bytes from a fixed seed and leaves its
    stream at the same place; print `stream_digest` of every pair to record
    the digests again after a change that alters a draw on purpose."""
    here = {"numpy": np.__version__, "machine": platform.machine()}
    assert here == STREAM_ENVIRONMENT, (
        f"digests recorded under {STREAM_ENVIRONMENT}, run under {here}"
    )
    digests = {f"{sampler} d{d}": stream_digest(sampler, d)
               for sampler in STREAM_DRAWS for d in STREAM_DIMS}
    assert digests == STREAM_DIGESTS


class TestRandomDio:
    def test_always_detection_incoherent(self):
        rng = mp.SeededRng(8)
        for i in range(50):
            unital = bool(i % 2)
            channel = mp.random_dio(3, unital, rng.spawn(i))
            flags = mp.classify_channel(channel)
            assert flags.dio
            if unital:
                assert flags.unital

    def test_free_channels_have_no_power(self):
        rng = mp.SeededRng(9)
        for i in range(100):
            channel = mp.random_dio(2, bool(i % 2), rng.spawn(i))
            assert mp.measurement_cohering_power(channel) <= 1e-9

    @pytest.mark.parametrize("unital", [False, True])
    def test_rejects_dimension_below_two(self, unital):
        with pytest.raises(ValueError, match="at least 2"):
            mp.random_dio(1, unital, mp.SeededRng(10))

    @pytest.mark.parametrize("unital", [False, True])
    def test_pulls_each_basis_projector_back_to_its_q_row(self, unital):
        """K^dag(|n><n|) = sum_m q(n|m) |m><m| for a column-stochastic q
        (doubly stochastic when unital) with no off-diagonal entry at all."""
        rng = mp.SeededRng(11)
        for d in (2, 3, 4):
            for i in range(5):
                pulled = mp.pulled_back_basis(mp.random_dio(d, unital, rng.spawn(10 * d + i)))
                assert np.count_nonzero(pulled.stack[:, ~np.eye(d, dtype=bool)]) == 0
                q = pulled.stack.diagonal(axis1=1, axis2=2)
                assert np.all(q.real >= 0) and np.abs(q.imag).max() <= 1e-15
                np.testing.assert_allclose(q.sum(axis=0), 1.0, rtol=0, atol=1e-12)
                if unital:
                    np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 9])
    def test_shift_form_pulls_back_as_the_classical_channel_of_q(self, d):
        """A non-unital draw holds d monomial operators, the shift form of the
        q that its stream's Dirichlet columns give, and its pulled-back basis
        equals that of the classical channel of q, read off that channel's
        dense diagonal Choi matrix, within 1e-15."""
        for seed in range(1100 + 10 * d, 1105 + 10 * d):
            channel = mp.random_dio(d, False, mp.SeededRng(seed))
            assert channel.kraus.shape == (d, d, d)
            assert (np.count_nonzero(channel.kraus, axis=1) <= 1).all()
            q = ref.dirichlet_columns(d, d, mp.SeededRng(seed))
            expected = ref.choi_pulled_back_basis(ref.classical_choi(q), d)
            np.testing.assert_allclose(
                mp.pulled_back_basis(channel).stack, expected, rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unital_draw_mixes_three_phased_permutations(self, d):
        """A unital draw holds sqrt(w_k) U_k for Dirichlet weights w and three
        permutations U_k with unit-modulus phases, and keeps the coherence of
        |+><+|, which the classical channel of its q would remove."""
        rng = mp.SeededRng(12)
        plus = np.full((d, d), 1.0 / d)
        for i in range(5):
            channel = mp.random_dio(d, True, rng.spawn(i))
            kraus = channel.kraus
            support = kraus != 0
            assert kraus.shape == (3, d, d)
            assert (support.sum(axis=1) == 1).all() and (support.sum(axis=2) == 1).all()
            weights = (np.abs(kraus) ** 2).sum(axis=(1, 2)) / d
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                np.abs(kraus), np.sqrt(weights)[:, None, None] * support, rtol=0, atol=1e-15
            )
            image = mp.images(channel, plus)
            assert largest_off_diagonal(mp.Povm._from_valid(image[None])) > 1e-3

    @pytest.mark.parametrize("d", [2, 3])
    def test_classical_channel_of_q_reads_as_the_dephased_channel(self, d):
        """A general channel after the dephasing channel on D = d^2 and the
        classical channel of its basis statistics q(n|m), built from the
        Kraus set sqrt(q(n|m)) |n><m|, give the same pulled-back basis and
        the same composite bound, so drawing q loses no composite."""
        dd = d * d
        rng = mp.SeededRng(270 + d)
        for i in range(10):
            sub = rng.spawn(i)
            g = mp.random_channel(dd, int(sub.gen.integers(1, dd * dd + 1)), "general", sub)
            dephased = mp.compose(g, mp.dephasing_channel(dd))
            q = mp.decompose_incoherent(mp.pulled_back_basis(dephased)).post.entries
            kraus = np.zeros((dd, dd, dd, dd), dtype=complex)
            n, m = np.meshgrid(np.arange(dd), np.arange(dd), indexing="ij")
            kraus[n, m, n, m] = np.sqrt(q)  # operator (n, m) is sqrt(q(n|m)) |n><m|
            classical = mp.QuantumChannel(kraus.reshape(dd * dd, dd, dd))
            np.testing.assert_allclose(
                mp.pulled_back_basis(classical).stack,
                mp.pulled_back_basis(dephased).stack, rtol=0, atol=1e-15,
            )
            e = mp.random_channel(d, int(sub.gen.integers(1, dd + 1)), "general", sub)
            l = mp.random_dio(dd, True, sub)
            assert mp.composite_ent_lower_bound(e, classical, l) == pytest.approx(
                mp.composite_ent_lower_bound(e, dephased, l), rel=0, abs=1e-15
            )


def largest_off_diagonal(povm) -> float:
    """Largest absolute off-diagonal entry over the elements of a POVM."""
    return float(np.max(np.abs(povm.stack[:, ~np.eye(povm.dim, dtype=bool)])))


class TestRandomPovm:
    def test_completeness(self):
        rng = mp.SeededRng(10)
        for i in range(200):
            d = int(rng.spawn(3 * i).gen.integers(2, 5))
            n = int(rng.spawn(3 * i + 1).gen.integers(2, 6))
            povm = mp.random_povm(d, n, bool(i % 2), rng.spawn(3 * i + 2))
            total = povm.stack.sum(axis=0)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-9

    def test_incoherent_flag(self):
        rng = mp.SeededRng(11)
        for i in range(50):
            povm = mp.random_povm(3, 4, True, rng.spawn(i))
            assert largest_off_diagonal(povm) <= 1e-10
            assert mp.measurement_coherence(povm) <= 1e-9

    def test_coherent_draws_are_coherent(self):
        rng = mp.SeededRng(12)
        povm = mp.random_povm(2, 2, False, rng)
        assert largest_off_diagonal(povm) > 1e-6


class TestGeneratorPredicates:
    def test_thousand_draws_pass_class_predicates(self):
        # 250 rounds x 4 generators = 10^3 draws, zero predicate failures
        rng = mp.SeededRng(14)
        for i in range(250):
            d = 2 + (i % 2)
            sub = rng.spawn(i)
            general = mp.random_channel(d, int(sub.gen.integers(1, d * d + 1)), "general", sub)
            assert mp.classify_channel(general).cptp
            unital = mp.random_channel(d, int(sub.gen.integers(1, d * d + 1)), "unital", sub)
            flags = mp.classify_channel(unital)
            assert flags.cptp and flags.unital
            free = mp.random_dio(d, bool(sub.gen.integers(0, 2)), sub)
            assert mp.classify_channel(free).dio
            povm = mp.random_povm(
                d, int(sub.gen.integers(2, 5)), bool(sub.gen.integers(0, 2)), sub
            )
            total = povm.stack.sum(axis=0)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-9


class TestExampleChannels:
    def test_all_entries_are_cptp(self):
        for name, channel in mp.example_channels().items():
            assert mp.classify_channel(channel).cptp, name

    def test_expected_keys(self):
        assert set(mp.example_channels()) == {
            "prep",
            "g",
            "hadamard",
            "qubit_dephase",
            "cnot2",
        }

    def test_prep_discards_input(self):
        prep = mp.example_channels()["prep"]
        rng = mp.SeededRng(13)
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        for i in range(5):
            rho = ref.random_density(2, rng.spawn(i))
            np.testing.assert_allclose(mp.images(prep, rho), plus.matrix, atol=1e-12)

    def test_g_measures_in_plus_minus_basis(self):
        g = mp.example_channels()["g"]
        plus = ref.projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(
            mp.images(g, plus.matrix), ref.basis_projector(0, 2).matrix, atol=1e-12
        )

    def test_cnot_entry_matches_generator(self):
        assert ref.channels_equal(mp.example_channels()["cnot2"], mp.cnot_unitary(2))
