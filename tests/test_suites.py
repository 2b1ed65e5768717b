"""The named, signed check margins that each verify trial returns."""

import math

import numpy as np
import pytest

import mrpower as mp
from mrpower import suites

# Every check of every suite. A one-sided check maps to the smallest margin
# it takes over the trials of run_suite(suite, d, 100, 42) at d = 2 and 3,
# which the clipped trial values hide; an equality check maps to None. A
# change to the samplers moves these minima and records them again.
CHECKS = {
    "dm_properties": {
        "nonnegativity": (0.11394781543760452, 0.27113465463189),
        "self_divergence": None,
        "data_processing": (-3.1086244689504383e-15, -1.1102230246251565e-15),
        "unitary_invariance": None,
        "postprocessing": (0.06825313370728031, 0.22497385262212105),
        "tensor_additivity": None,
        "joint_convexity": (0.03857605964563071, 0.005823775304542256),
    },
    "cm_faithfulness": {
        "incoherent_vanishes": None,
        "nonnegativity": (0.007790610305459189, 0.11535395329977409),
    },
    "cm_oracle": {
        "attainment": None,
        "random_incoherent": (0.003013246898610822, 0.010658900588704084),
        "near_minimizer": (-1.1102230246251565e-16, -7.28583859910259e-17),
    },
    "structure_lemma": {"reconstruction": None, "column_sums": None},
    "power_monotone": {
        "nonnegativity": (0.00015585933385470208, 0.03854338037755515),
        "sandwich": (0.00015199738691645814, 0.038165981779620495),
        "free_vanishes": None,
    },
    "power_convexity": {"convexity": (0.0016764273908720234, 0.009810194775303649)},
    "conversion_equality": {"unitary_gap": None, "general_gap": None},
    "thm3_proxy": {"proxy_bound": (-2.498001805406602e-16, -1.1102230246251565e-16)},
    "duality": {
        "lower": (0.007149143294248095, 0.06067414774854293),
        "upper": (0.0, 0.014026728006317185),
        "averaged_identity": None,
        "state_power_attained": None,
    },
    "thm7_reduction": {"reduction": None},
}


def test_every_suite_is_listed():
    assert tuple(CHECKS) == mp.SUITE_NAMES


def hexes(values):
    return [float(v).hex() for v in values]


def recorded_run(suite, dim, trials, monkeypatch, block_bytes=None):
    """run_suite(suite, dim, trials, 42), with BLOCK_BYTES set to block_bytes
    unless None, and the margins of each call of the suite's check."""
    checked = suites.SUITES[suite]
    margins = []

    def check(values, context, tol):
        outcome = checked.check(values, context, tol)
        margins.append(outcome[0])
        return outcome

    with monkeypatch.context() as patch:
        patch.setitem(suites.SUITES, suite, checked._replace(check=check))
        if block_bytes is not None:
            patch.setattr(suites, "BLOCK_BYTES", block_bytes)
        report = mp.run_suite(suite, dim, trials, 42)
    return margins, report.trial_values


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("suite", list(CHECKS))
def test_margins_and_their_fold(suite, dim, monkeypatch):
    """The margins of the run's 100 trials checked in one block and one
    trial at a time agree bit for bit, and so do the trial values of
    run_suite with its default blocks, with blocks of one and with one
    block."""
    trials, one_block = recorded_run(suite, dim, 100, monkeypatch, 1 << 40)
    singles, blocks_of_one = recorded_run(suite, dim, 100, monkeypatch, 1)
    assert len(trials) == len(singles) == 100
    assert all(list(margins) == list(CHECKS[suite]) for margins in trials)
    for check, minima in CHECKS[suite].items():
        values = [margins[check] for margins in trials]
        assert hexes(values) == hexes(margins[check] for margins in singles), check
        if minima is None:  # an equality's margin is -|residual|
            assert max(values) <= 0.0, check
        else:
            assert min(values) == pytest.approx(minima[dim - 2], abs=1e-12), check
    folded = hexes(max(0.0, -min(margins.values())) for margins in trials)
    assert hexes(mp.run_suite(suite, dim, 100, 42).trial_values) == folded
    assert hexes(one_block) == hexes(blocks_of_one) == folded


def test_blocks_are_sized_by_the_first_trial(monkeypatch):
    """A run's blocks hold max(1, BLOCK_BYTES // b) trials, for the bytes b
    of the request items of its first trial; a run whose trials request
    nothing is one block."""
    sizes = []
    evaluate = suites._evaluate_block

    def recording(suite, block, tol):
        sizes.extend([len(block)] if block else [])
        return evaluate(suite, block, tol)

    monkeypatch.setattr(suites, "_evaluate_block", recording)
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes == [10]
    suite = suites.SUITES["cm_faithfulness"]
    [(requests, _)] = suite.draw(2, [mp.SeededRng(42).spawn(suite.stream).spawn(0)])
    first = suites._nbytes(requests)
    assert first == sum(povm.stack.nbytes for povm in requests[0][1])
    sizes.clear()
    monkeypatch.setattr(suites, "BLOCK_BYTES", 3 * first + first // 2)
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes == [3, 3, 3, 1]
    sizes.clear()
    monkeypatch.setattr(suites, "BLOCK_BYTES", 1)
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes == [1] * 10
    sizes.clear()
    mp.run_suite("structure_lemma", 2, 10, 42)
    assert sizes == [10]


class TestTheBatchingLoop:
    """run_suite hands each trial's check exactly the values of its own
    request items, whatever the blocks, for trials of 1, 3 and 0 items and
    for items given as a list of matrices or as an ndarray; it draws the
    first trial alone and then each block, the rest of the first one
    included, with one draw call."""

    COUNTS = (1, 3, 0)
    TRIALS = 10

    @pytest.fixture
    def fake(self, monkeypatch):
        """A suite whose two kernels echo their items, trial by trial."""
        calls, checked, drawn = [], [], []

        def echo(items):
            calls.append(len(items))
            return list(items)

        monkeypatch.setattr(suites, "echo", echo, raising=False)
        monkeypatch.setattr(suites, "echo_rows", np.asarray, raising=False)
        order = iter(range(self.TRIALS))

        def trial():
            index = next(order)
            n = self.COUNTS[index % 3]
            own = tuple((index, j) for j in range(n))  # no array: 0 bytes
            rows = np.full((n, 128, 64), float(index))  # 64 KiB an item
            return (("echo", own), ("echo_rows", rows)), (index, own, rows)

        def draw(dim, rngs):
            drawn.append(len(rngs))
            return [trial() for _ in rngs]

        def check(values, context, tol):
            checked.append((values, context))
            return {"ok": 0.0}, None

        monkeypatch.setitem(suites.SUITES, "fake", suites.Suite(draw, check, 1e-8, 11))
        return calls, checked, drawn

    @pytest.mark.parametrize("block_bytes, blocks, draws", [
        (1, [1] * TRIALS, [1] * TRIALS),
        (None, [8, 2], [1, 7, 2]),  # the first trial's 64 KiB item sizes the blocks
        (1 << 40, [TRIALS], [1, TRIALS - 1]),
    ])
    def test_each_check_gets_its_own_values(self, fake, monkeypatch, block_bytes, blocks,
                                            draws):
        calls, checked, drawn = fake
        if block_bytes is not None:
            monkeypatch.setattr(suites, "BLOCK_BYTES", block_bytes)
        report = mp.run_suite("fake", 2, self.TRIALS, 42)
        assert report.passed and report.trial_values == [0.0] * self.TRIALS
        sizes = [sum(self.COUNTS[i % 3] for i in range(start, start + size))
                 for start, size in zip(np.cumsum([0] + blocks), blocks)]
        assert calls == sizes
        assert drawn == draws
        assert [context[0] for _, context in checked] == list(range(self.TRIALS))
        for (own_values, own_rows), (index, own, rows) in checked:
            assert len(own_values) == len(own) == self.COUNTS[index % 3]
            assert all(v is item for v, item in zip(own_values, own))
            assert isinstance(own_rows, np.ndarray) and len(own_rows) == len(rows)
            assert all(np.array_equal(value, row) for value, row in zip(own_rows, rows))


@pytest.mark.parametrize("dim", [2, 3])
def test_every_trial_names_the_same_kernels(dim):
    """The loop takes each request's kernel from a block's first trial, so
    every draw of a suite names the same kernels in the same order."""
    for name, suite in suites.SUITES.items():
        suite_rng = mp.SeededRng(42).spawn(suite.stream)
        draws = suite.draw(dim, [suite_rng.spawn(i) for i in range(20)])
        kernels = {tuple(kernel for kernel, _ in requests) for requests, _ in draws}
        assert len(kernels) == 1, name
        assert all(callable(getattr(suites, kernel)) for kernel in kernels.pop()), name


def held_bytes(value) -> list:
    """The shape, dtype and bytes of every array that a draw holds, in
    order (a POVM's stack, a channel's Kraus operators), and the repr of
    every other value."""
    if isinstance(value, mp.Povm):
        return held_bytes(value.stack)
    if isinstance(value, mp.QuantumChannel):
        return held_bytes(value.kraus)
    if isinstance(value, np.ndarray):
        return [f"{value.shape} {value.dtype.str}", value.tobytes()]
    if isinstance(value, (tuple, list)):
        return [b for item in value for b in held_bytes(item)]
    return [repr(value)]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("name", list(CHECKS))
def test_a_block_draws_what_each_trial_draws_alone(name, dim):
    """A draw of 20 streams at once gives each trial the requests and
    context that its stream gives alone, byte for byte, and leaves each
    stream where a draw alone leaves it."""
    suite = suites.SUITES[name]
    suite_rng = mp.SeededRng(42).spawn(suite.stream)
    rngs = [suite_rng.spawn(i) for i in range(20)]
    alone_rngs = [suite_rng.spawn(i) for i in range(20)]
    block = suite.draw(dim, rngs)
    assert len(block) == 20
    for drawn, rng in zip(block, alone_rngs):
        [alone] = suite.draw(dim, [rng])
        assert held_bytes(drawn) == held_bytes(alone)
    assert ([rng.gen.integers(1 << 62) for rng in rngs]
            == [rng.gen.integers(1 << 62) for rng in alone_rngs])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_thm3_proxy_block_draws_each_trials_k_and_l(dim, monkeypatch):
    """The `thm3_proxy` block draw hands `composite_elements` each trial's
    own E, K and L, byte for byte as a draw alone does, and its 20 streams
    reach every branch: K the identity or a draw, L CNOT^dag or a draw."""
    composite, operands = suites.composite_elements, []

    def recording(channel, k, l):
        operands.append((channel, k, l))
        return composite(channel, k, l)

    monkeypatch.setattr(suites, "composite_elements", recording)
    suite = suites.SUITES["thm3_proxy"]
    suite_rng = mp.SeededRng(42).spawn(suite.stream)
    suite.draw(dim, [suite_rng.spawn(i) for i in range(20)])
    block, operands[:] = operands[:], []
    for i in range(20):
        suite.draw(dim, [suite_rng.spawn(i)])
    assert held_bytes(block) == held_bytes(operands)
    identity = np.eye(dim * dim)[None]
    cnot_dagger = mp.cnot_matrix(dim).conj().T[None]
    branches = {(np.array_equal(k.kraus, identity), np.array_equal(l.kraus, cnot_dagger))
                for _, k, l in block}
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


class TestCrashAttribution:
    """A trial whose draw or evaluation raises fails alone, with its own
    detail; every other trial keeps the value of the unpatched run."""

    SUITE, DIM, TRIALS, SEED, BAD = "cm_oracle", 2, 10, 42, 4

    def bad_seed(self):
        stream = suites.SUITES[self.SUITE].stream
        return mp.SeededRng(self.SEED).spawn(stream).spawn(self.BAD).master_seed

    def run(self):
        return mp.run_suite(self.SUITE, self.DIM, self.TRIALS, self.SEED)

    def assert_only_the_bad_trial_fails(self, report, clean, detail):
        assert report.failures == [{"trial": self.BAD, "detail": detail}]
        assert report.trial_values[self.BAD] == math.inf and not report.passed
        others = [v for i, v in enumerate(report.trial_values) if i != self.BAD]
        assert hexes(others) == hexes(v for i, v in enumerate(clean) if i != self.BAD)

    def test_a_draw_that_raises(self, monkeypatch):
        """The block's draw reads every stream before it raises, so the
        trials drawn again alone must start from fresh streams: each keeps
        the margins of the unpatched run, not only its clipped value."""
        suite = suites.SUITES[self.SUITE]
        bad_seed, sizes, margins = self.bad_seed(), [], []

        def check(values, context, tol):
            outcome = suite.check(values, context, tol)
            margins.append({name: float(m).hex() for name, m in outcome[0].items()})
            return outcome

        def draw(dim, rngs):
            sizes.append(len(rngs))
            draws = suite.draw(dim, rngs)
            if any(rng.master_seed == bad_seed for rng in rngs):
                raise RuntimeError("draw failed")
            return draws

        monkeypatch.setitem(suites.SUITES, self.SUITE, suite._replace(check=check))
        clean = self.run().trial_values
        clean_margins, margins[:] = margins[:], []
        monkeypatch.setitem(suites.SUITES, self.SUITE, suite._replace(draw=draw, check=check))
        self.assert_only_the_bad_trial_fails(self.run(), clean, "RuntimeError: draw failed")
        assert margins == clean_margins[:self.BAD] + clean_margins[self.BAD + 1:]
        # the first trial, the rest of its block, then each of those alone
        assert sizes == [1, self.TRIALS - 1] + [1] * (self.TRIALS - 1)

    def test_an_evaluation_that_raises_on_one_trials_operands(self, monkeypatch):
        clean = self.run().trial_values
        suite = suites.SUITES[self.SUITE]
        bad_seed, bad, blocks = self.bad_seed(), [], []
        kernel = suites.measurement_coherences  # one item, M, a cm_oracle trial

        def draw(dim, rngs):
            draws = suite.draw(dim, rngs)
            for rng, (requests, _) in zip(rngs, draws):
                if rng.master_seed == bad_seed:
                    bad.append(requests[0][1][0])
            return draws

        def coherences(povms):
            blocks.append(len(povms))
            if any(povm is bad[0] for povm in povms):
                raise ValueError("cannot evaluate")
            return kernel(povms)

        monkeypatch.setitem(suites.SUITES, self.SUITE, suite._replace(draw=draw))
        monkeypatch.setattr(suites, "measurement_coherences", coherences)
        report = self.run()
        assert blocks == [self.TRIALS] + [1] * self.TRIALS  # the block, then each trial
        self.assert_only_the_bad_trial_fails(report, clean, "ValueError: cannot evaluate")

    def test_a_check_that_raises(self, monkeypatch):
        clean = self.run().trial_values
        suite = suites.SUITES[self.SUITE]
        bad_seed, checked = self.bad_seed(), []

        def draw(dim, rngs):
            return [(requests, rng.master_seed)
                    for rng, (requests, _) in zip(rngs, suite.draw(dim, rngs))]

        def check(values, seed, tol):
            checked.append(seed)
            if seed == bad_seed:
                raise ValueError("cannot check")
            return suite.check(values, None, tol)

        monkeypatch.setitem(suites.SUITES, self.SUITE, suite._replace(draw=draw, check=check))
        self.assert_only_the_bad_trial_fails(self.run(), clean, "ValueError: cannot check")
        # the block's checks up to the one that raises, then each trial alone
        assert len(checked) == self.BAD + 1 + self.TRIALS


def test_root_and_suite_streams_build_no_generator(monkeypatch):
    """Only the trials' streams draw, so a run builds one Philox generator
    per trial."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs["key"])
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    mp.run_suite("structure_lemma", 2, 5, 42)
    suite_rng = mp.SeededRng(42).spawn(suites.SUITES["structure_lemma"].stream)
    assert built == [suite_rng.spawn(i).master_seed for i in range(5)]
