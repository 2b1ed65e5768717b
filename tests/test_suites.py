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
        "data_processing": (-7.549516567451064e-15, -3.552713678800501e-15),
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
        "nonnegativity": (0.00015585933385470208, 0.038543380377555225),
        "sandwich": (0.00015585933385470208, 0.038543380377555225),
        "free_vanishes": None,
    },
    "power_convexity": {"convexity": (0.00167642739087219, 0.00981019477530376)},
    "conversion_equality": {"unitary_gap": None, "general_gap": None},
    "thm3_proxy": {"proxy_bound": (0.5112111392671573, 0.9777560222065637)},
    "duality": {
        "lower": (0.007149143294247984, 0.06067414774854286),
        "upper": (0.0, 0.014026728006317102),
        "averaged_identity": None,
        "state_power_attained": None,
    },
    "thm7_reduction": {"reduction": None},
}


def test_every_suite_is_listed():
    assert tuple(CHECKS) == mp.SUITE_NAMES


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("suite", list(CHECKS))
def test_margins_and_their_fold(suite, dim, monkeypatch):
    """The margins of the run's 100 trials evaluated as one block and one
    trial at a time agree bit for bit, and so do the trial values of
    run_suite with its default blocks, with blocks of one and with one
    block."""
    draw, evaluate, tol, stream = suites.SUITES[suite]
    suite_rng = mp.SeededRng(42).spawn(stream)
    operands = [draw(dim, suite_rng.spawn(i)) for i in range(100)]
    trials = [margins for margins, _ in evaluate(dim, operands, tol)]
    singles = [margins for ops in operands for margins, _ in evaluate(dim, [ops], tol)]
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
    for block_bytes in (1, 1 << 40):  # blocks of one trial, one block
        monkeypatch.setattr(suites, "BLOCK_BYTES", block_bytes)
        assert hexes(mp.run_suite(suite, dim, 100, 42).trial_values) == folded


def test_blocks_close_on_operand_bytes(monkeypatch):
    """A block closes once its operands reach BLOCK_BYTES, and never holds
    less than one trial."""
    suite = suites.SUITES["cm_faithfulness"]
    sizes = []

    def evaluate(dim, block, tol):
        sizes.append(len(block))
        return suite.evaluate(dim, block, tol)

    monkeypatch.setitem(suites.SUITES, "cm_faithfulness", suite._replace(evaluate=evaluate))
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes == [10]
    suite_rng = mp.SeededRng(42).spawn(suite.stream)
    first, second = (suites._nbytes(suite.draw(2, suite_rng.spawn(i))) for i in range(2))
    sizes.clear()
    monkeypatch.setattr(suites, "BLOCK_BYTES", first + second + 1)  # reached by a third
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes[0] == 3 and sum(sizes) == 10
    sizes.clear()
    monkeypatch.setattr(suites, "BLOCK_BYTES", 1)
    mp.run_suite("cm_faithfulness", 2, 10, 42)
    assert sizes == [1] * 10


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
        clean = self.run().trial_values
        suite = suites.SUITES[self.SUITE]
        bad_seed = self.bad_seed()

        def draw(dim, rng):
            if rng.master_seed == bad_seed:
                raise RuntimeError("draw failed")
            return suite.draw(dim, rng)

        monkeypatch.setitem(suites.SUITES, self.SUITE, suite._replace(draw=draw))
        self.assert_only_the_bad_trial_fails(self.run(), clean, "RuntimeError: draw failed")

    def test_an_evaluation_that_raises_on_one_trials_operands(self, monkeypatch):
        clean = self.run().trial_values
        suite = suites.SUITES[self.SUITE]
        bad_seed, bad, blocks = self.bad_seed(), [], []

        def draw(dim, rng):
            operands = suite.draw(dim, rng)
            if rng.master_seed == bad_seed:
                bad.append(operands)
            return operands

        def evaluate(dim, block, tol):
            blocks.append(len(block))
            if any(operands is bad[0] for operands in block):
                raise ValueError("cannot evaluate")
            return suite.evaluate(dim, block, tol)

        monkeypatch.setitem(suites.SUITES, self.SUITE,
                            suite._replace(draw=draw, evaluate=evaluate))
        report = self.run()
        assert blocks == [self.TRIALS] + [1] * self.TRIALS  # the block, then each trial
        self.assert_only_the_bad_trial_fails(report, clean, "ValueError: cannot evaluate")


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
