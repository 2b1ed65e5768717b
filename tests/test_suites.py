"""The named, signed check margins that each verify trial returns."""

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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("suite", list(CHECKS))
def test_margins_and_their_fold(suite, dim):
    trial_fn, tol, stream = suites.SUITES[suite]
    suite_rng = mp.SeededRng(42).spawn(stream)
    trials = [trial_fn(dim, suite_rng.spawn(i), tol)[0] for i in range(100)]
    assert all(list(margins) == list(CHECKS[suite]) for margins in trials)
    for check, minima in CHECKS[suite].items():
        values = [margins[check] for margins in trials]
        if minima is None:  # an equality's margin is -|residual|
            assert max(values) <= 0.0, check
        else:
            assert min(values) == pytest.approx(minima[dim - 2], abs=1e-12), check
    folded = [max(0.0, -min(margins.values())) for margins in trials]
    report = mp.run_suite(suite, dim, 100, 42)
    assert [v.hex() for v in report.trial_values] == [v.hex() for v in folded]
