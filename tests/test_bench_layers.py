"""Smoke test of the timing table in `scripts/bench_layers.py`: a renamed or
re-signed mrpower function fails here rather than in the next timing run."""

import importlib
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from mrpower import SUITE_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_layers():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SCRIPTS))  # the script imports `benchtiming` beside it
        yield importlib.import_module("bench_layers")


def test_rows_cover_every_layer_and_suite(bench_layers):
    layers = {layer for layer, _, _ in bench_layers.ROWS}
    assert layers == {"operators", "channels", "measures", "powers", "sampling", "wire",
                      "suites"}
    suites = {operation for layer, operation, _ in bench_layers.ROWS if layer == "suites"}
    assert suites == set(SUITE_NAMES)


def test_each_operation_runs_at_its_first_case(bench_layers, tmp_path):
    """Each operation at its first case, and each block sampler at its
    first block case."""
    first = {}
    for layer, operation, case in bench_layers.ROWS:
        first.setdefault((layer, operation, "x" in case), case)
    assert ("sampling", "random_povm_coherent", True) in first
    for (layer, operation, _), case in first.items():
        bench_layers.call(layer, operation, case, str(tmp_path))()


def test_baseline_rows_import_mrpower_from_the_given_src(bench_layers, tmp_path):
    script, row = bench_layers.__file__, ("channels", "construct", "d2")
    src = Path(__file__).resolve().parents[1] / "src"
    summary = bench_layers.measure_in_fresh_interpreter(script, *row, pythonpath=str(src))
    assert summary["q1_ms"] <= summary["median_ms"] <= summary["q3_ms"]
    with pytest.raises(subprocess.CalledProcessError):  # no mrpower under tmp_path
        bench_layers.measure_in_fresh_interpreter(script, *row, pythonpath=str(tmp_path))


def test_a_row_the_baseline_lacks_times_no_baseline(bench_layers, tmp_path):
    """Timed against an mrpower without the batch kernel, the batched row
    gives None; an mrpower that cannot be imported still raises."""
    script, row = bench_layers.__file__, ("measures", "measurement_relative_entropies", "d2")
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "mrpower",
                    tmp_path / "old" / "mrpower")
    for module in (tmp_path / "old" / "mrpower").glob("*.py"):
        module.write_text(module.read_text().replace(
            "measurement_relative_entropies", "_renamed_batch"))
    assert bench_layers.measure(row, str(tmp_path / "old")) is None
    with pytest.raises(subprocess.CalledProcessError):
        bench_layers.measure(row, str(tmp_path))
    summary = bench_layers.measure(row, None)
    assert summary["q1_ms"] <= summary["median_ms"] <= summary["q3_ms"]


@pytest.mark.parametrize("operation, decompositions", [
    ("measurement_coherence", "eigvalsh"),
    ("measurement_relative_entropy", "eigh+eigvalsh"),
    ("measurement_relative_entropies", "eigh+eigvalsh"),
])
def test_measure_rows_decompose_on_every_call(bench_layers, tmp_path, monkeypatch,
                                              operation, decompositions):
    """Each measure row makes one call of each of its decompositions per
    call, the batched row whatever its pair count."""
    timed = bench_layers.call("measures", operation, "d2", str(tmp_path))
    calls = []
    for name in decompositions.split("+"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _name=name, _original=original,
                            **kwargs: calls.append(_name) or _original(a, *args, **kwargs))
    timed()
    timed()
    assert sorted(calls) == sorted(decompositions.split("+") * 2)


def test_runs_combine_into_the_median_of_their_summaries(bench_layers):
    runs = [{"calls": 7, "median_ms": m, "q1_ms": m - 1, "q3_ms": m + q} for m, q in
            ((2.0, 1.0), (9.0, 5.0), (3.0, 2.0))]
    assert bench_layers.combine(runs) == {
        "calls": 21, "median_ms": 3.0, "q1_ms": 2.0, "q3_ms": 5.0, "iqr_ms": 3.0,
        "run_medians_ms": [2.0, 9.0, 3.0]}


def test_pairs_of_runs_give_their_ratios_and_its_median(bench_layers):
    """A speed phase that doubles both runs of the second turn leaves its
    ratio, and the median, unchanged."""
    tree = [{"median_ms": m} for m in (1.0, 2.0, 1.5)]
    baseline = [{"median_ms": m} for m in (2.0, 4.0, 1.0)]
    assert bench_layers.pair_ratios(tree, baseline) == {
        "pair_ratios": [0.5, 0.5, 1.5], "median_ratio": 0.5}
    with pytest.raises(ValueError):  # every turn has one run per side
        bench_layers.pair_ratios(tree, baseline[:2])
