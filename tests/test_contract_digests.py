"""The CLI contract as a test: the sha256 of a cheap subset of the outputs
that `scripts/contract_outputs.py` records, recomputed in process through
`cli.main` and compared with `CONTRACT_DIGESTS.json` at the repo root.

The subset is `verify --suite all --trials 100 --seed 42` at d = 2 and
d = 3 (the JSON report without `wall_time_ms`, stdout without the
per-suite ms), and
`power --what both` and `convert --out` on the five example channels and
on the seeded full-Kraus-rank input at d = 3, `full-rank-d3` (stdout and
the `--out` bytes); every command's stderr and exit code too.
The recorded environment is `benchtiming`'s; digests are only comparable
under the same numpy on the same machine type, so a run under another
fails and names both environments.

A change that alters an output on purpose regenerates the file, and its
diff names every output that changed:

    PYTHONPATH=src python tests/test_contract_digests.py --write

`--write` runs itself again under the one-thread BLAS settings of
`contract_outputs.ENV` when the caller's differ, so that the environment
it records is the one the digests were computed under.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import mrpower as mp
from mrpower.cli import main
from mrpower.serialize import save_channel

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "CONTRACT_DIGESTS.json"
PINNED = ("numpy", "machine")  # environment entries the digests depend on
VERIFY_DIMS = (2, 3)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_script(name: str):
    """A module of `scripts/`, loaded from its file so that the directory
    never joins sys.path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(outputs: dict[str, str], case: str, *args: str) -> str:
    """Run `main(args)`, keep its stderr and exit code under `case`, and
    return its stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(args))
    outputs[f"{case}/stderr"] = stderr.getvalue()
    outputs[f"{case}/exit_code"] = f"{code}\n"
    return stdout.getvalue()


def contract_outputs() -> dict[str, str]:
    """Each output of the subset, by its path in `contract_outputs.py`'s tree."""
    contract = load_script("contract_outputs")
    outputs: dict[str, str] = {}
    channels = {**mp.example_channels(), "full-rank-d3": contract.full_rank_channel(3)}
    with tempfile.TemporaryDirectory() as workdir:
        for name, channel in channels.items():
            path = os.path.join(workdir, f"{name}.json")
            save_channel(path, channel)
            case = f"power/{name}"
            outputs[f"{case}/stdout"] = run_cli(outputs, case, "power", path, "--what", "both")
            case, out = f"convert/{name}", os.path.join(workdir, f"{name}-out.json")
            outputs[f"{case}/stdout"] = run_cli(outputs, case, "convert", path, "--out", out)
            outputs[f"{case}/out.json"] = Path(out).read_text(encoding="utf-8")
        for dim in VERIFY_DIMS:
            case, report = f"verify/d{dim}", os.path.join(workdir, f"report-d{dim}.json")
            stdout = run_cli(outputs, case, "verify", "--suite", "all", "--dim", str(dim),
                             "--trials", "100", "--seed", "42", "--out", report)
            outputs[f"{case}/stdout"] = contract.untimed_stdout(stdout)
            outputs[f"{case}/report.json"] = contract.untimed_report(
                Path(report).read_text(encoding="utf-8"))
    return outputs


def contract_digests() -> dict[str, str]:
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for key, text in sorted(contract_outputs().items())}


def test_cli_outputs_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = load_script("benchtiming").environment()
    environments = f"recorded under {recorded['environment']}, run under {here}"
    assert all(recorded["environment"][key] == here[key] for key in PINNED), (
        f"digests are not comparable across numpy versions or machines: {environments}"
    )
    digests = contract_digests()
    changed = sorted(key for key in recorded["digests"].keys() | digests.keys()
                     if recorded["digests"].get(key) != digests.get(key))
    assert not changed, f"outputs differ from {DIGESTS.name}: {changed} ({environments})"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    env = load_script("contract_outputs").ENV
    if any(os.environ.get(key) != env[key] for key in BLAS_THREADS):
        # numpy fixed its BLAS threads at import: run again under ENV's
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    record = {"environment": load_script("benchtiming").environment(),
              "digests": contract_digests()}
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
