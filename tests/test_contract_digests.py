"""The CLI contract as a test: run `scripts/contract_outputs.py` once, hash
every file it writes by its path in the tree, and compare the sha256 digests
with `CONTRACT_DIGESTS.json` at the repo root.

The recorder computes under one BLAS thread whatever the caller's settings.
The recorded environment is `benchtiming`'s with the recorder's thread
count; digests are only comparable under the same numpy on the same machine
type, so a run under another fails and names both environments.

A change that alters an output on purpose regenerates the file, and its
diff names every output that changed:

    PYTHONPATH=src python tests/test_contract_digests.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "CONTRACT_DIGESTS.json"
PINNED = ("numpy", "machine")  # environment entries the digests depend on
RECORDER_TIMEOUT_S = 120


def load_script(name: str):
    """A module of `scripts/`, loaded from its file so that the directory
    never joins sys.path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    """`benchtiming`'s environment, with the BLAS thread count that the
    recorder computes under."""
    threads = load_script("contract_outputs").BLAS_ENV["OPENBLAS_NUM_THREADS"]
    return {**load_script("benchtiming").environment(), "OPENBLAS_NUM_THREADS": threads}


def contract_digests(outdir: Path) -> dict[str, str]:
    """Run the recorder into the new directory `outdir` and return the
    sha256 of each file it writes."""
    subprocess.run([sys.executable, str(ROOT / "scripts" / "contract_outputs.py"), str(outdir)],
                   check=True, timeout=RECORDER_TIMEOUT_S)
    return {path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*")) if path.is_file()}


def test_cli_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = environment()
    environments = f"recorded under {recorded['environment']}, run under {here}"
    assert all(recorded["environment"][key] == here[key] for key in PINNED), (
        f"digests are not comparable across numpy versions or machines: {environments}"
    )
    digests = contract_digests(tmp_path / "contract")
    changed = sorted(key for key in recorded["digests"].keys() | digests.keys()
                     if recorded["digests"].get(key) != digests.get(key))
    assert not changed, f"outputs differ from {DIGESTS.name}: {changed} ({environments})"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as workdir:
        record = {"environment": environment(),
                  "digests": contract_digests(Path(workdir) / "contract")}
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
