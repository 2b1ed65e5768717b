"""Record the CLI outputs that a refactor must keep byte for byte.

Writes under OUTDIR:
- `inputs/`: the channel files, written by `save_channel`: the five example
  channels, seeded full-Kraus-rank and unital random channels at d = 2, 3, 4
  and 6, a file with a NaN entry, and a full-rank d = 7 file, above the
  conversion cap.
- `power/<input>/` and `convert/<input>/`: stdout, stderr and the exit code
  of `power --what both` and `convert --out` on each input; for `convert`,
  also the bytes written to `--out`.
- `verify/d<d>/`: `verify --suite all --trials 100 --seed 42` at d = 2, 3
  and 4: stdout without the per-suite "(N ms)", stderr, the exit code, and
  the JSON report without `wall_time_ms`; `verify/d2-csv/` holds the CSV
  report of the same run at d = 2.

Every command runs as `python -m mrpower.cli` in an interpreter of its own,
started in OUTDIR, with one BLAS thread, and imports the mrpower package
that this script imported from PYTHONPATH. To compare two versions of the
package, run the same copy of the script against each and diff the
results:

    PYTHONPATH=<other checkout>/src python scripts/contract_outputs.py /tmp/before
    PYTHONPATH=src python scripts/contract_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys

import mrpower as mp
from mrpower.serialize import channel_to_dict, save_channel

SEED = 20241019
RANDOM_DIMS = (2, 3, 4, 6)
VERIFY_DIMS = (2, 3, 4)
OVER_CAP_DIM = 7

# the commands import the mrpower this script imported, whatever their working
# directory; one BLAS thread makes every run sum in one order
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mp.__file__)))
ENV = {**os.environ, "PYTHONPATH": PACKAGE_ROOT, "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def full_rank_channel(d: int) -> mp.QuantumChannel:
    """The seeded full-Kraus-rank input `full-rank-d<d>`."""
    return mp.random_channel(d, d * d, "general", mp.SeededRng(SEED).spawn(2 * d))


def write_inputs(outdir: str) -> list[str]:
    """Write the channel files to `outdir/inputs` and return their names."""
    rng = mp.SeededRng(SEED)
    channels = dict(mp.example_channels())
    for d in RANDOM_DIMS:
        channels[f"full-rank-d{d}"] = full_rank_channel(d)
        channels[f"unital-d{d}"] = mp.random_channel(d, d, "unital", rng.spawn(2 * d + 1))
    channels[f"full-rank-d{OVER_CAP_DIM}"] = full_rank_channel(OVER_CAP_DIM)
    os.makedirs(os.path.join(outdir, "inputs"))
    for name, channel in channels.items():
        save_channel(os.path.join(outdir, "inputs", f"{name}.json"), channel)
    wire = channel_to_dict(mp.dephasing_channel(2))
    wire["kraus"][0][0][0] = [math.nan, 0.0]
    with open(os.path.join(outdir, "inputs", "nan-entry.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(wire))
    return [*channels, "nan-entry"]


def run(outdir: str, case: str, *args: str) -> str:
    """Run one CLI command in OUTDIR, write its stderr and exit code to
    `outdir/case`, and return its stdout."""
    os.makedirs(os.path.join(outdir, case))
    result = subprocess.run([sys.executable, "-m", "mrpower.cli", *args], cwd=outdir,
                            env=ENV, capture_output=True, text=True)
    write(outdir, f"{case}/stderr", result.stderr)
    write(outdir, f"{case}/exit_code", f"{result.returncode}\n")
    return result.stdout


def write(outdir: str, path: str, text: str) -> None:
    with open(os.path.join(outdir, path), "w", encoding="utf-8") as handle:
        handle.write(text)


def record_channel_commands(outdir: str, name: str) -> None:
    path = f"inputs/{name}.json"
    write(outdir, f"power/{name}/stdout", run(outdir, f"power/{name}", "power", path,
                                               "--what", "both"))
    out = f"convert/{name}/out.json"
    write(outdir, f"convert/{name}/stdout", run(outdir, f"convert/{name}", "convert", path,
                                                 "--out", out))


def untimed_stdout(stdout: str) -> str:
    """`verify` stdout without the per-suite "(N ms)"."""
    return re.sub(r" \(\d+ ms\)$", "", stdout, flags=re.MULTILINE)


def untimed_report(text: str) -> str:
    """A `verify --suite all` JSON report without `wall_time_ms`."""
    reports = json.loads(text)
    for entry in reports:
        del entry["wall_time_ms"]
    return json.dumps(reports, indent=2) + "\n"


def record_verify(outdir: str, case: str, dim: int, report_format: str) -> None:
    report = f"{case}/report.{report_format}"
    stdout = run(outdir, case, "verify", "--suite", "all", "--trials", "100", "--seed", "42",
                 "--dim", str(dim), "--out", report, "--format", report_format)
    write(outdir, f"{case}/stdout", untimed_stdout(stdout))
    if report_format == "json":
        with open(os.path.join(outdir, report), encoding="utf-8") as handle:
            write(outdir, report, untimed_report(handle.read()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="new directory for the outputs")
    outdir = os.path.abspath(parser.parse_args(argv).outdir)
    for name in write_inputs(outdir):
        record_channel_commands(outdir, name)
    for dim in VERIFY_DIMS:
        record_verify(outdir, f"verify/d{dim}", dim, "json")
    record_verify(outdir, "verify/d2-csv", 2, "csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
