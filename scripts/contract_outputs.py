"""Record the CLI outputs that a refactor must keep byte for byte.

Writes under OUTDIR, which must not exist yet:
- `inputs/`: the channel files: the five example channels, seeded
  full-Kraus-rank and unital random channels at d = 2, 3, 4 and 6, and a
  full-rank d = 7 file, above the `convert` cap, written by `save_channel`;
  a file with a NaN entry; `truncated.json`, the first half of the Hadamard
  file; and `wrong-dim.json`, the Hadamard file with `dim_out` = 3.
- `power/<input>/` and `convert/<input>/`: stdout, stderr and the exit code
  of `power --what both` and `convert --out` on each input; for `convert`,
  also the bytes written to `--out`.
- `verify/d<d>/`: `verify --suite all --trials 100 --seed 42` at d = 2, 3
  and 4: stdout without the per-suite "(N ms)", stderr, the exit code, and
  the JSON report without `wall_time_ms`; `verify/d2-csv/` holds the CSV
  report of the same run at d = 2, and `verify/d7/` the same record of a
  run with 5 trials at d = 7, above the `convert` cap, which `verify` does
  not share.
- `verify/<error>/`: stdout, stderr and the exit code of four `verify`
  commands that break one argument rule each (ARGUMENT_ERRORS), each with
  an `--out` that must not be written; `verify/out-empty/` holds the same
  record of `verify --suite duality --out ""`, an output path that cannot be
  written.

Every command runs in this process through `mrpower.cli.main`, in OUTDIR,
with its streams redirected, under one BLAS thread: the script runs itself
again under those settings before numpy loads. It uses the mrpower package
on PYTHONPATH, so to compare two versions of the package, run the same copy
of the script against each and diff the results (about 5 s a run):

    PYTHONPATH=<other checkout>/src python scripts/contract_outputs.py /tmp/before
    PYTHONPATH=src python scripts/contract_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

`tests/test_contract_digests.py` pins the sha256 of every file it writes.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread makes every run sum in one order; numpy fixes its thread
# count when it loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in BLAS_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **BLAS_ENV})

import argparse
import contextlib
import io
import json
import math
import re

import mrpower as mp
from mrpower.cli import main as cli_main
from mrpower.serialize import channel_to_dict, save_channel

SEED = 20241019
RANDOM_DIMS = (2, 3, 4, 6)
VERIFY_DIMS = (2, 3, 4)
OVER_CAP_DIM = 7
# case -> `verify` arguments that break one rule of a run
ARGUMENT_ERRORS = {
    "dim-1": ("--dim", "1"),
    "trials-0": ("--trials", "0"),
    "seed-minus-1": ("--seed=-1",),
    "tol-nan": ("--tol=nan",),
}


def full_rank_channel(d: int) -> mp.QuantumChannel:
    """The seeded full-Kraus-rank input `full-rank-d<d>`."""
    return mp.random_channel(d, d * d, "general", mp.SeededRng(SEED).spawn(2 * d))


def write_inputs() -> list[str]:
    """Write the channel files to `inputs/` and return their names."""
    rng = mp.SeededRng(SEED)
    channels = dict(mp.example_channels())
    for d in RANDOM_DIMS:
        channels[f"full-rank-d{d}"] = full_rank_channel(d)
        channels[f"unital-d{d}"] = mp.random_channel(d, d, "unital", rng.spawn(2 * d + 1))
    channels[f"full-rank-d{OVER_CAP_DIM}"] = full_rank_channel(OVER_CAP_DIM)
    os.mkdir("inputs")
    for name, channel in channels.items():
        save_channel(f"inputs/{name}.json", channel)
    nan_entry = channel_to_dict(mp.dephasing_channel(2))
    nan_entry["kraus"][0][0][0] = [math.nan, 0.0]
    write("inputs/nan-entry.json", json.dumps(nan_entry))
    with open("inputs/hadamard.json", encoding="utf-8") as handle:
        hadamard = handle.read()
    write("inputs/truncated.json", hadamard[: len(hadamard) // 2])
    write("inputs/wrong-dim.json", json.dumps({**json.loads(hadamard), "dim_out": 3}))
    return [*channels, "nan-entry", "truncated", "wrong-dim"]


def run(case: str, *args: str) -> str:
    """Run one CLI command, write its stderr and exit code to `case/`, and
    return its stdout."""
    os.makedirs(case)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(list(args))
    write(f"{case}/stderr", stderr.getvalue())
    write(f"{case}/exit_code", f"{code}\n")
    return stdout.getvalue()


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def record_channel_commands(name: str) -> None:
    path = f"inputs/{name}.json"
    write(f"power/{name}/stdout", run(f"power/{name}", "power", path, "--what", "both"))
    out = f"convert/{name}/out.json"
    write(f"convert/{name}/stdout", run(f"convert/{name}", "convert", path, "--out", out))


def untimed_stdout(stdout: str) -> str:
    """`verify` stdout without the per-suite "(N ms)"."""
    return re.sub(r" \(\d+ ms\)$", "", stdout, flags=re.MULTILINE)


def record_verify(case: str, dim: int, report_format: str, trials: int = 100) -> None:
    report = f"{case}/report.{report_format}"
    stdout = run(case, "verify", "--suite", "all", "--trials", str(trials), "--seed", "42",
                 "--dim", str(dim), "--out", report, "--format", report_format)
    write(f"{case}/stdout", untimed_stdout(stdout))
    if report_format == "json":
        with open(report, encoding="utf-8") as handle:
            reports = json.load(handle)
        for entry in reports:
            del entry["wall_time_ms"]
        write(report, json.dumps(reports, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="new directory for the outputs")
    outdir = parser.parse_args(argv).outdir
    if os.path.exists(outdir):
        print(f"error: {outdir} already exists; give a new directory", file=sys.stderr)
        return 2
    os.makedirs(outdir)
    os.chdir(outdir)
    for name in write_inputs():
        record_channel_commands(name)
    for dim in VERIFY_DIMS:
        record_verify(f"verify/d{dim}", dim, "json")
    record_verify("verify/d2-csv", 2, "csv")
    record_verify(f"verify/d{OVER_CAP_DIM}", OVER_CAP_DIM, "json", trials=5)
    for error, args in ARGUMENT_ERRORS.items():
        case = f"verify/{error}"
        write(f"{case}/stdout", run(case, "verify", *args, "--out", f"{case}/report.json"))
    stdout = run("verify/out-empty", "verify", "--suite", "duality", "--out", "")
    write("verify/out-empty/stdout", untimed_stdout(stdout))
    return 0


if __name__ == "__main__":
    sys.exit(main())
