"""Per-call timings of the channel wire format on fixed seeds.

Times `load_channel` on full-Kraus-rank random channel files at d = 2, 4, 8
and 16, on the Hadamard example, and on the d = 16 file written with
`json.dumps(..., indent=1)`, a layout only the JSON reference path reads;
and `save_channel` on the d = 16 channel and on the conversion channels of
full-rank channels at d = 4 and 6, the files `convert` writes. Files are
written to a temporary directory before the timed calls. Each row is timed
in a fresh interpreter, so that no measurement inherits the allocator state
of another: it is called once to warm up, then timed call by call until it
has run at least MIN_CALLS times and for at least MIN_SECONDS (or MAX_CALLS
times). The output records the median and quartiles of the per-call times
with the environment they were taken in.

Usage: PYTHONPATH=src python scripts/bench_wire.py [--out BENCH_wire.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import mrpower as mp
from mrpower.serialize import channel_to_dict, load_channel, save_channel

SEED = 20241018
MIN_CALLS = 7
MIN_SECONDS = 0.5
MAX_CALLS = 2000

# (operation, input) rows, in output order
ROWS = (
    ("load", "d2"), ("load", "d4"), ("load", "d8"), ("load", "d16"),
    ("load", "hadamard"), ("load", "d16-indent1"),
    ("save", "d16"), ("save", "conversion-d4"), ("save", "conversion-d6"),
)


def random_full_rank(d: int) -> mp.QuantumChannel:
    return mp.random_channel(d, d * d, "general", mp.SeededRng(SEED).spawn(d))


def channel_for(name: str) -> mp.QuantumChannel:
    if name == "hadamard":
        return mp.example_channels()["hadamard"]
    if name.startswith("conversion-d"):
        return mp.conversion_channel(random_full_rank(int(name[len("conversion-d"):])))
    return random_full_rank(int(name.split("-")[0][1:]))


def per_call_ms(operation: str, name: str, workdir: str) -> list[float]:
    channel = channel_for(name)
    path = os.path.join(workdir, f"{name}.json")
    if operation == "load":
        with open(path, "w", encoding="utf-8") as handle:
            if name.endswith("-indent1"):
                handle.write(json.dumps(channel_to_dict(channel), indent=1) + "\n")
            else:
                save_channel(path, channel)
        call = lambda: load_channel(path)  # noqa: E731
    else:
        call = lambda: save_channel(path, channel)  # noqa: E731
    call()
    times: list[float] = []
    spent = 0.0
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or spent < MIN_SECONDS):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed * 1e3)
        spent += elapsed
    return times


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"calls": len(times), "median_ms": median, "q1_ms": q1, "q3_ms": q3,
            "iqr_ms": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_wire.json", help="output path")
    parser.add_argument("--measure", nargs=2, metavar=("OPERATION", "INPUT"),
                        help="time one row and print the times")
    args = parser.parse_args(argv)
    if args.measure:
        with tempfile.TemporaryDirectory() as workdir:
            print(json.dumps(per_call_ms(*args.measure, workdir)))
        return 0

    results = []
    for operation, name in ROWS:
        command = [sys.executable, __file__, "--measure", operation, name]
        times = json.loads(subprocess.run(command, check=True, capture_output=True,
                                          text=True).stdout)
        row = {"operation": operation, "input": name, "seed": SEED, **summary(times)}
        print(f"{operation:>5} {name:>14}  median {row['median_ms']:9.3f} ms  "
              f"IQR {row['iqr_ms']:8.3f} ms  ({row['calls']} calls)", file=sys.stderr)
        results.append(row)

    record = {
        "benchmark": "wire",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
        },
        "timing": {"min_calls": MIN_CALLS, "min_seconds": MIN_SECONDS, "max_calls": MAX_CALLS},
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
