"""Per-call timings of the `powers` layer on fixed seeds.

Times the measurement-cohering power C, the state-cohering power C_g, the
conversion certificate and the conversion channel at d = 2, 4 and 6, each on
one full-Kraus-rank random channel, and the sandwiched-composite bound at
d = 2, 3 and 4 on such a channel between a detection-incoherent K and a
unital detection-incoherent L on dimension d^2, sampled before the timed
calls. `conversion_channel+kraus` also reads the channel's Kraus set, which
`convert` writes, so a construction that defers its Kraus set cannot look
faster than it is. Each quantity and dimension is timed in a fresh
interpreter, so that no measurement inherits the allocator state of another:
it is called once to warm up, then timed call by call until it has run at
least MIN_CALLS times and for at least MIN_SECONDS (or MAX_CALLS times). The
output records the median and quartiles of the per-call times
with the environment they were taken in.

Usage: PYTHONPATH=src python scripts/bench_powers.py [--out BENCH_powers.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import mrpower as mp

DIMS = (2, 4, 6)
COMPOSITE_DIMS = (2, 3, 4)
SEED = 20241018
MIN_CALLS = 7
MIN_SECONDS = 0.5
MAX_CALLS = 2000

# name -> (function, dimensions)
QUANTITIES = {
    "C": (mp.measurement_cohering_power, DIMS),
    "C_g": (mp.state_cohering_power, DIMS),
    "certificate": (mp.conversion_ent_lower_bound, DIMS),
    "conversion_channel": (mp.conversion_channel, DIMS),
    "conversion_channel+kraus": (lambda channel: mp.conversion_channel(channel).kraus, DIMS),
    "composite_bound": (mp.composite_ent_lower_bound, COMPOSITE_DIMS),
}


def inputs(name: str, d: int) -> tuple:
    rng = mp.SeededRng(SEED).spawn(d)
    channel = mp.random_channel(d, d * d, "general", rng)
    if name != "composite_bound":
        return (channel,)
    k = mp.random_dio(d * d, False, rng.spawn(1))
    l = mp.random_dio(d * d, True, rng.spawn(2))
    return channel, k, l


def per_call_ms(name: str, d: int) -> list[float]:
    fn = QUANTITIES[name][0]
    args = inputs(name, d)
    fn(*args)
    times: list[float] = []
    spent = 0.0
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or spent < MIN_SECONDS):
        start = time.perf_counter()
        fn(*args)
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
    parser.add_argument("--out", default="BENCH_powers.json", help="output path")
    parser.add_argument("--measure", nargs=2, metavar=("QUANTITY", "DIM"),
                        help="time one quantity at one dimension and print the times")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(per_call_ms(args.measure[0], int(args.measure[1]))))
        return 0

    results = []
    for d in sorted(set(DIMS) | set(COMPOSITE_DIMS)):
        for name in (name for name, (_, dims) in QUANTITIES.items() if d in dims):
            command = [sys.executable, __file__, "--measure", name, str(d)]
            times = json.loads(subprocess.run(command, check=True, capture_output=True,
                                              text=True).stdout)
            row = {"quantity": name, "dim": d, "seed": SEED, **summary(times)}
            print(f"{name:>26} d={d}  median {row['median_ms']:9.3f} ms  "
                  f"IQR {row['iqr_ms']:8.3f} ms  ({row['calls']} calls)", file=sys.stderr)
            results.append(row)

    record = {
        "benchmark": "powers",
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
