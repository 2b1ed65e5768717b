"""Timing loop, summary, environment record and fresh-interpreter runner
shared by the per-call benchmark scripts in this directory.

A row is timed in a fresh interpreter, so that no measurement inherits the
allocator state of another: the script re-runs itself with `--measure ...`,
which calls the operation once to warm up, then times it call by call until
it has run at least MIN_CALLS times and for at least MIN_SECONDS (or
MAX_CALLS times), and prints the per-call times as JSON. The record keeps
the median and quartiles of each row with the environment they were taken
in.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

MIN_CALLS = 7
MIN_SECONDS = 0.5
MAX_CALLS = 2000


def per_call_ms(call) -> list[float]:
    """Per-call times of `call()` in ms, after one warm-up call."""
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


def measure_in_fresh_interpreter(script: str, *row: str) -> dict:
    """Run `script --measure *row` in a new interpreter and summarize the
    per-call times it prints."""
    command = [sys.executable, script, "--measure", *row]
    times = json.loads(subprocess.run(command, check=True, capture_output=True,
                                      text=True).stdout)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"calls": len(times), "median_ms": median, "q1_ms": q1, "q3_ms": q3,
            "iqr_ms": q3 - q1}


def write_record(path: str, benchmark: str, results: list[dict]) -> None:
    """Write the rows with the environment and the timing parameters."""
    record = {
        "benchmark": benchmark,
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
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record, indent=2) + "\n")
