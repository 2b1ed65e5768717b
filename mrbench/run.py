"""Benchmark for mrpower's `verify`, `power` and `convert` commands.

Usage, from the root of a checkout:

    python3 mrbench/run.py --workload verify_d2 --seed 1 --seconds 35 --trace 0

Workloads: verify_d2, verify_d3, channel_files (see mrbench/README.md).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Set-up time is the median over several fresh interpreters,
each timed from its start to the moment it is ready to run the first
operation and scaled by the reference kernel's time in that interpreter.
The benchmark writes only under `.mrbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".mrbench"
SETUP_STARTS = 7          # fresh interpreters timed for setup_s, the run's own included
NOMINAL_KERNEL_S = 5e-4   # setup_s is scaled to a machine where the kernel takes this
CHILD_GRACE_S = 90.0      # slack beyond --seconds before a worker is killed
SETUP_TIMEOUT_S = 60.0    # a worker not ready by then is killed

sys.path.insert(0, str(HERE))
from workloads import WORKLOAD_NAMES  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Serial numpy and serial suites, so runs compare on a shared machine."""
    env = dict(os.environ)
    env.pop("MRPOWER_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, workdir: Path, pauses: int | None):
    """Start a worker and wait until it is ready.

    A worker started with `pauses` None only sets up. Returns the worker,
    its set-up time in seconds, and the reference kernel's time measured in
    the worker right after set-up.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--probe"] if pauses is None else ["--pauses", str(pauses)])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        kernel = proc.stdout.readline().split()
    finally:
        guard.cancel()
    if line.strip() != "ready" or len(kernel) != 2 or kernel[0] != "kernel":
        finish(proc, 30.0)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, float(kernel[1])


def finish(proc, timeout: float) -> str:
    """Collect a worker's remaining output, killing it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def probe(args, workdir: Path) -> tuple[float, float]:
    """Set-up time and kernel time of one fresh interpreter."""
    proc, setup, kernel = start_worker(args, workdir, pauses=None)
    finish(proc, CHILD_GRACE_S)
    return setup, kernel


def run_worker(args, run_dir: Path) -> tuple[list, str]:
    """Run the measuring worker; time fresh set-ups while it pauses.

    Spreading the set-up samples over the run lets them see the machine in
    more than one of its speed phases. Returns the (set-up, kernel) samples
    and the worker's last output line.
    """
    probes = 0 if args.trace else SETUP_STARTS - 1
    proc, *setup = start_worker(args, run_dir / "run", pauses=probes)
    setups = [tuple(setup)]
    watchdog = threading.Timer(args.seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        last = ""
        for line in proc.stdout:
            if line.strip() == "pause":
                setups.append(probe(args, run_dir / f"probe{len(setups)}"))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not last:
        raise RuntimeError(f"worker exited {proc.returncode}")
    while len(setups) < probes + 1:
        setups.append(probe(args, run_dir / f"probe{len(setups)}"))
    return setups, last


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mrpower" / "__init__.py").is_file():
        print(f"error: no mrpower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, last = run_worker(args, run_dir)
        detail = json.loads(last)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = {"items_per_ref": "1/ref", "peak_rss_mib": "MiB"}
    if args.trace:
        from tracing import LAYER_METRICS
        units = LAYER_METRICS
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in detail["metrics"].items()
    }
    if not args.trace:
        scaled = [seconds / kernel * NOMINAL_KERNEL_S for seconds, kernel in setups]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        detail["setup_raw_s"] = [seconds for seconds, _ in setups]
        detail["setup_kernel_ms"] = [kernel * 1e3 for _, kernel in setups]

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"{detail['attempted']} operations, {detail['failed']} failed")
    for kind, ms in detail["ms_per_op"].items():
        print(f"  {kind:24s} {ms:10.3f} ms  {detail['ratio_per_op'][kind]:10.3f} ref")
    for error in detail["errors"]:
        print(f"  check failed: {error}")
    if not args.trace:
        print(f"  {'items_per_s (reference figure)':38s} {detail['items_per_s']:14.6g} 1/s")
        print(f"  {'setup, raw median (reference figure)':38s} "
              f"{statistics.median(detail['setup_raw_s']):14.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
