"""One workload in one fresh interpreter; started by run.py.

It imports mrpower from the checkout's `src`, makes the workload's inputs,
warms up and prints `ready`, then the reference kernel's time. With --probe
it stops there (a set-up sample).
Otherwise it runs whole rounds of operations for --seconds, timing the
reference kernel right after every operation, checks every output, and
prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_REPEATS = 31


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--pauses", type=int, default=0,
                        help="times to stop, evenly over the run, until a line arrives on stdin")
    return parser.parse_args(argv)


def make_runner(cli_main):
    from workloads import Outcome

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli_main(argv)
            except Exception as exc:  # the command crashed; the caller decides
                code = None
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return Outcome(seconds=seconds, code=code, error=error, stdout=out.getvalue())

    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import mrpower
    import mrpower.cli

    if Path(mrpower.__file__).resolve().parent != ROOT / "src" / "mrpower":
        print(f"error: mrpower imported from {mrpower.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    from reference import ReferenceKernel
    from workloads import EXIT_OK, CheckFailed, make_workload

    workload = make_workload(args.workload, Path(args.workdir), args.seed)
    workload.prepare()
    kernel = ReferenceKernel()
    run = make_runner(mrpower.cli.main)
    for op in workload.warmup_ops():
        run(op.argv)
    print("ready", flush=True)
    # the kernel's own warm-up stays out of the set-up time
    for _ in range(20):
        kernel()
    # the machine's speed right after set-up, to normalise the set-up time
    print(f"kernel {statistics.median(kernel() for _ in range(KERNEL_REPEATS))!r}", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # kind -> per-operation samples; with tracing, index 0 holds untraced
    # and index 1 traced executions of the same operations
    ratios = ({}, {})
    seconds = ({}, {})
    kernel_s = []
    attempted = failed = rounds = 0
    errors = []
    known_faults = {}
    pauses = [args.seconds * (i + 0.5) / args.pauses for i in range(args.pauses)]
    paused = 0.0
    start = time.perf_counter()
    while True:
        ops = workload.round_ops(rounds)
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            for op in ops:
                if traced:
                    tracer.op_id += 1
                    outcome = tracer.span("cli", run, op.argv)
                else:
                    outcome = run(op.argv)
                ref = kernel()
                kernel_s.append(ref)
                attempted += 1
                if outcome.code != op.expect_exit:
                    failed += 1
                    if op.expect_exit == EXIT_OK:
                        errors.append(f"{op.kind}: exit {outcome.code} {outcome.error}")
                    else:
                        known_faults.setdefault(op.kind, outcome.error or f"exit {outcome.code}")
                    continue
                # operations that probe a known fault stay out of the timing metrics
                if op.expect_exit == EXIT_OK:
                    ratios[traced].setdefault(op.kind, []).append(outcome.seconds / ref)
                    seconds[traced].setdefault(op.kind, []).append(outcome.seconds)
                try:
                    workload.check(op, outcome, rounds)
                except CheckFailed as exc:
                    errors.append(str(exc))
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed >= args.seconds:
            break
        # the parent times a fresh set-up while this process waits idle
        while pauses and elapsed >= pauses[0]:
            pauses.pop(0)
            stop = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            paused += time.perf_counter() - stop

    try:
        workload.replay_check(run)
        workload.final_check()
    except CheckFailed as exc:
        errors.append(str(exc))
    except Exception:  # a check that crashes is a failed check
        errors.append(traceback.format_exc())

    items = sum(op.items for op in workload.round_ops(0) if op.expect_exit == EXIT_OK)

    def per_kind(samples, aggregate):
        return {kind: aggregate(v) for kind, v in samples.items()}

    ratio_mean = per_kind(ratios[0], statistics.fmean)
    seconds_mean = per_kind(seconds[0], statistics.fmean)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "known_faults": known_faults,
        "items_per_round": items,
        "ms_per_op": {k: v * 1e3 for k, v in seconds_mean.items()},
        "ratio_per_op": ratio_mean,
        "kernel_ms": statistics.median(kernel_s) * 1e3,
        "items_per_s": items / sum(seconds_mean.values()),
    }
    if tracer is None:
        result["metrics"] = {
            "items_per_ref": items / sum(ratio_mean.values()),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        layer = tracer.layer_metrics(rounds)
        traced_ratio = sum(per_kind(ratios[1], statistics.fmean).values())
        layer["trace.overhead_pct"] = 100.0 * (traced_ratio / sum(ratio_mean.values()) - 1.0)
        result["metrics"] = layer
        traces = ROOT / ".mrbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        result["trace_file"] = str(traces / f"{args.workload}-{args.seed}.tsv")
        tracer.write(result["trace_file"])
    if not all(math.isfinite(v) for v in result["metrics"].values()):
        errors.append("non-finite metric")
    result["correct"] = not errors
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
