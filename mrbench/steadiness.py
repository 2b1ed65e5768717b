"""Run two sets of benchmark runs of the same code and print each end-to-end
metric's spread against its bound.

    python3 mrbench/steadiness.py

Every workload in BENCHMARK.json is run with its `run_seconds`, ten times
in set A (seeds 1..10) and ten times in set B (seeds 101..110). For every
workload and end-to-end metric it prints, per set, the median and the
spread (the distance between the first and third quartiles as a share of
the median), and the change of B's median against A's in the metric's
worse direction. A spread above the bound, a shift of either sign larger
than the bound, or failed shares that differ between the runs are marked
FAIL; a spread above a third of the bound is marked wide. The exit code is
1 if anything is marked FAIL or a run is not correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per set and workload


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {}
        for label, base in (("A", 0), ("B", 100)):
            results = []
            for seed in range(base + 1, base + RUNS + 1):
                result = run_once(workload, seed, spec["run_seconds"])
                ok &= bool(result["correct"])
                results.append(result)
                print(f"{workload} set {label} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets[label] = results
        shares = {
            label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for label, rs in sets.items()
        }
        same_share = all(
            r["failed"] * sets["A"][0]["attempted"] == sets["A"][0]["failed"] * r["attempted"]
            for rs in sets.values() for r in rs
        )
        ok &= same_share
        print(f"\n{workload}: failed share A {shares['A']:.6f} B {shares['B']:.6f} "
              f"{'same in every run' if same_share else 'FAIL: differs'}")
        print(f"  {'metric':16s} {'bound':>6s} {'median A':>12s} {'spread A':>9s} "
              f"{'median B':>12s} {'spread B':>9s} {'B worse by':>10s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {label: [r["metrics"][name]["value"] for r in rs] for label, rs in sets.items()}
            med = {label: statistics.median(v) for label, v in values.items()}
            spr = {label: spread(v) for label, v in values.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (med["B"] - med["A"]) / med["A"]
            verdict = []
            if max(spr.values()) > bound:
                verdict.append("FAIL spread")
            elif max(spr.values()) > bound / 3:
                verdict.append("wide")
            if abs(worse) > bound:
                verdict.append("FAIL shift")
            ok &= not any(v.startswith("FAIL") for v in verdict)
            print(f"  {name:16s} {bound:6.2f} {med['A']:12.6g} {spr['A']:9.3f} "
                  f"{med['B']:12.6g} {spr['B']:9.3f} {worse:10.3f}  {' '.join(verdict) or 'ok'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
