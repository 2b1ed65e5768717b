"""Per-call timings of every layer of mrpower on fixed seeds.

Each row of ROWS is a (layer, operation, case); `call` builds the row's
inputs before any timing and returns the call to time. Case "dN" is the
full-Kraus-rank random channel E on dimension N drawn from
SeededRng(SEED).spawn(N), or what is derived from it. With M the basis
measurement pulled back through E and P = E^dag(M) the same pulled back
once more:

- operators: the entropy kernel on the spectra of P and the relative-entropy
  kernel on the pairs (M_x, P_x); the scalar entropy and relative entropy
  are one-operator views of these kernels.
- channels: construction from E's Kraus set, E after E, the class flags of
  E, and the pull-back of M through E.
- measures: the coherence of M and D(M || P), each on a POVM pulled back
  afresh on every call (M through E, P = E^dag(M)), the batched D of
  BATCH_PAIRS such pairs, each P pulled back afresh on every call, and the
  entanglement lower bounds of the d^2 pulled-back elements of E's
  conversion channel.
- powers: C, C_g, the certificate and the conversion channel of E, and the
  bound of the composite of E between a detection-incoherent K and a unital
  detection-incoherent L on dimension N^2, drawn from spawn(1) and spawn(2)
  of E's generator.
- wire: `load_channel` on E's file, on the Hadamard example, and on the
  d = 16 file written with `json.dumps(..., indent=1)`, a layout only the
  JSON reference path reads; `save_channel` of E and of the conversion
  channels of E, the files `convert` writes. Files are written to a
  temporary directory before the timed calls.
- sampling: the full-Kraus-rank unital and general random channels, the
  coherent random POVM with N outcomes, and the unital and non-unital random
  detection-incoherent channels. Each call draws from its own copy of
  SeededRng(SEED).spawn(N), made before the timed calls, so every call draws
  the same instance: a sampler's cost depends on the ranks it draws. Case
  "dNxB" times the block form of the sampler (`random_channels`,
  `random_povms`, `random_dios`) on B streams, the block that `verify`
  draws at d = N (BLOCK_STREAMS), each stream drawing what the scalar row
  draws, from copies of SeededRng(SEED).spawn(N).spawn(t); it is reported
  in ms per stream, so it reads against the scalar row of its d.
- suites: `run_suite` on each (suite, dimension) run that `verify --suite
  all` plans at d = 2 to 6 (`suites.plan`), on the same block of
  SUITE_TRIALS trials (seed SEED) on every call, reported in ms per trial.
  A fixed block makes the spread the machine's, not the draws': a trial's
  cost depends on the ranks it draws, so timing one fresh trial per call
  gave the rows of the suite that composes on dimension d^2 an IQR above
  their median.

Each row is timed in a fresh interpreter, as `benchtiming` describes.
With `--baseline SRC`, each row is also timed in fresh interpreters with
PYTHONPATH=SRC, the `src` directory of another checkout. The two sides then
take BASELINE_ROUNDS turns each on every row, alternating, and which side
goes first changes from row to row, so that the machine's drift over the
run, and a change of its speed during one run, reach both alike; each side
records the median of its runs' medians (`benchtiming.combine`), the
baseline's under "baseline" beside the tree's. The row also records the
tree/baseline ratio of each turn's back-to-back pair of runs and their
median (`benchtiming.pair_ratios`), which a speed phase longer than one run
does not skew as it can skew either side's median. A row whose operation
the baseline's mrpower lacks (its `--measure` run exits with ABSENT)
records "baseline": null. A `--baseline` run takes
about 9 minutes on 2 vCPUs, a run without it about 2.

Usage: PYTHONPATH=src python scripts/bench_layers.py [--out BENCH_layers.json]
                                                     [--baseline SRC]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import mrpower as mp
from benchtiming import (
    MAX_CALLS,
    combine,
    measure_in_fresh_interpreter,
    pair_ratios,
    per_call_ms,
    write_record,
)
from mrpower.measures import ere_lower_bounds
from mrpower.operators import psd_entropies, relative_entropies
from mrpower.serialize import channel_to_dict, load_channel, save_channel
from mrpower.suites import plan

SEED = 20241018
SUITE_TRIALS = 5  # trials per timed `run_suite` call; keeps the script under 2 minutes
BASELINE_ROUNDS = 3  # fresh interpreters per side and row with --baseline
BATCH_PAIRS = 7  # pairs per `measurement_relative_entropies` call, as in `dm_properties`
ABSENT = 3  # exit code of `--measure` when the mrpower it imports lacks the row's operation

SAMPLERS = {
    "random_channel_unital": lambda d, rng: mp.random_channel(d, d * d, "unital", rng),
    "random_channel_general": lambda d, rng: mp.random_channel(d, d * d, "general", rng),
    "random_povm_coherent": lambda d, rng: mp.random_povm(d, d, False, rng),
    "random_dio_unital": lambda d, rng: mp.random_dio(d, True, rng),
    "random_dio_general": lambda d, rng: mp.random_dio(d, False, rng),
}
BLOCK_STREAMS = {2: 10, 3: 20}  # trials of a verify block at d = 2 and 3 (mrbench)


def block_samplers() -> dict:
    """The block form of each sampler of SAMPLERS, by the same name."""
    from mrpower.sampling import random_channels, random_dios, random_povms  # absent in older trees
    return {
        "random_channel_unital": lambda d, rngs: random_channels(
            d, [d * d] * len(rngs), "unital", rngs),
        "random_channel_general": lambda d, rngs: random_channels(
            d, [d * d] * len(rngs), "general", rngs),
        "random_povm_coherent": lambda d, rngs: random_povms(
            d, [d] * len(rngs), [False] * len(rngs), rngs),
        "random_dio_unital": lambda d, rngs: random_dios(d, [True] * len(rngs), rngs),
        "random_dio_general": lambda d, rngs: random_dios(d, [False] * len(rngs), rngs),
    }


def _rows(layer: str, operations, dims) -> tuple:
    return tuple((layer, operation, f"d{d}") for d in dims for operation in operations)


# (layer, operation, case), in output order
ROWS = (
    *_rows("operators", ("psd_entropies", "relative_entropies"), (2, 4)),
    *_rows("channels", ("construct", "compose", "classify_channel", "pullback_povm"),
           (2, 3, 4, 5, 6)),
    *_rows("measures", ("measurement_coherence", "measurement_relative_entropy",
                        "measurement_relative_entropies", "ere_lower_bounds"), (2, 4)),
    *_rows("powers", ("C", "C_g", "certificate", "conversion_channel"), (2, 4, 6)),
    *_rows("powers", ("composite_bound",), (2, 3, 4)),
    *_rows("sampling", tuple(SAMPLERS), (2, 3, 4)),
    *(("sampling", operation, f"d{d}x{streams}") for d, streams in BLOCK_STREAMS.items()
      for operation in SAMPLERS),
    *(("wire", "load", case) for case in ("d2", "d4", "d8", "d16", "hadamard", "d16-indent1")),
    *(("wire", "save", case) for case in ("d16", "conversion-d4", "conversion-d6")),
    *(("suites", name, f"d{dim}") for d in (2, 3, 4, 5, 6) for name, dim in plan("all", d)),
)


def random_full_rank(d: int) -> mp.QuantumChannel:
    return mp.random_channel(d, d * d, "general", mp.SeededRng(SEED).spawn(d))


def wire_call(operation: str, case: str, workdir: str):
    if case == "hadamard":
        channel = mp.example_channels()["hadamard"]
    elif case.startswith("conversion-d"):
        channel = mp.conversion_channel(random_full_rank(int(case[len("conversion-d"):])))
    else:
        channel = random_full_rank(int(case.split("-")[0][1:]))
    path = os.path.join(workdir, f"{case}.json")
    if operation == "save":
        return lambda: save_channel(path, channel)
    with open(path, "w", encoding="utf-8") as handle:
        if case.endswith("-indent1"):
            handle.write(json.dumps(channel_to_dict(channel), indent=1) + "\n")
        else:
            save_channel(path, channel)
    return lambda: load_channel(path)


def call(layer: str, operation: str, case: str, workdir: str):
    """Build the inputs of one row and return the zero-argument call to time."""
    if layer == "wire":
        return wire_call(operation, case, workdir)
    d, _, streams = case[1:].partition("x")
    d = int(d)
    if layer == "suites":
        return lambda: mp.run_suite(operation, dim=d, trials=SUITE_TRIALS, seed=SEED)
    if layer == "sampling" and streams:
        block = block_samplers()[operation]
        blocks = iter([[mp.SeededRng(SEED).spawn(d).spawn(t) for t in range(int(streams))]
                       for _ in range(MAX_CALLS + 1)])
        return lambda: block(d, next(blocks))
    if layer == "sampling":
        rngs = iter([mp.SeededRng(SEED).spawn(d) for _ in range(MAX_CALLS + 1)])
        return lambda: SAMPLERS[operation](d, next(rngs))
    e = random_full_rank(d)
    if operation == "composite_bound":
        rng = mp.SeededRng(SEED).spawn(d)
        k = mp.random_dio(d * d, False, rng.spawn(1))
        l = mp.random_dio(d * d, True, rng.spawn(2))
        return lambda: mp.composite_ent_lower_bound(e, k, l)
    if operation == "ere_lower_bounds":
        elements = mp.pulled_back_basis(mp.conversion_channel(e)).stack
        return lambda: ere_lower_bounds(elements, (d, d))
    m = mp.pulled_back_basis(e)
    if operation == "measurement_relative_entropies":
        from mrpower.measures import measurement_relative_entropies  # absent in older trees
        return lambda: measurement_relative_entropies(
            [(m, mp.pullback_povm(e, m)) for _ in range(BATCH_PAIRS)])
    p = mp.pullback_povm(e, m)
    m_spectra, p_spectra = np.linalg.eigvalsh(m.stack), np.linalg.eigvalsh(p.stack)
    p_eig, p_vec = np.linalg.eigh(p.stack)
    return {
        "psd_entropies": lambda: psd_entropies(p_spectra),
        "relative_entropies": lambda: relative_entropies(m.stack, m_spectra, p_eig, p_vec),
        "construct": lambda: mp.QuantumChannel(e.kraus),
        "compose": lambda: mp.compose(e, e),
        "classify_channel": lambda: mp.classify_channel(e),
        "pullback_povm": lambda: mp.pullback_povm(e, m),
        "measurement_coherence": lambda: mp.measurement_coherence(mp.pulled_back_basis(e)),
        "measurement_relative_entropy":
            lambda: mp.measurement_relative_entropy(m, mp.pullback_povm(e, m)),
        "C": lambda: mp.measurement_cohering_power(e),
        "C_g": lambda: mp.state_cohering_power(e),
        "certificate": lambda: mp.conversion_ent_lower_bound(e),
        "conversion_channel": lambda: mp.conversion_channel(e),
    }[operation]


def measure(row: tuple, pythonpath: str | None) -> dict | None:
    """`measure_in_fresh_interpreter` of one row, or None when the mrpower
    found through `pythonpath` lacks the row's operation."""
    try:
        return measure_in_fresh_interpreter(__file__, *row, pythonpath=pythonpath)
    except subprocess.CalledProcessError as exc:
        if exc.returncode != ABSENT:
            raise
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_layers.json", help="output path")
    parser.add_argument("--measure", nargs=3, metavar=("LAYER", "OPERATION", "CASE"),
                        help="time one row and print the times")
    parser.add_argument("--baseline", metavar="SRC",
                        help="also time each row with PYTHONPATH=SRC, alternating which "
                             "side goes first, and record both")
    args = parser.parse_args(argv)
    if args.measure:
        layer, _, case = args.measure
        # suites rows per trial, block sampler rows per stream
        per_call = SUITE_TRIALS if layer == "suites" else int(case.partition("x")[2] or 1)
        with tempfile.TemporaryDirectory() as workdir:
            try:
                timed = call(*args.measure, workdir)
            except ImportError:
                return ABSENT
            times = per_call_ms(timed)
        print(json.dumps([t / per_call for t in times]))
        return 0

    results = []
    sides = [("tree", None)] + ([("baseline", args.baseline)] if args.baseline else [])
    rounds = BASELINE_ROUNDS if args.baseline else 1
    for index, (layer, operation, case) in enumerate(ROWS):
        runs = {side: [] for side, _ in sides}
        for _ in range(rounds):
            for side, path in (sides if index % 2 else sides[::-1]):  # taking turns
                summary = measure((layer, operation, case), path)
                if summary is not None:
                    runs[side].append(summary)
        timed = {side: combine(summaries) for side, summaries in runs.items() if summaries}
        row = {"layer": layer, "operation": operation, "case": case, "seed": SEED,
               **timed["tree"]}
        line = (f"{layer:>9} {operation:>30} {case:>14}  median {row['median_ms']:9.3f} ms  "
                f"IQR {row['iqr_ms']:8.3f} ms  ({row['calls']} calls)")
        if "baseline" in timed:
            row["baseline"] = timed["baseline"]
            row.update(pair_ratios(runs["tree"], runs["baseline"]))
            line += (f"  baseline median {timed['baseline']['median_ms']:9.3f} ms"
                     f"  ratio {row['median_ratio']:6.3f}")
        elif args.baseline:
            row["baseline"] = None
            line += "  baseline lacks the operation"
        print(line, file=sys.stderr)
        results.append(row)
    fields = {"baseline_src": args.baseline} if args.baseline else {}
    write_record(args.out, "layers", results, **fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
