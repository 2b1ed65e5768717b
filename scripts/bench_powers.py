"""Per-call timings of the `powers` layer on fixed seeds.

Times the measurement-cohering power C, the state-cohering power C_g, the
conversion certificate and the conversion channel at d = 2, 4 and 6, each on
one full-Kraus-rank random channel, and the sandwiched-composite bound at
d = 2, 3 and 4 on such a channel between a detection-incoherent K and a
unital detection-incoherent L on dimension d^2, sampled before the timed
calls. `conversion_channel+kraus` also reads the channel's Kraus set, which
`convert` writes, so a construction that defers its Kraus set cannot look
faster than it is. Each quantity and dimension is timed in a fresh
interpreter, as `benchtiming` describes.

Usage: PYTHONPATH=src python scripts/bench_powers.py [--out BENCH_powers.json]
"""

from __future__ import annotations

import argparse
import json
import sys

import mrpower as mp
from benchtiming import measure_in_fresh_interpreter, per_call_ms, write_record

DIMS = (2, 4, 6)
COMPOSITE_DIMS = (2, 3, 4)
SEED = 20241018

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


def measure(name: str, d: int) -> list[float]:
    fn = QUANTITIES[name][0]
    args = inputs(name, d)
    return per_call_ms(lambda: fn(*args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_powers.json", help="output path")
    parser.add_argument("--measure", nargs=2, metavar=("QUANTITY", "DIM"),
                        help="time one quantity at one dimension and print the times")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure[0], int(args.measure[1]))))
        return 0

    results = []
    for d in sorted(set(DIMS) | set(COMPOSITE_DIMS)):
        for name in (name for name, (_, dims) in QUANTITIES.items() if d in dims):
            row = {"quantity": name, "dim": d, "seed": SEED,
                   **measure_in_fresh_interpreter(__file__, name, str(d))}
            print(f"{name:>26} d={d}  median {row['median_ms']:9.3f} ms  "
                  f"IQR {row['iqr_ms']:8.3f} ms  ({row['calls']} calls)", file=sys.stderr)
            results.append(row)
    write_record(args.out, "powers", results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
