"""Per-call timings of the channel wire format on fixed seeds.

Times `load_channel` on full-Kraus-rank random channel files at d = 2, 4, 8
and 16, on the Hadamard example, and on the d = 16 file written with
`json.dumps(..., indent=1)`, a layout only the JSON reference path reads;
and `save_channel` on the d = 16 channel and on the conversion channels of
full-rank channels at d = 4 and 6, the files `convert` writes. Files are
written to a temporary directory before the timed calls. Each row is timed
in a fresh interpreter, as `benchtiming` describes.

Usage: PYTHONPATH=src python scripts/bench_wire.py [--out BENCH_wire.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import mrpower as mp
from benchtiming import measure_in_fresh_interpreter, per_call_ms, write_record
from mrpower.serialize import channel_to_dict, load_channel, save_channel

SEED = 20241018

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


def measure(operation: str, name: str, workdir: str) -> list[float]:
    channel = channel_for(name)
    path = os.path.join(workdir, f"{name}.json")
    if operation == "load":
        with open(path, "w", encoding="utf-8") as handle:
            if name.endswith("-indent1"):
                handle.write(json.dumps(channel_to_dict(channel), indent=1) + "\n")
            else:
                save_channel(path, channel)
        return per_call_ms(lambda: load_channel(path))
    return per_call_ms(lambda: save_channel(path, channel))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_wire.json", help="output path")
    parser.add_argument("--measure", nargs=2, metavar=("OPERATION", "INPUT"),
                        help="time one row and print the times")
    args = parser.parse_args(argv)
    if args.measure:
        with tempfile.TemporaryDirectory() as workdir:
            print(json.dumps(measure(*args.measure, workdir)))
        return 0

    results = []
    for operation, name in ROWS:
        row = {"operation": operation, "input": name, "seed": SEED,
               **measure_in_fresh_interpreter(__file__, operation, name)}
        print(f"{operation:>5} {name:>14}  median {row['median_ms']:9.3f} ms  "
              f"IQR {row['iqr_ms']:8.3f} ms  ({row['calls']} calls)", file=sys.stderr)
        results.append(row)
    write_record(args.out, "wire", results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
