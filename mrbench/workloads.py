"""The benchmark's workloads: their inputs, their operations and the checks
on every operation's output.

Every operation is one `mrpower` command run in-process through
`mrpower.cli.main`. A round is a fixed list of operation kinds; a run repeats
whole rounds, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import reference
from tracing import SUITE_NAMES

EXIT_OK = 0
EXIT_INVALID_CHANNEL = 3
POWER_TOL = 1e-9       # printed 12-digit values against recomputation
TP_TOL = 1e-9          # converted channels must be trace preserving
EQUALITY_TOL = 1e-9    # conversion equality on the written channel

EXAMPLE_POWERS = {
    "prep": (0.0, 1.0),
    "g": (1.0, 0.0),
    "hadamard": (1.0, 1.0),
    "qubit_dephase": (0.0, 0.0),
    "cnot2": (0.0, 0.0),
}
POWER_DIMS = (2, 4, 8, 16)
CONVERT_DIMS = (2, 3, 4)


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expects."""


@dataclass
class Op:
    kind: str
    argv: list
    items: int
    expect_exit: int = EXIT_OK


@dataclass
class Outcome:
    seconds: float
    code: object      # exit code, or None when the command raised
    error: str        # exception type and message when it raised
    stdout: str


def derive_seed(seed: int, index: int) -> int:
    """splitmix64 output `index` of the stream at `seed`, cut to 32 bits."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) & mask) >> 32


def _file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


class VerifyWorkload:
    """`mrpower verify --suite S --dim d` for each of the ten suites.

    Round r draws its master seed from (seed, r), so a run covers as many
    distinct trials as it has rounds and its figures do not hang on a few
    draws. `cm_oracle` runs at d = 2, as `--suite all` runs it.
    """

    def __init__(self, dim: int, trials: dict, workdir: Path, seed: int) -> None:
        self.dim = dim
        self.trials = trials
        self.workdir = workdir
        self.seed = seed
        self._replay = None

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _dim_for(self, suite: str) -> int:
        return 2 if suite == "cm_oracle" else self.dim

    def _op(self, suite: str, dim: int, trials: int, seed: int) -> Op:
        out = self.workdir / f"report-{suite}.json"
        argv = [
            "verify", "--suite", suite, "--dim", str(dim), "--trials", str(trials),
            "--seed", str(seed), "--out", str(out),
        ]
        return Op(kind=suite, argv=argv, items=trials)

    def warmup_ops(self) -> list:
        return [self._op(suite, 2, 1, 0) for suite in SUITE_NAMES]

    def round_ops(self, index: int) -> list:
        seed = derive_seed(self.seed, index)
        return [
            self._op(suite, self._dim_for(suite), self.trials[suite], seed)
            for suite in SUITE_NAMES
        ]

    def check(self, op: Op, outcome: Outcome, index: int) -> None:
        if outcome.code != EXIT_OK:
            raise CheckFailed(f"{op.argv}: exit {outcome.code} {outcome.error}")
        out = Path(op.argv[op.argv.index("--out") + 1])
        report = json.loads(out.read_text(encoding="utf-8"))
        values = report["trial_values"]
        expected = {
            "suite": op.kind,
            "dim": int(op.argv[op.argv.index("--dim") + 1]),
            "trials": op.items,
            "master_seed": int(op.argv[op.argv.index("--seed") + 1]),
        }
        for key, value in expected.items():
            if report[key] != value:
                raise CheckFailed(f"{op.argv}: report {key} {report[key]!r} != {value!r}")
        if not report["passed"] or report["failures"]:
            raise CheckFailed(f"{op.argv}: report did not pass: {report['failures']}")
        if len(values) != op.items or not all(
            math.isfinite(v) and v <= report["tolerance"] for v in values
        ):
            raise CheckFailed(f"{op.argv}: trial values {values} exceed {report['tolerance']}")
        # keep one report per run to replay after the timed loop
        if index == 0 and op.kind == SUITE_NAMES[self.seed % len(SUITE_NAMES)]:
            report.pop("wall_time_ms")
            self._replay = (op, report)

    def replay_check(self, run) -> None:
        """Replaying the kept operation must give the same report body."""
        op, report = self._replay
        outcome = run(op.argv)
        self.check(op, outcome, index=1)
        again = json.loads(Path(op.argv[op.argv.index("--out") + 1]).read_text(encoding="utf-8"))
        again.pop("wall_time_ms")
        if again != report:
            raise CheckFailed(f"{op.argv}: replayed report differs")

    def final_check(self) -> None:
        pass


class ChannelFilesWorkload:
    """`mrpower power` on generated and example channel files, and
    `mrpower convert`, reading and writing the JSON wire format.

    Generated channels are full Kraus rank (d^2), so file sizes and costs
    depend on the dimension only; their entries come from `--seed`. The
    NaN-entry file does not depend on the seed.
    """

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.inputs: dict[str, Path] = {}
        self._ops: list = []
        self._first: dict[str, tuple] = {}

    def prepare(self) -> None:
        from mrpower import serialize
        from mrpower.sampling import SeededRng, example_channels, random_channel

        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = SeededRng(self.seed)
        for d in sorted(set(POWER_DIMS) | set(CONVERT_DIMS)):
            path = self.workdir / f"random-d{d}.json"
            serialize.save_channel(str(path), random_channel(d, d * d, "general", rng))
            self.inputs[f"d{d}"] = path
        for name, channel in example_channels().items():
            path = self.workdir / f"example-{name}.json"
            serialize.save_channel(str(path), channel)
            self.inputs[name] = path
        nan_path = self.workdir / "nan-entry.json"
        wire = serialize.channel_to_dict(example_channels()["qubit_dephase"])
        wire["kraus"][0][0][0] = [math.nan, 0.0]
        nan_path.write_text(json.dumps(wire) + "\n", encoding="utf-8")
        self.inputs["nan"] = nan_path

        for d in POWER_DIMS:
            self._ops.append(Op(f"power_d{d}", ["power", str(self.inputs[f"d{d}"])], 1))
        for name in EXAMPLE_POWERS:
            self._ops.append(Op(f"power_{name}", ["power", str(self.inputs[name])], 1))
        for d in CONVERT_DIMS:
            out = self.workdir / f"converted-d{d}.json"
            self._ops.append(
                Op(f"convert_d{d}", ["convert", str(self.inputs[f"d{d}"]), "--out", str(out)], 1)
            )
        nan = str(self.inputs["nan"])
        self._ops.append(Op("power_nan", ["power", nan], 1, EXIT_INVALID_CHANNEL))
        self._ops.append(
            Op("convert_nan", ["convert", nan, "--out", str(self.workdir / "converted-nan.json")],
               1, EXIT_INVALID_CHANNEL)
        )

    def warmup_ops(self) -> list:
        return [op for op in self._ops if op.kind in ("power_hadamard", "convert_d2")]

    def round_ops(self, index: int) -> list:
        return self._ops

    def check(self, op: Op, outcome: Outcome, index: int) -> None:
        if outcome.code != op.expect_exit:
            raise CheckFailed(f"{op.argv}: exit {outcome.code} {outcome.error}")
        produced = (outcome.stdout,)
        if op.kind.startswith("convert"):
            produced += (_file_digest(Path(op.argv[-1])),)
        first = self._first.setdefault(op.kind, produced)
        if produced != first:
            raise CheckFailed(f"{op.argv}: output differs from the first round")

    def replay_check(self, run) -> None:
        # every round replays every operation; check() compares them
        pass

    def final_check(self) -> None:
        """Check the first round's outputs against independent recomputation."""
        references = {}
        for op in self._ops:
            if op.expect_exit != EXIT_OK:
                continue
            source = Path(op.argv[1])
            if source not in references:
                references[source] = reference.cohering_powers(reference.read_kraus(source))
            c, c_g = references[source]
            printed = json.loads(self._first[op.kind][0])
            if op.kind.startswith("power"):
                name = op.kind[len("power_"):]
                if name in EXAMPLE_POWERS:
                    _close(op, "analytic C", EXAMPLE_POWERS[name][0], c)
                    _close(op, "analytic C_g", EXAMPLE_POWERS[name][1], c_g)
                _close(op, "printed c", printed["c"], c)
                _close(op, "printed cg", printed["cg"], c_g)
            else:
                converted = reference.read_kraus(op.argv[-1])
                d = reference.read_kraus(source).shape[2]
                tp = reference.trace_preservation_error(converted)
                if tp > TP_TOL:
                    raise CheckFailed(f"{op.argv}: converted channel off TP by {tp:.3e}")
                bound = reference.average_marginal_bound(converted, d)
                _close(op, "conversion equality", bound, c, EQUALITY_TOL)
                _close(op, "printed cohering_power", printed["cohering_power"], c)
                _close(op, "printed avg_ere_lower_bound", printed["avg_ere_lower_bound"], bound)
                _close(op, "printed gap", printed["gap"], abs(printed["cohering_power"]
                                                              - printed["avg_ere_lower_bound"]))


def _close(op: Op, what: str, got: float, want: float, tol: float = POWER_TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{op.argv}: {what} {got!r} != {want!r}")


def make_workload(name: str, workdir: Path, seed: int):
    if name == "verify_d2":
        return VerifyWorkload(2, dict.fromkeys(SUITE_NAMES, 10), workdir, seed)
    if name == "verify_d3":
        # thm3_proxy costs 0.1-2 s a trial, with a spread of cost as wide as
        # its mean, against about 35 ms for one trial of every other suite.
        # A run holds only a few dozen thm3_proxy trials, and the seed-to-seed
        # spread grows with the square root of its share of the round;
        # twenty trials of the others keep that share near a third.
        return VerifyWorkload(3, {**dict.fromkeys(SUITE_NAMES, 20), "thm3_proxy": 1},
                              workdir, seed)
    if name == "channel_files":
        return ChannelFilesWorkload(workdir, seed)
    raise KeyError(name)


WORKLOAD_NAMES = ("verify_d2", "verify_d3", "channel_files")
