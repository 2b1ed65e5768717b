"""Command-line front end.

Subcommands:
  power    compute cohering powers of a channel file
  convert  build the conversion channel and print its equality certificate
  verify   run randomized verification suites and emit JSON/CSV reports

Exit codes: 0 success; 1 suite failure (verify); 2 parse/flag errors;
3 invalid channel input (any ToolkitError or LinAlgError a command lets
through); 4 conversion certificate gap above tolerance; 5 internal error
(any other exception a command lets through).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from .errors import ToolkitError
from .powers import (
    DEFAULT_CONVERSION_DIM_CAP,
    conversion_channel,
    conversion_ent_lower_bound,
    measurement_cohering_power,
    state_cohering_power,
)
from .serialize import SchemaError, load_channel, save_channel
from .suites import SUITE_NAMES, VerificationReport, run_suite

CONVERT_GAP_TOL = 1e-9

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVALID_CHANNEL = 3
EXIT_GAP = 4
EXIT_INTERNAL = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _sig12(value: float) -> float:
    """Round to 12 significant digits for stable JSON output."""
    return float(f"{value:.12g}")


def _cmd_power(args) -> int:
    try:
        channel = load_channel(args.channel_file)
    except SchemaError as exc:
        return _fail(EXIT_PARSE, str(exc))
    out: dict[str, float] = {}
    if args.what in ("c", "both"):
        out["c"] = _sig12(measurement_cohering_power(channel))
    if args.what in ("cg", "both"):
        out["cg"] = _sig12(state_cohering_power(channel))
    print(json.dumps(out))
    return EXIT_OK


def _unwritable(path: str) -> str | None:
    """Make sure the output exists, without truncating it, before any work:
    an unwritable path fails at once, and a failed run leaves an earlier
    result (or the input itself, when the output names it) unchanged.
    Returns the error message, or None when the path can be written."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        return f"cannot write {path}: {exc}"
    return None


def _cmd_convert(args) -> int:
    problem = _unwritable(args.out)
    if problem:
        return _fail(EXIT_PARSE, problem)
    try:
        channel = load_channel(args.channel_file)
    except SchemaError as exc:
        return _fail(EXIT_PARSE, str(exc))
    certificate = conversion_ent_lower_bound(channel)
    converted = conversion_channel(channel)
    save_channel(args.out, converted)
    print(
        json.dumps(
            {
                "cohering_power": _sig12(certificate.cohering_power),
                "avg_ere_lower_bound": _sig12(certificate.avg_ere_lower_bound),
                "gap": _sig12(certificate.gap),
            }
        )
    )
    if certificate.gap > CONVERT_GAP_TOL:
        return _fail(
            EXIT_GAP,
            f"certificate gap {certificate.gap:.3e} exceeds {CONVERT_GAP_TOL} "
            "(internal-consistency failure)",
        )
    return EXIT_OK


def _reports_to_csv(reports: list[VerificationReport]) -> str:
    lines = ["suite,dim,trials,master_seed,tolerance,trial,violation"]
    for report in reports:
        for trial, violation in enumerate(report.trial_values):
            lines.append(
                f"{report.suite},{report.dim},{report.trials},{report.master_seed},"
                f"{report.tolerance!r},{trial},{violation!r}"
            )
    return "\n".join(lines) + "\n"


def _summary_line(report: VerificationReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (
        f"{report.suite}: {status} dim={report.dim} trials={report.trials} "
        f"seed={report.master_seed} max_violation={report.max_violation:.3e} "
        f"tol={report.tolerance:.1e} failures={len(report.failures)} "
        f"({report.wall_time_ms} ms)"
    )


def _cmd_verify(args) -> int:
    if args.dim < 2:
        return _fail(EXIT_PARSE, f"--dim must be at least 2, got {args.dim}")
    if args.trials < 1:
        return _fail(EXIT_PARSE, f"--trials must be at least 1, got {args.trials}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _fail(EXIT_PARSE, f"--tol must be positive and finite, got {args.tol}")
    if args.suite == "cm_oracle" and args.dim != 2:
        return _fail(EXIT_PARSE, "cm_oracle is defined at dimension 2 only")
    if args.dim > DEFAULT_CONVERSION_DIM_CAP and args.suite in (
        "all", "conversion_equality", "thm3_proxy"
    ):
        return _fail(
            EXIT_PARSE, f"conversion suites are capped at dimension {DEFAULT_CONVERSION_DIM_CAP}"
        )
    problem = args.out and _unwritable(args.out)
    if problem:
        return _fail(EXIT_PARSE, problem)

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        # the oracle suite only exists at d = 2; keep `all` runnable at any dim
        dim = 2 if (name == "cm_oracle" and args.suite == "all") else args.dim
        report = run_suite(name, dim=dim, trials=args.trials, seed=args.seed, tol=args.tol)
        print(_summary_line(report))
        reports.append(report)

    if args.out:
        if args.format == "csv":
            payload = _reports_to_csv(reports)
        else:
            body = (
                reports[0].to_dict()
                if len(reports) == 1
                else [r.to_dict() for r in reports]
            )
            payload = json.dumps(body, indent=2) + "\n"
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)

    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpower",
        description=(
            "Cohering powers of quantum channels, the coherence-to-entanglement "
            "conversion construction, and randomized verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", help="compute cohering powers of a channel file")
    p_power.add_argument("channel_file", help="JSON channel file")
    p_power.add_argument(
        "--what", choices=("c", "cg", "both"), default="both",
        help="measurement-cohering power (c), state-cohering power (cg), or both",
    )
    p_power.set_defaults(handler=_cmd_power)

    p_convert = sub.add_parser(
        "convert", help="write the conversion channel and print its certificate"
    )
    p_convert.add_argument("channel_file", help="JSON channel file")
    p_convert.add_argument("--out", required=True, help="output path for the conversion channel")
    p_convert.set_defaults(handler=_cmd_convert)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    p_verify.add_argument(
        "--suite", choices=SUITE_NAMES + ("all",), default="all",
        help="suite name or 'all'",
    )
    p_verify.add_argument("--dim", type=int, default=2, help="system dimension (default 2)")
    p_verify.add_argument("--trials", type=int, default=100, help="trials per suite (default 100)")
    p_verify.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p_verify.add_argument(
        "--tol", type=float, default=None,
        help="override the per-suite default tolerance",
    )
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format for --out (default json)",
    )
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later `main` calls in the
    process: parsing reads it and leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ToolkitError, np.linalg.LinAlgError) as exc:
        # invalid input found past loading, e.g. by the certificate or a power
        return _fail(EXIT_INVALID_CHANNEL, str(exc))
    except Exception as exc:  # a fault in the program, never a suite failure
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        detail = " ".join(str(exc).split())  # one line, whatever the message holds
        return _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {detail} (at {where})")


if __name__ == "__main__":
    sys.exit(main())
