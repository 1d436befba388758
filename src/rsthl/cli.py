"""Command line interface.

Exit codes: 0 when every check passes, 1 when a check fails, 2 for
usage, file or scalar syntax problems.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional

from .builtin import example_model
from .errors import ModelError, MuZero, ScalarDomainError, ScalarParseError
from .model import load_model, save_model
from .report import CheckReport
from .scalars import RationalFunction
from .suite import SUITES, run_suite


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rsthl",
        description="Exact verification of invariant almost contact models "
                    "with a half lightlike submanifold")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="run the check suite on a model JSON file")
    check.add_argument("file", help="path to a model JSON file")
    check.add_argument("--suite", choices=SUITES, default="all",
                       help="which stage(s) to report (default: all)")
    check.add_argument("--report", metavar="PATH",
                       help="also write the report as JSON")

    example = sub.add_parser(
        "example47", help="run the built-in worked example")
    example.add_argument("--mu", metavar="P/Q",
                         help="specialize the parameter to a nonzero rational")
    example.add_argument("--suite", choices=SUITES, default="all",
                         help="which stage(s) to report (default: all)")
    example.add_argument("--emit", metavar="PATH",
                         help="also write the example model file")
    example.add_argument("--report", metavar="PATH",
                         help="also write the report as JSON")
    return parser


def _finish(rep: CheckReport, report_path: Optional[str]) -> int:
    print(rep.render_text())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(rep.to_json())
    return 0 if rep.ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            model = load_model(args.file)
        else:
            mu = None
            if args.mu is not None:
                try:
                    mu = RationalFunction.parse(args.mu)
                except ScalarParseError:
                    mu = None
                if mu is None or not mu.is_constant():
                    raise ModelError("--mu", f"not a rational number: {args.mu!r}")
                if mu.is_zero():
                    raise MuZero("the parameter mu must be nonzero")
            model = example_model(mu)
            if args.emit:
                save_model(model, args.emit)
        rep = run_suite(model, args.suite)
        return _finish(rep, args.report)
    except (ModelError, ScalarParseError, ScalarDomainError, MuZero, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
