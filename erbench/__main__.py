"""Command line: ``python3 -m erbench run | compare | report | expected``."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import ROOT
from .catalog import DEFAULT_SEED, RUN_SECONDS, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m erbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="run one workload (--workload, the driver's form) or all five",
    )
    run.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--smoke", action="store_true", help="tiny scales and 1 s boxes (self-tests)")
    run.add_argument("--detail", action="store_true", help="also print a per-kind detail line")
    run.add_argument("--repeats", type=int, default=1, help="all five: untraced runs per workload")
    run.add_argument("--out", help="all five: write the BENCH document here")

    compare = commands.add_parser("compare", help="compare two BENCH documents")
    compare.add_argument("base")
    compare.add_argument("other")

    report = commands.add_parser("report", help="markdown trajectory over erbench/results")
    report.add_argument("paths", nargs="*")

    commands.add_parser("expected", help="rewrite erbench/expected/seed-11.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # a checkout without the program: nothing to measure, print no result
        print("erbench: src/repro not found next to erbench/", file=sys.stderr)
        return 2

    if args.command == "compare":
        from .compare import compare, format_compare, load

        rows, worse = compare(load(args.base), load(args.other))
        print(format_compare(rows))
        return 1 if worse else 0

    if args.command == "report":
        from .compare import report

        print(report(args.paths))
        return 0

    from . import runner

    if args.command == "expected":
        from .data import EXPECTED_PATH
        from .workloads import REGISTRY, Scratch

        workload = REGISTRY["analytic_scan"](DEFAULT_SEED, Scratch())
        workload.setup()
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump({workload.name: workload.expected_document()}, handle, indent=1)
            handle.write("\n")
        return 0

    seconds = 1.0 if args.smoke else args.seconds
    if args.workload is not None:
        result = runner.run_one(args.workload, args.seed, seconds, args.trace, smoke=args.smoke)
        if args.detail:
            print(json.dumps(result["detail"]))
        print(runner.contract_line(result))
        return 0

    document = runner.run_all(args.seed, seconds, repeats=args.repeats, smoke=args.smoke)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
