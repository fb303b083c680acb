"""Command-line entry point.

    verify <scenario> --algebra <builtin:TAG | FILE> [--n N]
           [--field Q|Qi|Fp:P] [--report PATH] [--budget DIM]

Exit codes: 0 all checks passed (SKIP rows do not gate), 1 at least one
check failed, 2 malformed invocation (unknown scenario, bad flags,
unreadable algebra file, --budget for a scenario other than h2-main,
psq-central and slnn-identity).
"""
from __future__ import annotations

import argparse
import sys
import time

from .algebras import BUILTIN_FAMILIES
from .report import emit_report
from .scalars import ScalarError, parse_field_flag
from .scenarios import SCENARIOS, ScenarioOptions, UsageError, run_scenario


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run one exact verification scenario on a coordinate superalgebra.",
    )
    p.add_argument("scenario", help="one of: %s" % ", ".join(sorted(SCENARIOS)))
    p.add_argument(
        "--algebra",
        default="builtin:base-field",
        help="builtin:TAG or a JSON algebra file; builtin families: %s"
        % ", ".join(BUILTIN_FAMILIES),
    )
    p.add_argument("--n", type=int, default=3, help="matrix size n (default 3)")
    p.add_argument(
        "--field",
        default="Q",
        help="Q (default), Qi, or Fp:P; ignored for file algebras, which "
        "declare their own scalars",
    )
    p.add_argument("--report", default=None, metavar="PATH", help="write a JSON report")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="DIM",
        help="cap on the degree-3 chain space dimension; exceeding it SKIPs "
        "(h2-main, psq-central and slnn-identity only; any other scenario exits 2)",
    )
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = parse_field_flag(args.field)
    except ScalarError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 2
    if args.budget is not None and args.budget < 0:
        print("error: --budget must be nonnegative", file=sys.stderr)
        return 2
    opts = ScenarioOptions(
        algebra_spec=args.algebra, n=args.n, field=field, budget=args.budget
    )
    t0 = time.perf_counter()
    try:
        report = run_scenario(args.scenario, opts)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    report.timings["total"] = time.perf_counter() - t0
    for line in report.lines():
        print(line)
    if args.report:
        try:
            emit_report(report, args.report)
        except OSError as e:
            print("error: cannot write report: %s" % e, file=sys.stderr)
            return 2
        print("report written to %s" % args.report)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
