"""Command-line driver for convergence studies.

Example:
    hybridfem --method hdg --degree 1 --levels 5 --case smooth --tau 1.0 \
        --postprocess stenberg --out results --format csv --format json --check

With ``--check`` the exit code is nonzero when any asserted order of
convergence misses its tolerance window.
"""

from __future__ import annotations

import argparse
import sys

from .errors import HybridFEMError
from .harness import CASES, StudyConfig, run_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridfem",
        description="Mixed/hybridized FEM convergence studies on the unit square",
    )
    parser.add_argument("--method", choices=("rt", "bdm", "hdg"), default="rt")
    parser.add_argument("--degree", type=int, default=0, metavar="K")
    parser.add_argument("--levels", type=int, default=5, metavar="N")
    parser.add_argument("--case", choices=sorted(CASES), default="smooth")
    parser.add_argument(
        "--tau",
        default="1.0",
        help="HDG stabilization: a positive number or 'single-face'",
    )
    parser.add_argument("--reaction", choices=("on", "off"), default=None)
    parser.add_argument(
        "--postprocess",
        choices=("none", "stenberg", "gradient", "both"),
        default="none",
    )
    parser.add_argument("--mesh", default=None, metavar="FILE",
                        help="level-0 mesh file (default: built-in unit square)")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument(
        "--format",
        action="append",
        choices=("csv", "json"),
        default=None,
        help="output format(s) for --out; may be repeated (default: both)",
    )
    parser.add_argument("--check", action="store_true",
                        help="assert the expected orders; nonzero exit on failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tau = args.tau if args.tau == "single-face" else float(args.tau)
    except ValueError:
        print(f"error: --tau must be a number or 'single-face', got {args.tau!r}",
              file=sys.stderr)
        return 2
    config = StudyConfig(
        method=args.method,
        degree=args.degree,
        levels=args.levels,
        case=args.case,
        tau=tau,
        reaction=args.reaction,
        postprocess=args.postprocess,
        mesh_file=args.mesh,
        out=args.out,
        formats=tuple(args.format) if args.format else ("csv", "json"),
    )
    try:
        report = run_study(config)
    except (HybridFEMError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.table())
    if args.check and report.asserted and not report.passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
