"""Command-line front end: run, validate and list scenario files.

Exit codes: 0 success, 1 scenario validation, 2 runtime (e.g. a sweep that
is infeasible everywhere), 3 I/O.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .scenario import MAX_THREADS, ScenarioError, emit, load_scenario, run_scenario

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_RUNTIME = 2
_EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satqkd",
        description="Key-rate bounds for monitored free-space QKD: evaluate "
                    "parameter-sweep scenario files into CSV/TSV tables.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a scenario file")
    run.add_argument("scenario", help="path to a scenario file")
    run.add_argument("--out", metavar="PATH",
                     help="write the table here instead of stdout")
    run.add_argument("--format", choices=("csv", "tsv"), default="csv",
                     help="output delimiter (default: csv)")
    run.add_argument("--threads", type=int, default=1, metavar="N",
                     help=f"worker threads for the sweep, 1 to {MAX_THREADS} "
                          "(default: 1); output is identical for any N")

    validate = sub.add_parser("validate",
                              help="parse and validate without running")
    validate.add_argument("scenario", help="path to a scenario file")

    ls = sub.add_parser("list-scenarios",
                        help="list scenario files in a directory")
    ls.add_argument("--dir", default="scenarios", metavar="PATH",
                    help="directory to scan (default: ./scenarios)")
    return parser


def _cmd_run(args) -> int:
    table = run_scenario(args.scenario, threads=args.threads)
    if args.out is None:
        emit(table, sys.stdout, fmt=args.format)
    else:
        emit(table, args.out, fmt=args.format)
        print(f"wrote {len(table.rows)} rows to {args.out}", file=sys.stderr)
    return _EXIT_OK


def _cmd_validate(args) -> int:
    spec = load_scenario(args.scenario)
    sweep = spec.sweep
    print(f"{args.scenario}: ok")
    print(f"  mode   {spec.mode}")
    print(f"  sweep  {sweep.variable}: {sweep.start} .. {sweep.stop} "
          f"({sweep.points} points, {sweep.scale})")
    for key in sorted(spec.params):
        print(f"  {key} = {spec.params[key]}")
    return _EXIT_OK


def _cmd_list(args) -> int:
    import glob
    import os

    pattern = os.path.join(args.dir, "*.ini")
    paths = sorted(glob.glob(pattern))
    if not paths:
        print(f"no scenario files under {args.dir}", file=sys.stderr)
        return _EXIT_OK
    for path in paths:
        try:
            spec = load_scenario(path)
        except (ScenarioError, OSError) as exc:
            print(f"{path}: INVALID ({exc})")
            continue
        print(f"{path}: {spec.mode}, sweep {spec.sweep.variable} "
              f"({spec.sweep.points} points)")
    return _EXIT_OK


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "list-scenarios": _cmd_list}[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except Exception as exc:  # engine errors: infeasible sweeps, bad numerics
        print(f"runtime error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
