"""Write a ``BENCH_<pr>.json`` record: a parent checkout against a change.

Usage, from anywhere::

    python3 tools/bench_record.py --parent PATH --change PATH --pr N \\
        [--out BENCH_N.json] [--tables-only]

Both paths are roots of checkouts (git clones) holding ``src/``,
``perfbench/`` and ``scenarios/``.  Every perfbench run lasts ``run_seconds``
from this repository's BENCHMARK.json.  The record holds

* ``end_to_end``: per workload, ``perfbench/run.py --trace 0`` in alternating
  pairs at seeds ``SEEDS`` (parent first on odd seeds, change first on even
  ones), each metric's runs, median and interquartile range over the median,
  the rows attempted and failed, and whether every run was correct;
* ``per_layer``: one ``--trace 1`` run per side per workload, at its first seed;
* ``shipped_tables``: the SHA-256 of each shipped scenario's table
  (``satqkd run NAME.ini --threads 1``), whether each side's tables are
  identical, and whether the change's are identical at 4 threads;
* ``shipped_cli_wall_s``: the summed CLI wall time of all shipped files,
  parent, change, parent, change;
* ``cell_diff``: per file whose table differs, per column, the number of
  cells that differ and the largest absolute difference;
* ``verdict``: per workload and end-to-end metric, judged with that metric's
  ``better`` and ``bound`` from BENCHMARK.json (:func:`verdict`).

It imports nothing from the checkouts: every measurement is a subprocess.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cv-rr-worstcase", "cv-dr-worstcase", "desk-mix")
SEEDS = range(1, 11)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _version(package: str) -> "str | None":
    """The installed version of ``package``, None if it is not installed."""
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def _env(root: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def perfbench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py`` run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_table(root: str, name: str, threads: int = 1) -> "tuple[str, float]":
    """(stdout, wall seconds) of ``satqkd run scenarios/NAME --threads N`` in ``root``."""
    cmd = [sys.executable, "-m", "satqkd.cli", "run", os.path.join("scenarios", name),
           "--threads", str(threads)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True,
                         check=True).stdout
    return out, time.perf_counter() - t0


def _cells(text: str) -> "tuple[list[str], list[list[str]]]":
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(cell: str) -> "float | None":
    try:
        return float(cell)
    except ValueError:
        return None


def cell_diff(old: str, new: str) -> dict:
    """Per column of two tables of one file: cells that differ, largest |delta|."""
    columns, old_rows = _cells(old)
    new_columns, new_rows = _cells(new)
    if new_columns != columns or len(new_rows) != len(old_rows):
        return {"layout_changed": True}
    out = {}
    for j, column in enumerate(columns):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows, new_rows) if a[j] != b[j]]
        if pairs:
            deltas = [abs(_number(b) - _number(a)) for a, b in pairs
                      if _number(a) is not None and _number(b) is not None]
            out[column] = {"cells": len(pairs), "max_abs_delta": max(deltas, default=None)}
    return out


def _spread(values: "list[float]") -> float:
    """Interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: "list[float]", change: "list[float]", better: str, bound: float) -> dict:
    """One metric's runs, paired by seed, judged for a claimed gain and a bound.

    ``won`` and ``lost`` count the pairs the change read better or worse in
    (ties count for neither).  ``gain_rule_met``: the change won at least 9
    in 10 pairs and its median is better than the parent's by more than the
    parent's Q3 - Q1.  ``worse_than_bound``: its median is worse by more than
    ``bound`` times the parent's.  ``unresolved``: either side's IQR over its
    median exceeds ``bound``, unless every change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value is lower when better
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {"pairs": len(parent), "won": won, "lost": lost,
            "gain_rule_met": won >= 0.9 * len(parent) and gain > q3 - q1,
            "worse_than_bound": -gain > bound * abs(statistics.median(parent)),
            "unresolved": (max(_spread(parent), _spread(change)) > bound
                           and not beats_all)}


def verdicts(e2e: dict, metrics: "list[dict]") -> dict:
    """:func:`verdict` per workload and end-to-end metric of BENCHMARK.json."""
    return {workload: {m["name"]: verdict(entry["parent"][m["name"]]["runs"],
                                          entry["change"][m["name"]]["runs"],
                                          m["better"], m["bound"])
                       for m in metrics}
            for workload, entry in e2e.items()}


def end_to_end(args, seconds: float, metrics: "list[str]") -> "tuple[dict, dict]":
    sides = {"parent": args.parent, "change": args.change}
    record, per_layer = {}, {}
    for workload in WORKLOADS:
        results = {side: [] for side in sides}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                results[side].append(perfbench(sides[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}: "
                      f"{results[side][-1]['metrics']['points_per_s']['value']:.4g} points/s",
                      file=sys.stderr)
        entry = {"seeds": list(SEEDS), "seconds_per_run": seconds,
                 "order": "parent first on odd seeds, change first on even seeds"}
        for side, runs in results.items():
            summary = {}
            for name in metrics:
                values = [r["metrics"][name]["value"] for r in runs]
                summary[name] = {"median": statistics.median(values),
                                 "iqr_over_median": _spread(values), "runs": values,
                                 "unit": runs[0]["metrics"][name]["unit"]}
            summary["attempted_rows"] = sum(r["attempted"] for r in runs)
            summary["failed_rows"] = sum(r["failed"] for r in runs)
            summary["all_correct"] = all(r["correct"] for r in runs)
            entry[side] = summary
        record[workload] = entry
        per_layer[workload] = {
            "seed": SEEDS[0], "seconds": seconds,
            **{side: {name: m["value"] for name, m in perfbench(
                root, workload, SEEDS[0], seconds, 1)["metrics"].items()}
               for side, root in sides.items()}}
    return record, per_layer


def shipped(args) -> "tuple[dict, dict, dict]":
    names = sorted(n for n in os.listdir(os.path.join(args.change, "scenarios"))
                   if n.endswith(".ini"))
    tables = {"parent": {}, "change": {}}
    wall = {"parent": [], "change": []}
    for side in ("parent", "change", "parent", "change"):
        root = getattr(args, side)
        total = 0.0
        for name in names:
            text, seconds = run_table(root, name)
            tables[side][name] = text
            total += seconds
        wall[side].append(round(total, 3))
    at_4 = all(run_table(args.change, name, threads=4)[0] == tables["change"][name]
               for name in names)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    record = {
        "command": "satqkd run scenarios/NAME.ini --threads 1 (stdout), for each shipped file",
        "sha256": {name: digest(tables["change"][name]) for name in names},
        "parent_sha256": {name: digest(tables["parent"][name]) for name in names},
        "identical_to_parent": tables["parent"] == tables["change"],
        "identical_at_4_threads": at_4,
    }
    cli = {"what": "all shipped files through the CLI, one process per file, 1 thread, summed",
           **wall, "order": "parent, change, parent, change"}
    diff = {name: cell_diff(tables["parent"][name], tables["change"][name])
            for name in names if tables["parent"][name] != tables["change"][name]}
    return record, cli, diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the change checkout")
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--out", help="output path (default BENCH_<pr>.json)")
    parser.add_argument("--tables-only", action="store_true",
                        help="record the shipped tables only, without perfbench runs")
    args = parser.parse_args(argv)
    args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
    tables, cli, diff = shipped(args)
    benchmark = _benchmark()
    seconds = benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]
    e2e, per_layer = ({}, {}) if args.tables_only else end_to_end(
        args, seconds, [m["name"] for m in metrics])
    record = {
        "pr": args.pr,
        "verdict": verdicts(e2e, metrics),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0, run from the root of each checkout",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    **{pkg: _version(pkg) for pkg in ("numpy", "scipy", "mpmath")}},
        "end_to_end": e2e,
        "per_layer": per_layer,
        "shipped_tables": tables,
        "shipped_cli_wall_s": cli,
        "cell_diff": diff,
    }
    with open(args.out or f"BENCH_{args.pr}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
