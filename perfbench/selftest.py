"""Self-test of the benchmark itself; runs in seconds.

    python3 perfbench/selftest.py

Checks that the generator is a function of (workload, seed, round), that
every row check passes the package's real output and rejects three
corruptions of it: a raised rate, a moved argmin (or optimum), and a
dropped row, and that the worst-case check rejects a worst case taken from
the grid without the polish.  Exits 1 on the first thing that does not hold.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import gen
import run

# kind -> (a rate column to raise, a column locating the optimum to move)
CORRUPT = {
    "rr-low": ("k_worst", "argmin_eta_t"),
    "rr-imperfect": ("k_worst", "argmin_eta_t"),
    "dr-m1": ("k_worst", "argmin_eta_t"),
    "wcp-opt": ("rate_wcp", "mu_opt"),
    "wcp-fixed": ("rate_wcp", None),
    "sps": ("rate_sps", None),
    "lidar-dual": ("eta_ae", "r_e"),
    "radar": ("eta_eb", "r_e"),
    "elevation": ("max_eta_ae", None),
    "rr-fixed": ("k", None),
    "dr-m2": ("k", None),
}


def _fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def test_generator():
    for workload in gen.WORKLOADS:
        a = [f.text() for f in gen.round_files(workload, 7, 3)]
        if a != [f.text() for f in gen.round_files(workload, 7, 3)]:
            _fail(f"{workload}: same seed and round gave different files")
        if a == [f.text() for f in gen.round_files(workload, 8, 3)]:
            _fail(f"{workload}: another seed gave the same files")
        if a == [f.text() for f in gen.round_files(workload, 7, 4)]:
            _fail(f"{workload}: another round gave the same files")
        shape = [(f.name, f.points) for f in gen.round_files(workload, 7, 3)]
        if shape != [(f.name, f.points) for f in gen.round_files(workload, 9, 0)]:
            _fail(f"{workload}: round make-up depends on the seed")
    print("ok   generator: deterministic per seed and round, same make-up")


def _small(spec):
    """A cheaper copy: two points for the worst-case kinds, 40 for the rest."""
    points = 2 if spec.mode in ("cv-rr", "cv-dr-m1") and spec.name != "rr-fixed" else 40
    return dataclasses.replace(spec, points=min(points, spec.points))


def _specs():
    files = {}
    for workload in gen.WORKLOADS:
        for spec in gen.round_files(workload, 1, 0):
            if spec.name in CORRUPT and spec.name not in files:
                files[spec.name] = _small(spec)
    return files


# Reverse reconciliation at eta_ae = 0.1, t_eq = 1e-3, xi = 0.1 on a 41-point
# grid without the polish reports 0.0061048 against 0.0060966 polished: a
# worst case that is too high, which only the ceiling minimisation sees.
UNPOLISHED = gen.ScenarioFile(
    "rr-low", "cv-rr", "eta_ae", 0.1, 0.2, 2, "linear",
    {"t_eq": 1e-3, "xi": 0.1, "v": 300.0, "beta": 1.0,
     "grid_points": 41, "refine": "false"})


def _emit(workdir, name, spec):
    """Run one scenario through the package; returns the emitted CSV's path."""
    from satqkd.scenario import emit, run_scenario

    ini = os.path.join(workdir, f"{name}.ini")
    csv = os.path.join(workdir, f"{name}.csv")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(spec.text())
    emit(run_scenario(ini), csv)
    return csv


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].split(",")
    rows = [line.split(",") for line in lines[head + 1:]]
    rows = edit(columns, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:head + 1] + [",".join(r) for r in rows]) + "\n")


def _scale_cell(column, factor, offset, row=1):
    def edit(columns, rows):
        j = columns.index(column)
        value = float(rows[row][j])
        rows[row][j] = f"{value * factor + offset:.17e}"
        return rows
    return edit


def _drop_row(row=1):
    def edit(columns, rows):
        return rows[:row] + rows[row + 1:]
    return edit


ENTRY = {"error": None, "roundtrip_bad": [], "round": 0, "index": 0}


def test_checks(workdir):
    for name, spec in _specs().items():
        csv = _emit(workdir, name, spec)
        bad, msgs = run.check_rows(spec, ENTRY, csv, 1)
        if any(bad):
            _fail(f"{name}: the package's own output fails its check: {msgs[:2]}")

        rate_col, argmin_col = CORRUPT[name]
        cases = [("raised rate", _scale_cell(rate_col, 1.0 + 1e-3, 1e-4)),
                 ("dropped row", _drop_row())]
        if argmin_col:
            cases.append(("moved argmin", _scale_cell(argmin_col, 0.9, 0.0)))
        original = open(csv, encoding="utf-8").read()
        for label, edit in cases:
            _rewrite(csv, edit)
            bad, _ = run.check_rows(spec, ENTRY, csv, 1)
            if not bad[1]:
                _fail(f"{name}: the check accepts a {label}")
            with open(csv, "w", encoding="utf-8") as fh:
                fh.write(original)
        print(f"ok   {name}: passes as emitted; rejects "
              + ", ".join(label for label, _ in cases))


def test_unpolished(workdir):
    csv = _emit(workdir, "unpolished", UNPOLISHED)
    bad, msgs = run.check_rows(UNPOLISHED, ENTRY, csv, 1)
    if not (bad[0] and any(m.startswith("row 0:") and "ceiling minimum" in m
                           for m in msgs)):
        _fail(f"the worst-case check accepts an unpolished grid minimum: {msgs[:2]}")
    print("ok   rr, 41-point grid, refine = false: rejected against the ceiling minimum")


def main():
    test_generator()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    sys.path.insert(0, run.SRC)
    try:
        test_checks(workdir)
        test_unpolished(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed")


if __name__ == "__main__":
    main()
