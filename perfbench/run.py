"""Scenario benchmark for satqkd: one workload, one process, checked row by row.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cv-rr-worstcase --seed 1 --seconds 25 --trace 0

Workloads: ``cv-rr-worstcase``, ``cv-dr-worstcase``, ``desk-mix`` (see
``gen.py`` and README.md).  The run

1. times ``import satqkd`` in fresh interpreters (``setup_s``; with
   ``--trace 1``, per-module import times from ``-X importtime``);
2. runs ``worker.py``, which feeds generated scenario files through the
   package for ``--seconds`` seconds;
3. checks every emitted row against ``oracle.py``, which never imports the
   package, outside the timed part;
4. prints, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` (table rows) and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

It exits 2, printing no result, when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 5
# The workload process must finish within this many seconds past --seconds.
WORKER_GRACE_S = 120

# Modules whose cumulative import time the traced run reports.
IMPORT_METRICS = {"numpy": "numpy.import_s", "scipy.optimize": "scipy.optimize.import_s",
                  "satqkd.gaussian": "gaussian.import_s", "satqkd.cv": "cv.import_s"}

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _import_once(importtime):
    """Seconds from spawning a fresh interpreter until satqkd is imported,
    and the -X importtime cumulative times (s) when asked for."""
    code = ("import time, satqkd; "
            "print(time.monotonic(), satqkd.__file__)")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    stamp, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"satqkd imported from {path}, not from {SRC}")
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            times[parts[2].strip()] = int(parts[1]) * 1e-6
    return float(stamp) - t0, times


def measure_setup(importtime):
    _import_once(False)  # let the bytecode cache fill; users do not pay that per run
    samples = [_import_once(importtime) for _ in range(SETUP_RUNS)]
    setup = statistics.median(s for s, _ in samples)
    imports = {metric: statistics.median(t.get(mod, 0.0) for _, t in samples)
               for mod, metric in IMPORT_METRICS.items()}
    return setup, imports


def parse_csv(path):
    """An emitted table, read without the package: its columns, and its
    cells as a float array with NaN for an empty cell."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line and not line.startswith("#")]
    if not lines:
        return {"columns": (), "data": np.empty((0, 0))}
    columns = tuple(lines[0].split(","))
    body = lines[1:]
    data = np.array([[float(c) if c else np.nan for c in line.split(",")]
                     for line in body], dtype=float)
    return {"columns": columns, "data": data.reshape(len(body), len(columns))}


def check_rows(spec, entry, csv_path, seed):
    """Per-row pass/fail for one untraced file, and messages for failures."""
    grid = [float(x) for x in spec.grid()]
    n = len(grid)
    if entry["error"] is not None:
        return [True] * n, [f"raised {entry['error']}"]
    table = parse_csv(csv_path)
    x = table["data"][:, 0].tolist() if table["data"].size else []
    bad = [i >= len(x) or not abs(x[i] - grid[i]) <= 1e-12 * abs(grid[i])
           for i in range(n)]
    msgs = []
    if len(x) != n:
        msgs.append(f"{len(x)} rows, expected {n}")
        if len(x) > n:
            bad = [True] * n
    for i in entry["roundtrip_bad"]:
        bad[i] = True
        msgs.append(f"row {i}: read_table(emit(t)) differs")
    table["data"] = table["data"][:n]
    try:
        checks = oracle.check_file(spec.name, table, spec.params, spec.variable,
                                   [seed, entry["round"], entry["index"]])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [True] * n, msgs + [f"check could not read the table: {exc!r}"]
    for i, problems in enumerate(checks):
        if problems:
            bad[i] = True
            msgs.append(f"row {i}: {'; '.join(problems)}")
    return bad, msgs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "satqkd", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    setup_s, import_s = measure_setup(bool(args.trace))

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", work,
               "--spans", os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")]
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True,
                       timeout=args.seconds + WORKER_GRACE_S)
        with open(os.path.join(work, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)

        specs = {}
        attempted = failed = unexpected = 0
        verdicts = {}
        for entry in summary["files"]:
            r, i = entry["round"], entry["index"]
            if r not in specs:
                specs[r] = gen.round_files(args.workload, args.seed, r)
            spec = specs[r][i]
            if not entry["traced"]:
                stem = os.path.join(work, f"r{r:04d}-{i}-{spec.name}")
                bad, msgs = check_rows(spec, entry, stem + ".csv", args.seed)
                verdicts[r, i] = bad
                for msg in msgs[:3]:
                    print(f"{os.path.basename(stem)}: {msg}", file=sys.stderr)
            else:
                bad = list(verdicts[r, i])
                if entry["error"] is not None:
                    bad = [True] * len(bad)
                for j in entry.get("differs_from_untraced", []) \
                        + entry.get("roundtrip_bad", []):
                    if j < 0 or j >= len(bad):
                        bad = [True] * len(bad)
                    else:
                        bad[j] = True
            attempted += len(bad)
            failed += sum(bad)
            unexpected += sum(b for j, b in enumerate(bad)
                              if j not in spec.known_fault_rows)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [e for e in summary["files"] if not e["traced"]]
    if args.trace:
        layers = {**import_s, **summary["layers"]}
        metrics = {name: {"value": value,
                          "unit": ("share" if name.endswith("_share")
                                   else "s" if name.endswith("_s") else "count")}
                   for name, value in layers.items()}
    else:
        busy = sum(e["seconds"] for e in untraced)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "points_per_s": {"value": sum(e["rows"] for e in untraced) / busy,
                             "unit": "1/s"},
            "scenario_s_p50": {"value": statistics.median(e["seconds"] for e in untraced),
                               "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
