"""Steadiness check: run one workload over several seeds and summarise.

    python3 perfbench/steady.py --workload desk-mix --seeds 1-10

Each run lasts ``run_seconds`` from BENCHMARK.json.  For each end-to-end
metric prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median;
also the failed share and the wall time of each run.  Raw results go to
``.perfbench_out/steady-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    results = []
    for seed in _seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        res["wall_s"] = time.monotonic() - t0
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} {vals} wall={res['wall_s']:.1f}s", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"steady-{args.workload}-{results[0]['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{name:16s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")


if __name__ == "__main__":
    main()
