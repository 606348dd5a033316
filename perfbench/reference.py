"""Reference figures that no gate uses: the machine, the wall time of each
shipped scenario file, and what ``threads=2`` buys on a worst-case file.

    python3 perfbench/reference.py            # from the root of a checkout

Each file is run once, in this process, as ``satqkd run`` would run it
(load + sweep + emit); prints Markdown.
"""

from __future__ import annotations

import glob
import io
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from satqkd.scenario import emit, run_scenario  # noqa: E402

THREADS_FILE = "cv_dr_worstcase_t05.ini"


def timed(path, threads=1):
    t0 = time.perf_counter()
    emit(run_scenario(path, threads=threads), io.StringIO())
    return time.perf_counter() - t0


def main():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"- nproc {os.cpu_count()}, {platform.machine()}, Python "
          f"{platform.python_version()}, NumPy {np.__version__}, SciPy "
          f"{scipy.__version__}, {blas.get('name')} {blas.get('version')}")
    print()
    print("| file | wall s |")
    print("|---|---|")
    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.ini"))):
        print(f"| {os.path.basename(path)} | {timed(path):.3f} |", flush=True)
    path = os.path.join(ROOT, "scenarios", THREADS_FILE)
    one, two = timed(path, 1), timed(path, 2)
    print()
    print(f"- {THREADS_FILE}: threads=1 {one:.2f} s, threads=2 {two:.2f} s, "
          f"speed-up {one / two:.2f}x")


if __name__ == "__main__":
    main()
