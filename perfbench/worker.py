"""The workload process: rounds of generated scenario files through the package.

``run.py`` starts this with the checkout's ``src`` on PYTHONPATH.  One
thread runs the files one after another (a closed loop): each file is
loaded, swept and emitted exactly as ``satqkd run`` does, and only that is
timed.  Whole rounds repeat for about ``--seconds`` seconds; a round is
never cut short.  Emitted tables go to ``--out`` for ``run.py`` to check,
together with ``summary.json``.

With ``--trace 1`` every round runs twice, untraced and then traced, so the
difference between the two is the tracing overhead; per-layer metrics come
from the traced copies.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import time

import gen


def _cells_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return float(a) == float(b)


def _roundtrip_bad(scenario, table, text):
    """Rows whose cells do not come back identical through read_table."""
    back = scenario.read_table(io.StringIO(text))
    if tuple(back.columns) != tuple(table.columns):
        return list(range(len(table.rows)))
    bad = [i for i, (row, got) in enumerate(zip(table.rows, back.rows))
           if len(row) != len(got) or not all(map(_cells_equal, row, got))]
    return bad + list(range(len(back.rows), len(table.rows)))


def _run_file(scenario, path, tracer):
    """Load + sweep + emit one file; returns (seconds, table, text, error)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            table = scenario.run_scenario(path)
            buf = io.StringIO()
            scenario.emit(table, buf)
        else:
            idx = tracer.open("scenario.file")
            try:
                table = tracer.span("scenario.run", scenario.run_scenario, path)
                buf = io.StringIO()
                tracer.span("scenario.emit", scenario.emit, table, buf)
            finally:
                tracer.close(idx)
    except Exception as exc:  # a file that raises fails all of its rows
        return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, table, buf.getvalue(), None


def _run_round(scenario, paths, r, tracer, log, untraced_texts):
    """Run one round; returns the sum of its timed file seconds."""
    busy = 0.0
    for i, path in enumerate(paths):
        seconds, table, text, error = _run_file(scenario, path, tracer)
        busy += seconds
        entry = {"round": r, "index": i, "traced": tracer is not None,
                 "seconds": seconds, "rows": 0, "error": error}
        if error is None:
            entry["rows"] = len(table.rows)
            entry["roundtrip_bad"] = _roundtrip_bad(scenario, table, text)
            if tracer is None:
                with open(path[:-4] + ".csv", "w", encoding="utf-8") as fh:
                    fh.write(text)
                untraced_texts[i] = text
            else:
                tracer.counts["points"] += len(table.rows)
                before = (untraced_texts.get(i) or "").splitlines()
                after = text.splitlines()
                head = len(after) - len(table.rows)  # metadata + header lines
                entry["differs_from_untraced"] = [
                    j - head for j in range(head, max(len(before), len(after)))
                    if j >= len(before) or j >= len(after) or before[j] != after[j]]
        log.append(entry)
    return busy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for tables and summary")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    import satqkd
    from satqkd import scenario

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(satqkd)

    log, overheads = [], []
    start = time.perf_counter()
    r = 0
    # Stop once half a round more would overrun: runs then last --seconds
    # on average, whatever the round length.
    while r == 0 or (time.perf_counter() - start) * (1.0 + 0.5 / r) < args.seconds:
        paths = []
        for i, spec in enumerate(gen.round_files(args.workload, args.seed, r)):
            path = os.path.join(args.out, f"r{r:04d}-{i}-{spec.name}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec.text())
            paths.append(path)
        texts = {}
        busy = _run_round(scenario, paths, r, None, log, texts)
        if tracer is not None:
            tracer.install()
            try:
                busy_traced = _run_round(scenario, paths, r, tracer, log, texts)
            finally:
                tracer.uninstall()
            overheads.append(busy_traced - busy)
        r += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {"satqkd_file": satqkd.__file__, "rounds": r, "files": log,
               "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        summary["layers"] = tracer.metrics(r, sum(overheads) / len(overheads))
        if args.spans:
            tracer.write_spans(args.spans)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
