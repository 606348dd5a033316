"""Run-time tracing of the package's module boundaries.

``Tracer.install`` replaces, by attribute assignment, the functions each
module calls across its boundary with wrappers that record a span (name,
start, end, parent) and a few counts; ``uninstall`` puts the originals
back.  No package file changes.  A function that a later version of the
package no longer has is skipped, so its metrics read zero.  Spans stay in
memory and are written once, by ``write_spans``, when the run ends.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# (module, attribute, span name).  The scenario runner calls the engines
# through names it imports; the engines call their own kernels through
# module globals, so both sides of each boundary are covered.
WRAPPED = (
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "worst_case_rate", "cv.worst_case"),
    ("scenario", "holevo_bound", "cv.fixed_point"),
    ("scenario", "optimize_mu", "dv.optimize_mu"),
    ("scenario", "rate_at", "dv.rate"),
    ("scenario", "elevation_sweep", "lidar.elevation_sweep"),
    ("scenario", "lidar_size_bound", "lidar.size_bound"),
    ("cv", "minimize", "cv.polish"),
    ("cv", "thermal_entropy", "gaussian.entropy"),
    ("dv", "rate_at", "dv.rate"),
    ("lidar", "lidar_size_bound", "lidar.size_bound"),
)


class Tracer:
    """Spans and counts for one traced stretch of a run."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.descents = []       # (enclosing worst-case span, f(x0), final f)
        self._saved = []

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _enclosing(self, name):
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name, fn):
        if name == "cv.polish":
            return self._wrap_minimize(fn)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._count(name, args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, args, kwargs, result):
        if name == "cv.worst_case":
            grid = kwargs.get("grid_points", 101)
            self.counts["grid_nodes"] += grid * grid
            self.counts["grid_feasible"] += getattr(result, "n_feasible", 0)
        elif name == "gaussian.entropy":
            self.counts["entropy_values"] += getattr(args[0], "size", 1)
        elif name == "lidar.elevation_sweep":
            thetas = args[3] if len(args) > 3 else kwargs.get("theta_grid", ())
            self.counts["profile_points"] += (kwargs.get("profile_points", 201)
                                              * len(thetas))

    def _wrap_minimize(self, minimize):
        def traced_minimize(fun, x0, *args, **kwargs):
            first = []

            def objective(x, *a):
                value = self.span("cv.objective", fun, x, *a)
                if not first:
                    first.append(value)
                if value == math.inf:
                    self.counts["objective_inf"] += 1
                return value

            res = self.span("cv.polish", minimize, objective, x0, *args, **kwargs)
            self.descents.append((self._enclosing("cv.worst_case"),
                                  first[0] if first else math.inf,
                                  float(getattr(res, "fun", math.inf))))
            return res
        return traced_minimize

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = getattr(self.package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def metrics(self, rounds, overhead_s):
        """Per-layer metrics, each per traced round."""
        n = max(rounds, 1)
        count = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            count[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner

        # The grid best of a worst-case call is f at the first descent's start.
        grid_best = {}
        for owner, f0, _ in self.descents:
            grid_best[owner] = min(grid_best.get(owner, math.inf), f0)
        improving = sum(1 for owner, _, fun in self.descents
                        if fun < grid_best[owner])
        evals = count["cv.objective"]
        c = self.counts
        m = {
            "scenario.files": count["scenario.file"] / n,
            "scenario.points": c["points"] / n,
            "scenario.load_s": total["scenario.load"] / n,
            "scenario.sweep_s": (total["scenario.run"] - total["scenario.load"]) / n,
            "scenario.emit_s": total["scenario.emit"] / n,
            "cv.worst_case_calls": count["cv.worst_case"] / n,
            "cv.worst_case_s": total["cv.worst_case"] / n,
            "cv.grid_scan_s": (total["cv.worst_case"] - total["cv.polish"]) / n,
            "cv.grid_feasible_share": (c["grid_feasible"] / c["grid_nodes"]
                                       if c["grid_nodes"] else 0.0),
            "cv.polish_s": total["cv.polish"] / n,
            "cv.polish_descents": count["cv.polish"] / n,
            "cv.polish_evals": evals / n,
            "cv.polish_infeasible_share": c["objective_inf"] / evals if evals else 0.0,
            "cv.polish_improving_share": (improving / len(self.descents)
                                          if self.descents else 0.0),
            "cv.fixed_point_calls": count["cv.fixed_point"] / n,
            "cv.fixed_point_s": total["cv.fixed_point"] / n,
            "cv.self_s": sum(self_time[k] for k in
                             ("cv.worst_case", "cv.fixed_point", "cv.objective")) / n,
            "gaussian.entropy_batches": count["gaussian.entropy"] / n,
            "gaussian.entropy_values": c["entropy_values"] / n,
            "gaussian.entropy_s": total["gaussian.entropy"] / n,
            "dv.optimize_mu_calls": count["dv.optimize_mu"] / n,
            "dv.optimize_mu_s": total["dv.optimize_mu"] / n,
            "dv.rate_evals": count["dv.rate"] / n,
            "dv.rate_s": total["dv.rate"] / n,
            "lidar.size_bound_calls": count["lidar.size_bound"] / n,
            "lidar.size_bound_s": total["lidar.size_bound"] / n,
            "lidar.profile_points": c["profile_points"] / n,
            "lidar.elevation_sweep_s": total["lidar.elevation_sweep"] / n,
            "trace.overhead_s": overhead_s,
        }
        return m

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")
