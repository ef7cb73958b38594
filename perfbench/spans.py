"""Span recording around weylflow's public functions, from outside the package.

``Tracer.install`` replaces public functions and methods at module or class
level with wrappers that record a span (name, start, end, parent, run id)
and ``Tracer.uninstall`` puts the originals back.  Spans stay in memory until
``write``.  A span's self time is its duration minus the durations of its
direct children; children nest inside their parent, so they never overlap.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from weylflow import billiards, cli, flows, geometry, tangent
from weylflow.scenario import WeylScenario

# (owner, attribute, span name).  Several attributes may share a span name.
TARGETS = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "dispatch", "cli.output"),
    (flows, "integrate", "flows.integrate"),
    (tangent, "lyapunov_spectrum", "tangent.co_integration"),
    (tangent, "linearized_run", "tangent.co_integration"),
    (np.linalg, "qr", "numpy.linalg.qr"),
    (WeylScenario, "curvature_hat_tensor", "scenario.curvature_hat_tensor"),
    (WeylScenario, "christoffel", "scenario.christoffel"),
    (WeylScenario, "field", "scenario.field"),
    (WeylScenario, "metric", "scenario.metric"),
    (WeylScenario, "metric_inv", "scenario.metric"),
    (geometry, "curvature_sign_scan", "geometry.curvature_sign_scan"),
    (geometry, "sectional_weyl", "geometry.sectional_weyl"),
    (billiards, "run_billiard", "billiards.run_billiard"),
    (billiards, "free_flight", "billiards.free_flight"),
    (billiards, "reflect", "billiards.reflect"),
    (billiards.BilliardTable, "outside", "billiards.outside"),
    (billiards.ThermostatFlight, "pos", "billiards.pos"),
    (billiards.ThermostatFlight, "pos_vel_scalar", "billiards.pos_vel_scalar"),
)

# RK4 steps done by one call, read from its result.
STEPS = {
    "flows.integrate": lambda r: len(r.times) - 1,
    "tangent.co_integration": lambda r: (int(round(r.T / r.dt)) if hasattr(r, "exponents")
                                         else len(r.times) - 1),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, run id]
        self.steps = defaultdict(int)
        self.run_id = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, steps = self.spans, self._stack, self.steps
        count = STEPS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if count is not None:
                steps[name] += count(result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def layer_totals(self, run_filter):
        """Per span name: calls, total seconds and self seconds, over the spans
        whose run id passes ``run_filter``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            if run_filter(run_id):
                t = totals[name]
                t["calls"] += 1
                t["total_s"] += end - start
                t["self_s"] += end - start - child[i]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
