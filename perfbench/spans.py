"""Layer spans around curvlab's public functions, and per-layer probes.

The tracer wraps each traced function in every curvlab module namespace
that holds it (``curvlab.flow.minimize_frame`` and
``curvlab.conditions.minimize_frame`` are the same function reached two
ways), so a call is timed whichever module makes it.  A span's self time is
its duration minus the durations of the spans it directly encloses.
Spans are aggregated per name in memory; nothing is written while a round
runs.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name).  Children of a span are whichever of these
# it calls, so self times below are net of every other listed function.
TRACED = (
    ("curvlab.cli", "run", "cli.run"),
    ("curvlab.serialization", "read_tensor", "serialization.read_tensor"),
    ("curvlab.serialization", "trace_to_csv", "serialization.trace_to_csv"),
    ("curvlab.serialization", "read_trace", "serialization.read_trace"),
    ("curvlab.serialization", "dumps_json", "serialization.dumps_json"),
    ("curvlab.conditions", "check_nic", "conditions.check_nic"),
    ("curvlab.conditions", "check_pic2", "conditions.check_pic2"),
    ("curvlab.conditions", "quarter_pinch_reports", "conditions.quarter_pinch_reports"),
    ("curvlab.conditions", "minimize_frame", "conditions.minimize_frame"),
    ("curvlab.frames", "lift_frame", "frames.lift_frame"),
    ("curvlab.frames", "random_frame", "frames.random_frame"),
    ("curvlab.tensors", "project_curvature", "tensors.project_curvature"),
    ("curvlab.tensors", "pad_euclidean", "tensors.pad_euclidean"),
    ("curvlab.flow", "integrate", "flow.integrate"),
)


def _count_result(tracer, name: str, result) -> None:
    if name == "conditions.minimize_frame":
        tracer.counts["conditions.restarts"] += result.restarts
    elif name == "flow.integrate":
        tracer.counts["flow.trace_rows"] += len(result.rows)
    elif name == "serialization.trace_to_csv":
        tracer.counts["serialization.trace_bytes"] += len(result.encode())


class Tracer:
    """Span recorder patched into the curvlab modules while installed."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level = 0.0
        self._stack = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == "conditions.check_pic2" and name == "frames.lift_frame":
                self.counts["conditions.pic2_family_polish.calls"] += 1
            span = [name, 0.0]
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.total[name] += dur
                self.self_time[name] += dur - span[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level += dur
            _count_result(self, name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every curvlab namespace."""
        mods = [m for key, m in sys.modules.items() if key == "curvlab" or key.startswith("curvlab.")]
        for modname, attr, name in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    def snapshot(self) -> dict:
        """This round's per-layer values, named as in BENCHMARK.json."""
        out = {
            "cli.run.self_s": self.self_time["cli.run"],
            "conditions.minimize_frame.s": self.total["conditions.minimize_frame"],
            "conditions.minimize_frame.self_s": self.self_time["conditions.minimize_frame"],
            "conditions.minimize_frame.calls": self.calls["conditions.minimize_frame"],
            "conditions.check_pic2.self_s": self.self_time["conditions.check_pic2"],
            "frames.random_frame.s": self.total["frames.random_frame"],
            "frames.random_frame.calls": self.calls["frames.random_frame"],
            "flow.integrate.self_s": self.self_time["flow.integrate"],
            "flow.integrate.calls": self.calls["flow.integrate"],
        }
        for fn in ("read_tensor", "trace_to_csv", "read_trace", "dumps_json"):
            out[f"serialization.{fn}.s"] = self.total[f"serialization.{fn}"]
        for fn in ("project_curvature", "pad_euclidean"):
            out[f"tensors.{fn}.s"] = self.total[f"tensors.{fn}"]
            out[f"tensors.{fn}.calls"] = self.calls[f"tensors.{fn}"]
        for key in ("conditions.restarts", "conditions.pic2_family_polish.calls",
                    "flow.trace_rows", "serialization.trace_bytes"):
            out[key] = self.counts[key]
        return out


# ---------------------------------------------------------------------------
# Probes: single layers timed outside the end-to-end phase.

QR_SWEEP = tuple(range(4, 17))
VALUE_GRAD_NS = (4, 8, 12)
PROJECT_NS = (8, 12)


def _median_call(fn, min_calls: int, max_calls: int, budget_s: float) -> float:
    """Median seconds per call, over at least ``min_calls`` calls and then
    until ``max_calls`` calls or ``budget_s`` seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < max_calls and (len(times) < min_calls or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(lab, seed: int) -> dict:
    """Median per-call times of Q(R), frame value+gradient and projection.

    Runs under the inherited BLAS thread setting, like the workloads.
    """
    out = {}
    for n in QR_SWEEP:
        r = lab.tensors.random_tensor([seed, 1, n], n)
        out[f"flow.quadratic_reaction.n{n}.ms"] = 1e3 * _median_call(
            lambda: lab.flow.quadratic_reaction(r), 20, 400, 0.15)
    for n in VALUE_GRAD_NS:
        obj = lab.conditions.frame_objective(lab.tensors.random_tensor([seed, 2, n], n), "isotropic")
        v = lab.frames.random_frame([seed, 3, n], n).vectors
        out[f"conditions.value_grad.n{n}.us"] = 1e6 * _median_call(lambda: obj.value_grad(v), 50, 4000, 0.15)
    for n in PROJECT_NS:
        raw = np.random.default_rng([seed, 4, n]).standard_normal((n, n, n, n))
        out[f"tensors.project_curvature.n{n}.ms"] = 1e3 * _median_call(
            lambda: lab.tensors.project_curvature(raw, n), 20, 400, 0.15)
    return out
