"""In-memory spans around calls into rbfadapt's public functions.

A traced run replaces each traced function, in every ``rbfadapt`` module
namespace that holds it (``drivers`` and ``assembly`` import several of
them by name), by a wrapper that records a span: name, start, end and the
span that was open when it started.  rbfadapt runs single-threaded, so
spans nest as the calls do and a span's self time is its duration minus
that of its direct children.  The wrappers also add up sizes computed
from array shapes, and count calls into the functions that pin OpenBLAS.
``installed`` puts every original back when the block ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level


def _cells(args, kwargs, result):
    return {"cells": result.shape[0] * result.shape[1]}


def _mn2(args, kwargs, result):
    rows, cols = args[0].matrix.shape
    return {"mn2": rows * cols * cols}


def _points(args, kwargs, result):
    return {"points": result.shape[0]}


def _finite(args, kwargs, result):
    return {"finite": int(math.isfinite(result[0]))}


# traced functions, as "module.function", with the sizes each one adds up
SPANS = {
    "rbf.eval_matrix": _cells,
    "rbf.deriv_matrix": None,
    "assembly.operator_matrix": None,
    "assembly.build_system": None,
    "assembly.solve_least_squares": _mn2,
    "assembly.residual_loss": None,
    "assembly.evaluate_model": _points,
    "sampling.sample_configuration": None,
    "bayesopt.bayes_step": None,
    "bayesopt.gp_fit": None,
    "bayesopt.gp_predict_batch": None,
    "clustering.dbscan": None,
    "clustering.detect_gradient_clusters": None,
    "drivers.forward_objective": _finite,
    "drivers.solve_advection_timeblocks": None,
    "drivers.characteristic_mask": None,
    "problems.poisson_fdm_oracle": None,
    "cli_io.parse_config": None,
    "cli_io.run_command": None,
}

# Every function that runs its body under blas.fixed_blas_threads, by
# decoration; blas.fixed_blas_threads itself counts the inline blocks.
PINNED = (
    "assembly.solve_least_squares",
    "assembly.residual_loss",
    "assembly.evaluate_model",
    "bayesopt.gp_fit",
    "bayesopt.gp_predict_batch",
    "bayesopt.gp_with_params",
    "drivers.error_metrics",
    "cli_io.compare_to_exact",
    "blas.fixed_blas_threads",
)


class Tracer:
    """Spans, summed sizes and call counts of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.sizes: dict = defaultdict(int)
        self.calls: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, fn, sizes=None):
        """Wrap fn so that each call records a span named name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, self.clock(), math.nan, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = self.clock()
                self._open.pop()
            if sizes is not None:
                for key, value in sizes(args, kwargs, result).items():
                    self.sizes[f"{name}.{key}"] += value
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap fn so that its calls are counted, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        totals: dict = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s.name] += (s.end - s.start) - child[i]
        return totals

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def covered(self, start: float, end: float) -> float:
        """Part of [start, end] that some top-level span covers."""
        total = 0.0
        for s in self.spans:
            if s.parent < 0:
                total += max(0.0, min(end, s.end) - max(start, s.start))
        return total


def _resolve(package, qualname: str):
    module_name, attr = qualname.split(".")
    return getattr(getattr(package, module_name), attr)


@contextmanager
def installed(tracer: Tracer, package, modules):
    """Replace the traced functions in every module of modules; restore on exit.

    package is the imported ``rbfadapt`` package and modules its loaded
    submodules.  A function is replaced under every name that refers to
    it, so a call through ``drivers.build_system`` and one through
    ``assembly.build_system`` both land in the same wrapper.
    """
    wrappers = {}
    for qualname, sizes in SPANS.items():
        fn = _resolve(package, qualname)
        wrappers[id(fn)] = (fn, tracer.span(qualname, fn, sizes))
    for qualname in PINNED:
        fn = _resolve(package, qualname)
        if id(fn) in wrappers:
            continue  # already a span; its calls are counted there
        wrappers[id(fn)] = (fn, tracer.counter(qualname, fn))
    replaced = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, as {name: (value, unit)}.

    A function the workload never calls reads 0, and so do the
    forward-objective figures of a workload without forward objectives.
    """
    self_s = tracer.self_times()
    calls = tracer.calls
    sizes = tracer.sizes
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in (
        "rbf.eval_matrix",
        "rbf.deriv_matrix",
        "assembly.build_system",
        "assembly.solve_least_squares",
        "sampling.sample_configuration",
        "bayesopt.gp_fit",
    ):
        out[f"{name}.calls"] = (calls[name], "count")
    out["rbf.eval_matrix.cells"] = (sizes["rbf.eval_matrix.cells"], "count")
    out["assembly.solve_least_squares.mn2"] = (sizes["assembly.solve_least_squares.mn2"], "count")
    out["assembly.evaluate_model.points"] = (sizes["assembly.evaluate_model.points"], "count")
    objective_ms = [1e3 * d for d in tracer.durations("drivers.forward_objective")] or [0.0]
    out["drivers.forward_objective.p50_ms"] = (float(np.percentile(objective_ms, 50)), "ms")
    out["drivers.forward_objective.p90_ms"] = (float(np.percentile(objective_ms, 90)), "ms")
    n_objective = calls["drivers.forward_objective"]
    finite = sizes["drivers.forward_objective.finite"]
    out["drivers.forward_objective.finite_ratio"] = (finite / n_objective if n_objective else 0.0, "ratio")
    out["blas.pinned_calls"] = (sum(calls[name] for name in PINNED), "count")
    return out
