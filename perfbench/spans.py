"""In-memory span tracing of skypath's public functions, and per-layer metrics.

The traced run replaces module attributes of the loaded ``skypath`` package
with timing wrappers, so every call into a traced function records a span:
name, start, end, parent span and trial id. Spans stay in memory until the
run ends. Nothing under ``src/`` knows about this.

This module imports nothing from numpy or skypath, so the benchmark can pin
BLAS threads before either loads.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _graph_size(graph) -> dict:
    return {"nodes": graph.node_count, "edges": graph.edge_count}


def _common_border(cb) -> dict:
    n = int(cb.points.shape[0])
    return {"points": n, "hits": int(n > 0)}


# Traced public functions, as "<module>.<function>" of the skypath package,
# each with a function that turns its return value into span attributes.
TRACED = {
    "scenario.place_base_stations": None,
    "coverage.build_all_coverage": None,
    "coverage.build_coverage_map": lambda cov: {"sectors": len(cov.sectors)},
    "coverage.common_border_points": _common_border,
    "coverage.network_covered": lambda covered: {"points": len(covered)},
    "coverage.fan_blocked": None,
    "planner.build_feasibility_graph": _graph_size,
    "planner.base_trajectory": None,
    "planner.build_refined_graph": None,
    "planner.segments_in_coverage": lambda ok: {
        "pairs": len(ok), "accepted": int(ok.sum())
    },
    "planner.optimize_trajectory": None,
    "planner.shortest_path": None,
    "planner.grid_baseline_plan": _graph_size,
    "evaluation.evaluate_planners": None,
    "evaluation.outage_fraction": None,
}


@dataclass
class Span:
    name: str
    trial: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of wrapped calls made while a trial is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trial: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.trial is None:
                return fn(*args, **kwargs)
            span = Span(name, self.trial, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if measure is not None:
                span.attrs = measure(result)
            return result

        return traced

    @contextmanager
    def open_trial(self, trial: int):
        self.trial = trial
        try:
            yield
        finally:
            self.trial = None


@contextmanager
def patched(tracer: Tracer, package):
    """Wrap every TRACED function wherever a module of ``package`` binds it.

    A function imported by name into another module (``evaluation`` imports
    ``build_all_coverage`` from ``coverage``) is bound there too, so each
    binding of the same object is replaced. Yields the names that could not
    be found; the run reports their layers as absent instead of failing.
    """
    prefix = package.__name__ + "."
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package.__name__ or name.startswith(prefix))
    ]
    undo = []
    absent = []
    try:
        for qualname, measure in TRACED.items():
            mod_name, fn_name = qualname.split(".")
            fn = getattr(getattr(package, mod_name, None), fn_name, None)
            if not callable(fn):
                absent.append(qualname)
                continue
            wrapper = tracer.wrap(qualname, fn, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, fn))
        yield absent
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = [s.end - s.start for s in spans]
    for parent, intervals in children.items():
        lo, hi = spans[parent].start, spans[parent].end
        covered = 0.0
        reach = lo
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[parent] -= covered
    return out


@dataclass
class Layer:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    trials: set = field(default_factory=set)
    attrs: dict = field(default_factory=dict)

    def total(self, quantity: str) -> float:
        """``calls``, ``seconds``, ``self_seconds`` or a summed span attribute."""
        if quantity in ("calls", "seconds", "self_seconds"):
            return getattr(self, quantity)
        return self.attrs.get(quantity, 0)


def summarize(spans: list[Span]) -> dict[str, Layer]:
    layers: dict[str, Layer] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = layers.setdefault(s.name, Layer())
        layer.calls += 1
        layer.seconds += s.end - s.start
        layer.self_seconds += own
        layer.trials.add(s.trial)
        _add(layer.attrs, s.attrs)
        if s.parent is not None:
            # A caller also sums its direct callees' attributes, under the
            # callee's function name, e.g. "network_covered.points".
            caller = layers.setdefault(spans[s.parent].name, Layer())
            _add(caller.attrs, s.attrs, s.name.rsplit(".", 1)[1] + ".")
    return layers


def _add(into: dict, attrs: dict, prefix: str = "") -> None:
    for key, value in attrs.items():
        into[prefix + key] = into.get(prefix + key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_trial(layer: str, quantity: str, unit: str = "count", reads=()):
    """A layer total spread over the trials in which that layer ran."""
    return unit, (layer, *reads), lambda L: _ratio(
        L[layer].total(quantity), len(L[layer].trials)
    )


def ratio(layer: str, num: str, den: str, unit: str = "ratio"):
    return unit, (layer,), lambda L: _ratio(L[layer].total(num), L[layer].total(den))


# Per-layer metrics: name -> (unit, traced functions it reads, value function).
# Reading a layer's self time also reads its traced callees, since self time
# means something else when one of them is missing. Per trial means per trial
# in which the layer ran, so the refined graph reads per feasible trial; a
# layer that no trial of a workload reaches reads 0.
PER_LAYER = {
    "coverage.build_all_coverage.s": per_trial("coverage.build_all_coverage", "seconds", "s"),
    "coverage.build_coverage_map.s": per_trial("coverage.build_coverage_map", "seconds", "s"),
    "coverage.sectors": ratio("coverage.build_coverage_map", "sectors", "calls", "count"),
    "coverage.common_border_points.s": per_trial(
        "coverage.common_border_points", "seconds", "s"
    ),
    "coverage.common_border_points.calls": per_trial("coverage.common_border_points", "calls"),
    "coverage.common_points": per_trial("coverage.common_border_points", "points"),
    "coverage.common_hit_ratio": ratio("coverage.common_border_points", "hits", "calls"),
    "planner.build_feasibility_graph.s": per_trial(
        "planner.build_feasibility_graph", "seconds", "s"
    ),
    "planner.feas_nodes": per_trial("planner.build_feasibility_graph", "nodes"),
    "planner.feas_edges": per_trial("planner.build_feasibility_graph", "edges"),
    "planner.base_trajectory.s": per_trial("planner.base_trajectory", "seconds", "s"),
    "planner.build_refined_graph.s": per_trial("planner.build_refined_graph", "seconds", "s"),
    "planner.build_refined_graph.self_s": per_trial(
        "planner.build_refined_graph", "self_seconds", "s", ("planner.segments_in_coverage",)
    ),
    "planner.segments_in_coverage.s": per_trial("planner.segments_in_coverage", "seconds", "s"),
    "planner.refine_pairs_checked": per_trial("planner.segments_in_coverage", "pairs"),
    "planner.refine_pairs_accepted": per_trial("planner.segments_in_coverage", "accepted"),
    "planner.refine_accept_ratio": ratio("planner.segments_in_coverage", "accepted", "pairs"),
    "planner.optimize_trajectory.s": per_trial("planner.optimize_trajectory", "seconds", "s"),
    "planner.shortest_path.s": per_trial("planner.shortest_path", "seconds", "s"),
    "planner.grid_baseline_plan.s": per_trial("planner.grid_baseline_plan", "seconds", "s"),
    "planner.grid_baseline_plan.self_s": per_trial(
        "planner.grid_baseline_plan", "self_seconds", "s", ("coverage.network_covered",)
    ),
    "planner.grid_nodes": per_trial("planner.grid_baseline_plan", "nodes"),
    "planner.grid_edges": per_trial("planner.grid_baseline_plan", "edges"),
    "coverage.network_covered.s": per_trial("coverage.network_covered", "seconds", "s"),
    "coverage.network_covered.self_s": per_trial(
        "coverage.network_covered", "self_seconds", "s", ("coverage.fan_blocked",)
    ),
    "coverage.network_covered.points": per_trial("coverage.network_covered", "points"),
    "coverage.fan_blocked.s": per_trial("coverage.fan_blocked", "seconds", "s"),
    "evaluation.outage_fraction.s": per_trial("evaluation.outage_fraction", "seconds", "s"),
    "evaluation.outage_samples": per_trial(
        "evaluation.outage_fraction", "network_covered.points", reads=("coverage.network_covered",)
    ),
    "evaluation.evaluate_planners.s": per_trial("evaluation.evaluate_planners", "seconds", "s"),
    "evaluation.evaluate_planners.self_s": per_trial(
        "evaluation.evaluate_planners", "self_seconds", "s", tuple(TRACED)
    ),
    "scenario.place_base_stations.s": per_trial("scenario.place_base_stations", "seconds", "s"),
}


def layer_metrics(spans: list[Span], absent: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, plus the names of metrics left out.

    A metric that reads a traced function missing from the package is left
    out and named, rather than reported as a number that means something else.
    """
    layers = summarize(spans)
    for name in TRACED:
        layers.setdefault(name, Layer())
    metrics = {}
    missing = []
    for name, (unit, reads, value) in PER_LAYER.items():
        if set(reads) & set(absent):
            missing.append(name)
            continue
        metrics[name] = {"value": value(layers), "unit": unit}
    return metrics, missing
