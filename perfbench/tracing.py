"""Wrapper-based span tracing of greenloop's layers, measured from outside.

The traced pass replaces public functions at the module attribute their
caller looks them up through (``greenloop.pipeline.train_routing`` is the
name ``run_full`` resolves at call time, ``greenloop.cli.write_json`` the
one ``cmd_run`` resolves) with wrappers that record spans, and puts the
originals back after each traced op. Nothing under ``src/`` changes.

A wrap point that the program no longer has, or a counter whose call no
longer has the shape it reads, is reported as missing: the metrics that
depend only on it are left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def _path_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


# (module, attribute, span name, {counter name: fn(args, kwargs, result)})
WRAP_POINTS: tuple[tuple[str, str, str, dict[str, Callable]], ...] = (
    ("greenloop.cli", "cmd_run", "cli.run", {}),
    ("greenloop.cli", "load_scenario", "scenario.load", {}),
    ("greenloop.cli", "parse_scenario", "scenario.load", {}),
    ("greenloop.scenario", "parse_scenario", "scenario.load", {}),
    ("greenloop.cli", "scenario_to_dict", "scenario.to_dict", {}),
    ("greenloop.pipeline", "compile_to_lp", "scenario.compile_to_lp", {}),
    ("greenloop.cli", "content_hash", "serialize.content_hash", {}),
    ("greenloop.cli", "write_json", "serialize.write",
     {"serialize.bytes_written": _path_bytes}),
    ("greenloop.serialize", "write_json", "serialize.write",
     {"serialize.bytes_written": _path_bytes}),
    ("greenloop.serialize", "canonical_dumps", "serialize.canonical_dumps", {}),
    ("greenloop.serialize", "read_json", "serialize.read_json",
     {"serialize.bytes_read": _path_bytes}),
    ("greenloop.cli", "run_full", "pipeline.run_full", {}),
    ("greenloop.pipeline", "feedback_update", "pipeline.feedback_update", {}),
    ("greenloop.pipeline", "partition_districts", "pipeline.partition_districts", {}),
    ("greenloop.pipeline", "simulate_bins", "twin.simulate_bins",
     {"twin.bin_events": lambda a, k, r: float(len(r.events))}),
    ("greenloop.pipeline", "simulate_recycling", "twin.simulate_recycling",
     {"twin.facility_steps": lambda a, k, r: float(len(r.steps))}),
    ("greenloop.pipeline", "train_on_records", "classify.train_on_records",
     {"classify.train_records": lambda a, k, r: float(len(a[0]))}),
    ("greenloop.pipeline", "evaluate_accuracy_records",
     "classify.evaluate_accuracy_records", {}),
    ("greenloop.cli", "model_to_dict", "classify.model_to_dict", {}),
    ("greenloop.classify", "model_to_dict", "classify.model_to_dict", {}),
    ("greenloop.classify", "model_from_dict", "classify.model_from_dict", {}),
    ("greenloop.pipeline", "solve_milp", "solver.solve_milp",
     {"solver.bb_nodes": lambda a, k, r: float(r.nodes_explored),
      "solver.simplex_iterations": lambda a, k, r: float(r.iterations)}),
    ("greenloop.pipeline", "train_routing", "routing.train_routing",
     {"routing.episodes": lambda a, k, r: float(a[1].episodes),
      "routing.q_entries": lambda a, k, r: float(len(r.values))}),
    ("greenloop.pipeline", "greedy_route", "routing.greedy_route", {}),
    ("greenloop.pipeline", "route_emissions", "routing.route_emissions", {}),
    ("greenloop.cli", "qtable_to_dict", "routing.qtable_to_dict", {}),
    ("greenloop.routing", "qtable_to_dict", "routing.qtable_to_dict", {}),
    ("greenloop.routing", "qtable_from_dict", "routing.qtable_from_dict", {}),
    ("greenloop.pipeline", "carbon_footprint", "carbon.carbon_footprint", {}),
)

# Per-layer metrics reported as inclusive seconds per op of a span name.
SPAN_SECONDS = (
    "routing.train_routing", "routing.greedy_route", "routing.route_emissions",
    "routing.qtable_to_dict", "routing.qtable_from_dict",
    "serialize.canonical_dumps", "serialize.write", "serialize.content_hash",
    "serialize.read_json", "scenario.load", "scenario.to_dict",
    "scenario.compile_to_lp", "solver.solve_milp", "twin.simulate_recycling",
    "twin.simulate_bins", "classify.train_on_records",
    "classify.evaluate_accuracy_records", "classify.model_to_dict",
    "classify.model_from_dict", "carbon.carbon_footprint",
    "pipeline.partition_districts",
)
# Per-layer metrics reported as self seconds per op of a span name.
SPAN_SELF_SECONDS = ("pipeline.run_full", "pipeline.feedback_update", "cli.run")
COUNTERS = tuple(sorted({c for *_, counters in WRAP_POINTS for c in counters}))
OP_SPAN = "op"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int


class Tracer:
    """Spans and counters of the ops of one traced pass, kept in memory.

    Wrappers record only while an op is open, so output checks made
    between ops call straight through.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.kept: dict[str, list[Any]] = defaultdict(list)
        self.keep_returns: set[str] = set()
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_start = 0
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, attr, name, counters in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counters))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._op)
            for counter, count in counters.items():
                if counter in self.broken:
                    continue
                try:
                    self.counts[(self._op, counter)] += count(args, kwargs, result)
                except (TypeError, AttributeError, IndexError, KeyError, OSError) as exc:
                    # The wrapped call changed shape; the count is lost, not 0.
                    self.broken.add(counter)
                    self.missing.append(f"counter {counter} ({exc!r})")
            if name in self.keep_returns:
                self.kept[name].append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> None:
        self.kept.clear()
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append(None)
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        root = self._stack[0]
        self.spans[root] = Span(OP_SPAN, self._op_start, time.perf_counter_ns(), None, self._op)
        self._op = None
        self._stack = []

    def present_names(self) -> set[str]:
        return {name for module, attr, name, _ in WRAP_POINTS
                if f"{module}.{attr}" not in self.missing}

    def present_counters(self) -> set[str]:
        return {c for module, attr, _, counters in WRAP_POINTS
                if f"{module}.{attr}" not in self.missing for c in counters} - self.broken

    def span_dicts(self) -> list[dict]:
        return [vars(s) for s in self.spans if s is not None]


def _span_seconds(tracer: Tracer, ops: list[int]) -> tuple[dict, dict]:
    """Inclusive and self nanoseconds per span name over `ops`.

    Inclusive time sums only the outermost span of a name, so a loader
    that calls another wrapped loader is not counted twice. Self time is a
    span's duration minus the durations of its direct children (one
    thread, so children never overlap).
    """
    wanted = set(ops)
    picked = [(i, s) for i, s in enumerate(tracer.spans) if s is not None and s.op in wanted]
    child_ns: dict[int, int] = defaultdict(int)
    for _, s in picked:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    inclusive: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for i, s in picked:
        duration = s.end_ns - s.start_ns
        self_ns[s.name] += duration - child_ns[i]
        ancestor = s.parent
        while ancestor is not None and tracer.spans[ancestor].name != s.name:
            ancestor = tracer.spans[ancestor].parent
        if ancestor is None:
            inclusive[s.name] += duration
    return inclusive, self_ns


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-op means over `ops` of span seconds, self seconds and counters.

    ``untraced_s`` is the op span's self time: wall time of the op that no
    layer span covers.
    """
    inclusive, self_ns = _span_seconds(tracer, ops)
    n = len(ops)
    present = tracer.present_names()
    out: dict[str, float] = {}
    for name in SPAN_SECONDS:
        if name in present:
            out[f"{name}_s"] = inclusive[name] / 1e9 / n
    for name in SPAN_SELF_SECONDS:
        if name in present:
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / n
    counters = tracer.present_counters()
    for counter in COUNTERS:
        if counter in counters:
            out[counter] = sum(tracer.counts[(op, counter)] for op in ops) / n
    out["untraced_s"] = self_ns[OP_SPAN] / 1e9 / n
    return out


def unit(metric: str) -> str:
    if metric.startswith("serialize.bytes"):
        return "bytes"
    if metric == "trace_overhead_frac":
        return "ratio"
    return "s" if metric.endswith("_s") else "count"


def self_seconds_by_layer(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Self seconds per op of every layer span name seen in `ops`."""
    _, self_ns = _span_seconds(tracer, ops)
    return {name: ns / 1e9 / len(ops) for name, ns in self_ns.items() if name != OP_SPAN}
