"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public calls of each layer with a wrapper
that records a span (layer, start, end, parent) in memory.  Each wrapper
sits on the name the caller looks up: ``Lab.trace`` finds
``trace_workload`` in ``repro.experiments.lab``, so that is where the
wrapper goes, not on ``repro.workloads``.  A span's self time is its
duration minus the time its child spans cover; layer times below are sums
of self times, so they add up to the traced part of the run exactly once.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute, layer).  ``Class.method`` attributes wrap the method
#: on the class.  Layer names follow the repository's modules.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.lab", "Lab.trace", "lab"),
    ("repro.experiments.lab", "Lab.simulate", "lab"),
    ("repro.experiments.lab", "Lab.simulate_batch", "lab"),
    ("repro.experiments.lab", "Lab.phase_count", "lab"),
    ("repro.experiments.lab", "trace_workload", "workloads.generate"),
    ("repro.workloads.trace_store", "TraceStore.store", "trace_store.store"),
    ("repro.workloads.trace_store", "TraceStore.load", "trace_store.load"),
    ("repro.experiments.lab", "execute_workload", "phases.execute"),
    ("repro.experiments.lab", "prepare_bbvs", "phases.cluster"),
    ("repro.experiments.lab", "cluster_phases", "phases.cluster"),
    ("repro.experiments.lab", "simulate_trace", "pipeline.simulate"),
    ("repro.experiments.lab", "simulate_trace_batch", "pipeline.simulate"),
    ("repro.pipeline.simulator", "simulate_trace", "pipeline.simulate"),
    ("repro.pipeline.simulator", "simulate_trace_batch", "pipeline.simulate"),
    # simulate_trace_batch imports replay_tagescl_batch at call time.
    ("repro.kernels.batched", "replay_tagescl_batch", "kernels.replay"),
    ("repro.pipeline.simulator", "score_with_kernel", "kernels.vectorized"),
    ("repro.pipeline.simulator", "score_predictions", "kernels.score"),
    ("repro.kernels.engine", "score_predictions", "kernels.score"),
    ("repro.staticcheck.engine", "lint_workload", "staticcheck.lint"),
    ("repro.staticcheck.engine", "analyze_program", "staticcheck.analyze"),
    ("repro.staticcheck.engine", "compute_ranges", "staticcheck.ranges"),
    ("repro.staticcheck.engine", "compute_predictability", "staticcheck.predictability"),
    ("repro.staticcheck.engine", "analyze_loop_trips", "staticcheck.trips"),
    ("repro.staticcheck.engine", "compute_taint", "staticcheck.taint"),
    ("repro.analysis.h2p", "screen_workload", "analysis.h2p"),
    ("repro.experiments.table1", "screen_workload", "analysis.h2p"),
    ("repro.experiments.table1", "compute_table1_row", "analysis.h2p"),
    ("repro.experiments.table3", "screen_workload", "analysis.h2p"),
    ("repro.experiments.table3", "compute_table3", "analysis.dependency"),
    ("repro.experiments.table3", "execute_workload", "analysis.dependency"),
    ("repro.experiments.table3", "dependency_row", "analysis.dependency"),
)


def _instructions(args, kwargs, result) -> float:
    return float(result.trace.instr_count)


def _bytes_written(args, kwargs, result) -> float:
    return float(os.path.getsize(result)) if result is not None else 0.0


def _replay_rows(args, kwargs, result) -> float:
    trace, predictors = args[0], args[1]
    return float(len(trace.conditional_columns()[0]) * len(predictors))


#: Work counted per span, by layer: generated instructions, published
#: bytes, replayed rows (conditional branches x configs).
AMOUNTS: Dict[str, Callable[..., float]] = {
    "workloads.generate": _instructions,
    "trace_store.store": _bytes_written,
    "kernels.replay": _replay_rows,
}


class Recorder:
    """In-memory spans of one single-threaded run."""

    def __init__(self) -> None:
        # [layer, start, end, parent index, child seconds, amount, nested]
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        amount = AMOUNTS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            nested = any(self.spans[i][0] == layer for i in self._stack)
            record = [layer, perf_counter(), 0.0, parent, 0.0, 0.0, nested]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = perf_counter()
                if parent >= 0:
                    self.spans[parent][4] += record[2] - record[1]
            if amount is not None:
                record[5] = amount(args, kwargs, result)
            return result

        return wrapper

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls (outermost spans), self seconds, amount."""
        out: Dict[str, Dict[str, float]] = {}
        for layer, start, end, _parent, child, amount, nested in self.spans:
            agg = out.setdefault(layer, {"calls": 0.0, "self_s": 0.0, "amount": 0.0})
            agg["calls"] += 0 if nested else 1
            agg["self_s"] += (end - start) - child
            agg["amount"] += amount
        return out


def install(recorder: Recorder) -> None:
    """Wrap every entry in :data:`WRAPS` (once per process)."""
    for module_name, attr, layer in WRAPS:
        module = importlib.import_module(module_name)
        owner: Any = module
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(module, cls_name)
        setattr(owner, name, recorder.wrap(layer, getattr(owner, name)))


def layer_metrics(
    layers: Dict[str, Dict[str, float]],
    counters: Dict[str, int],
    wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one traced round:
    span aggregates for the in-process layers plus the program's own obs
    counters (``REPRO_METRICS=1``)."""

    def get(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0.0)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m: Dict[str, float] = {}
    m["workloads.generate.calls"] = get("workloads.generate", "calls")
    m["workloads.generate.busy_s"] = get("workloads.generate", "self_s")
    m["workloads.generate.instr_per_s"] = rate(
        get("workloads.generate", "amount"), get("workloads.generate", "self_s"))
    m["trace_store.store.calls"] = get("trace_store.store", "calls")
    m["trace_store.store.busy_s"] = get("trace_store.store", "self_s")
    m["trace_store.store.mb"] = get("trace_store.store", "amount") / 1e6
    m["trace_store.load.calls"] = get("trace_store.load", "calls")
    m["trace_store.load.busy_s"] = get("trace_store.load", "self_s")
    m["phases.execute.busy_s"] = get("phases.execute", "self_s")
    m["phases.cluster.busy_s"] = get("phases.cluster", "self_s")
    m["kernels.replay.calls"] = get("kernels.replay", "calls")
    m["kernels.replay.busy_s"] = get("kernels.replay", "self_s")
    m["kernels.replay.rows"] = get("kernels.replay", "amount")
    m["kernels.replay.rows_per_s"] = rate(
        get("kernels.replay", "amount"), get("kernels.replay", "self_s"))
    m["kernels.vectorized.busy_s"] = get("kernels.vectorized", "self_s")
    m["kernels.score.busy_s"] = get("kernels.score", "self_s")
    m["pipeline.simulate.calls"] = get("pipeline.simulate", "calls")
    m["pipeline.simulate.self_s"] = get("pipeline.simulate", "self_s")
    m.update(counter_metrics(counters))
    m["lab.self_s"] = get("lab", "self_s")
    m["staticcheck.analyze.calls"] = get("staticcheck.analyze", "calls")
    m["staticcheck.analyze.busy_s"] = get("staticcheck.analyze", "self_s")
    for p in ("ranges", "predictability", "trips", "taint"):
        m[f"staticcheck.{p}.busy_s"] = get(f"staticcheck.{p}", "self_s")
    m["staticcheck.self_s"] = get("staticcheck.lint", "self_s")
    m["analysis.h2p.busy_s"] = get("analysis.h2p", "self_s")
    m["analysis.dependency.busy_s"] = get("analysis.dependency", "self_s")
    covered = sum(agg["self_s"] for agg in layers.values())
    m["trace.coverage"] = rate(covered, wall_s)
    return m


def counter_metrics(counters: Dict[str, int]) -> Dict[str, float]:
    """Layer metrics read from the program's obs counters; the same names
    whether the counters came from this process or the daemon."""
    memory = counters.get("lab.sim.cache_hit.memory", 0)
    disk = counters.get("lab.sim.cache_hit.disk", 0)
    lookups = memory + disk + counters.get("lab.sim.cache_miss", 0)
    scalar = counters.get("kernels.fallback_scalar", 0)
    cond = counters.get("sim.cond_branches", 0)
    return {
        "pipeline.scalar_branches": float(scalar),
        "pipeline.scalar_share": scalar / cond if cond else 0.0,
        "lab.lookups": float(lookups),
        "lab.hit_ratio.memory": memory / lookups if lookups else 0.0,
        "lab.hit_ratio.disk": disk / lookups if lookups else 0.0,
    }

