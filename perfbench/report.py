"""Turn a run's rounds into checked counts, metrics and report lines."""

from __future__ import annotations

import json
import math
import statistics
from typing import Any, Dict, List, Tuple

import catalog
import probe
import tracing
import work

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "branches_per_s": "branches/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.generate.calls": "count",
    "workloads.generate.busy_s": "s",
    "workloads.generate.instr_per_s": "instr/s",
    "trace_store.store.calls": "count",
    "trace_store.store.busy_s": "s",
    "trace_store.store.mb": "MB",
    "trace_store.load.calls": "count",
    "trace_store.load.busy_s": "s",
    "phases.execute.busy_s": "s",
    "phases.cluster.busy_s": "s",
    "kernels.replay.calls": "count",
    "kernels.replay.busy_s": "s",
    "kernels.replay.rows": "count",
    "kernels.replay.rows_per_s": "rows/s",
    "kernels.vectorized.busy_s": "s",
    "kernels.score.busy_s": "s",
    "pipeline.simulate.calls": "count",
    "pipeline.simulate.self_s": "s",
    "pipeline.scalar_branches": "count",
    "pipeline.scalar_share": "fraction",
    "lab.lookups": "count",
    "lab.hit_ratio.memory": "fraction",
    "lab.hit_ratio.disk": "fraction",
    "lab.self_s": "s",
    "staticcheck.analyze.calls": "count",
    "staticcheck.analyze.busy_s": "s",
    "staticcheck.ranges.busy_s": "s",
    "staticcheck.predictability.busy_s": "s",
    "staticcheck.trips.busy_s": "s",
    "staticcheck.taint.busy_s": "s",
    "staticcheck.self_s": "s",
    "analysis.h2p.busy_s": "s",
    "analysis.dependency.busy_s": "s",
    "service.hit.latency_p50_ms": "ms",
    "service.miss.latency_p50_ms": "ms",
    "service.client.serialize_ms": "ms",
    "service.coalesced_share": "fraction",
    "service.singleflight": "count",
    "service.shed": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
    "host.probe_ms": "ms",
}

#: serve-mix runs the program in the daemon process, out of reach of the
#: in-process span wrappers; these layer metrics come from its obs
#: counters instead (the ``metrics`` method returns counters and gauges,
#: not timers).  Time metrics of in-process layers read 0 there.
SERVE_COUNTERS = {
    "workloads.generate.calls": "lab.trace.build",
    "trace_store.load.calls": "lab.trace_store.hit",
    "kernels.replay.rows": "kernels.batched",
    "service.singleflight": "service.singleflight",
    "service.shed": "service.shed",
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value."""
    data = sorted(values)
    return data[max(1, math.ceil(q / 100.0 * len(data))) - 1]


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile with >= TAIL_BEYOND samples
    beyond it: (value, percentile, sample count)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0, n
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _matches(key: str, value: Any, expected: Dict[str, Any]) -> bool:
    return key in expected and expected[key] == json.loads(json.dumps(value))


Checked = Tuple[int, int, List[str]]


def _check_batch(rounds: List[Dict[str, Any]], expected: Dict[str, Any]) -> Checked:
    attempted = failed = 0
    problems: List[str] = []
    for r in rounds:
        problems += r["errors"]
        for checks in r["checks"]:
            attempted += 1
            if checks is None:
                failed += 1
                continue
            observed = dict(checks)
            bad = [k for k, v in observed.items() if not _matches(k, v, expected)]
            bad += work.contract_failures(observed)
            if bad:
                failed += 1
                problems += [f"mismatch: {k}" for k in bad]
    return attempted, failed, problems


def _check_serve(rounds: List[Dict[str, Any]], expected: Dict[str, Any]) -> Checked:
    import serve

    attempted = failed = 0
    problems: List[str] = []
    for r in rounds:
        for kind, method, params, _lat, result, error in r["records"]:
            attempted += 1
            if error is not None:
                failed += 1
                problems.append(f"{kind} {method} {params}: {error}")
                continue
            key = serve.response_key(method, params)
            if not _matches(key, serve.response_value(method, result), expected):
                failed += 1
                problems.append(f"mismatch: {key}")
    return attempted, failed, problems


def _serve_work(r: Dict[str, Any], expected: Dict[str, Any]) -> Tuple[List[float], int]:
    """Load-phase latencies and the branches its computed requests simulated."""
    latencies, branches = [], 0
    for kind, _method, params, latency, _result, _error in r["records"]:
        if kind == "warmup":
            continue
        latencies.append(latency)
        if kind in ("miss", "burst"):
            branches += expected[
                f"branches/{params['workload']}/{params['input']}/{params['instructions']}"]
    return latencies, branches


def _end_to_end(workload: str, rounds: List[Dict[str, Any]],
                expected: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Every metric per round, scaled to the reference host speed by the
    round's probe samples (``probe.py``), then the median over rounds; the
    raw wall times are printed beside them."""
    per_round = []
    for r in rounds:
        if workload == "serve-mix":
            latencies, branches = _serve_work(r, expected)
            ops = len(latencies)
        else:
            # A batch user's request is the whole op list: per-op times
            # mix ops of unlike cost and jitter by up to 15% each.
            latencies, branches, ops = [r["wall_s"]], r["branches"], r["ops"]
        k = probe.scale(workload, r["probe_s"])
        wall_s = r["wall_s"] * k
        tail_s, q, n = tail(latencies)
        per_round.append({
            "setup_s": r["setup_s"] * k,
            "wall_s": wall_s,
            "ops_per_s": ops / wall_s,
            "branches_per_s": branches / wall_s,
            "latency_p50_ms": percentile(latencies, 50) * k * 1000.0,
            "latency_tail_ms": tail_s * k * 1000.0,
            "peak_rss_mb": r["peak_rss_mb"],
        })
    values = {name: statistics.median(m[name] for m in per_round) for name in END_TO_END}
    raw = ", ".join(
        f"{r['wall_s']:.2f} s at probe {statistics.median(r['probe_s']) * 1000:.2f} ms"
        for r in rounds)
    lines = [
        f"[perfbench] {workload}: median of {len(rounds)} round(s); "
        f"latency_tail_ms is p{q:.2f} of {n} samples per round "
        f"({min(TAIL_BEYOND, n - 1)} beyond it)",
        f"[perfbench] raw walls: {raw}; timings below are scaled to a "
        f"{probe.REFERENCE_S * 1000:.1f} ms probe",
    ]
    return values, lines


def _serve_layers(r: Dict[str, Any]) -> Dict[str, float]:
    counters = r["counters"]
    m = tracing.counter_metrics(counters)
    for name, counter in SERVE_COUNTERS.items():
        m[name] = float(counters.get(counter, 0))
    by_kind: Dict[str, List[float]] = {}
    for kind, _method, _params, latency, _result, _error in r["records"]:
        by_kind.setdefault(kind, []).append(latency)
    requests = sum(len(v) for k, v in by_kind.items() if k != "warmup")
    m["service.hit.latency_p50_ms"] = percentile(by_kind["hit"], 50) * 1000.0
    m["service.miss.latency_p50_ms"] = percentile(by_kind["miss"], 50) * 1000.0
    m["service.client.serialize_ms"] = r["serialize_s"] / requests * 1000.0
    simulate = counters.get("service.request.simulate", 0)
    m["service.coalesced_share"] = (
        counters.get("service.batch.coalesced", 0) / simulate if simulate else 0.0)
    m["trace.coverage"] = r["client_busy_s"] / (catalog.SERVE_CLIENTS * r["wall_s"])
    return m


def _per_layer(workload: str,
               rounds: List[Dict[str, Any]]) -> Tuple[Dict[str, float], List[str]]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        # A layer the workload does not reach reads 0.
        m = dict.fromkeys(PER_LAYER, 0.0)
        if workload == "serve-mix":
            m.update(_serve_layers(r))
        else:
            m.update(tracing.layer_metrics(r["layers"], r["counters"], r["wall_s"]))
        per_round.append(m)
    computed = {"trace.overhead_frac", "host.probe_ms"}
    values = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER
              if name not in computed}
    # Layer times are raw seconds; only the overhead compares rounds run
    # at different moments, so it scales them as the end-to-end run does.
    traced_wall = statistics.median(
        r["wall_s"] * probe.scale(workload, r["probe_s"]) for r in traced)
    plain_wall = statistics.median(
        r["wall_s"] * probe.scale(workload, r["probe_s"]) for r in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    values["host.probe_ms"] = statistics.median(
        t for r in traced for t in r["probe_s"]) * 1000.0
    lines = [f"[perfbench] {workload}: traced wall {traced_wall:.3f} s, "
             f"untraced {plain_wall:.3f} s"]
    return values, lines


def summarize(workload: str, rounds: List[Dict[str, Any]], expected: Dict[str, Any],
              traced: bool) -> Dict[str, Any]:
    if workload == "serve-mix":
        attempted, failed, problems = _check_serve(rounds, expected)
    else:
        attempted, failed, problems = _check_batch(rounds, expected)
    if traced:
        values, lines = _per_layer(workload, rounds)
        units = PER_LAYER
    else:
        values, lines = _end_to_end(workload, rounds, expected)
        units = END_TO_END
    lines += [f"[perfbench] FAILED {p}" for p in problems[:20]]
    lines += [f"[perfbench] {name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    return {
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
