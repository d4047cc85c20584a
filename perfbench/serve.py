"""One measured round of serve-mix: ``python -m repro.service`` in its own
process, driven by closed-loop ``ServiceClient`` threads.

Set-up (timed) copies the trace-store template into a fresh cache
directory, spawns the daemon with ``spawn_daemon``, waits for the first
``ping`` and warms the hot set.  The load phase (timed as ``wall_s``)
releases every client at once; each walks its own seeded list and waits
for every reply, except that a burst's six requests are pipelined.  The
host-speed probe (``probe.py``) runs just before and just after the load
phase, while the daemon is idle.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SLICE_INSTRUCTIONS
from repro.service import client as client_module
from repro.service.client import ServiceClient
from repro.service.loadtest import spawn_daemon, stop_daemon

import catalog
import probe


def response_key(method: str, params: Dict[str, Any]) -> str:
    if method == "h2p":
        return (f"h2p/{params['workload']}/{params['input']}/"
                f"{params['instructions']}/{params['predictor']}")
    return catalog.sim_key(
        params["workload"], params["input"], params["instructions"],
        params["predictor"], params.get("slice_instructions", SLICE_INSTRUCTIONS),
    )


def response_value(method: str, result: Dict[str, Any]) -> Any:
    return result["h2p_ips"] if method == "h2p" else result["digest"]


class _SerializeTimer:
    """Times the client's JSON encode (``dump_line``) and decode
    (``json.loads``) by wrapping the names ``repro.service.client`` looks
    up.  Used only in the traced round."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._lock = threading.Lock()
        self._saved = (client_module.dump_line, client_module.json)

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                with self._lock:
                    self.seconds += elapsed
        return wrapper

    def __enter__(self) -> "_SerializeTimer":
        loads = self._timed(json.loads)
        client_module.dump_line = self._timed(client_module.dump_line)
        client_module.json = type("TimedJson", (), {"loads": staticmethod(loads)})
        return self

    def __exit__(self, *exc_info) -> None:
        client_module.dump_line, client_module.json = self._saved


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def serve_round(seed: int, store_template: Path, workdir: Path, traced: bool) -> Dict[str, Any]:
    """Run one round; returns timings, per-request records and checks."""
    t_setup = perf_counter()
    shutil.copytree(store_template, workdir)
    daemon_args = ["--cache-dir", str(workdir), "--jobs", "1"]
    if traced:
        daemon_args.append("--metrics")
    proc, address = spawn_daemon(daemon_args)
    # (kind, method, params, latency_s, result or None, error or None)
    records: List[Tuple[str, str, Dict[str, Any], float, Any, Optional[str]]] = []
    try:
        with ServiceClient(*address) as client:
            client.call("ping")
            for method, params in catalog.serve_hot_requests():
                t0 = perf_counter()
                result = client.call(method, params)
                records.append(("warmup", method, params, perf_counter() - t0, result, None))
        setup_s = perf_counter() - t_setup
        probe_s = probe.sample(probe.SERVE_SAMPLES)

        plans = catalog.serve_client_plans(seed)
        per_client: List[List[Any]] = [[] for _ in plans]
        busy_s = [0.0] * len(plans)  # per client, time inside requests
        barrier = threading.Barrier(len(plans) + 1, timeout=120)

        def drive(slot: int) -> None:
            out = per_client[slot]
            with ServiceClient(*address) as c:
                barrier.wait()
                for entry in plans[slot]:
                    started = perf_counter()
                    sent = []
                    for method, params in entry["requests"]:
                        t0 = perf_counter()
                        try:
                            sent.append((method, params, t0, c.submit(method, params), None))
                        except Exception as exc:  # noqa: BLE001 - counted as failed
                            sent.append((method, params, t0, None, repr(exc)))
                    for method, params, t0, rid, error in sent:
                        result = None
                        if error is None:
                            try:
                                result = c.result(rid)
                            except Exception as exc:  # noqa: BLE001 - counted as failed
                                error = repr(exc)
                        out.append((entry["kind"], method, params,
                                    perf_counter() - t0, result, error))
                    busy_s[slot] += perf_counter() - started

        threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(len(plans))]
        serialize = _SerializeTimer()
        with serialize if traced else contextlib.nullcontext():
            for t in threads:
                t.start()
            barrier.wait()
            t_load = perf_counter()
            for t in threads:
                t.join()
            wall_s = perf_counter() - t_load
        probe_s += probe.sample(probe.SERVE_SAMPLES)
        for out in per_client:
            records.extend(out)
        peak_rss_mb = _vm_hwm_mb(proc.pid)
        counters: Dict[str, int] = {}
        if traced:
            with ServiceClient(*address) as client:
                counters = client.call("metrics")["counters"]
    finally:
        stop_daemon(proc)
        if proc.stdout is not None:
            proc.stdout.close()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "counters": counters,
        "serialize_s": serialize.seconds,
        "client_busy_s": sum(busy_s),
    }
