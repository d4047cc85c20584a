"""One measured round of a batch workload, in a fresh process.

    python3 perfbench/child.py round --workload cold-sweep --seed 1 \\
        --workdir DIR [--template DIR] [--trace] --out result.json
    python3 perfbench/child.py template --dest DIR

A round copies the template (if any) into its own cache directory, opens
``Lab(jobs=1)`` on it, runs the seeded op list, and writes its wall time,
the host-speed probe's samples (taken between ops, outside ``wall_s``),
the values to check, and (with ``--trace``) per-layer spans to ``--out``.
Set-up ends where the first op starts: ``first_op_at`` is a
``perf_counter`` reading, which on Linux shares CLOCK_MONOTONIC with the
parent that spawned this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _round(args: argparse.Namespace) -> int:
    import tracing

    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        tracing.install(recorder)

    from repro import obs
    from repro.experiments.lab import Lab

    import catalog
    import probe
    import work

    workdir = Path(args.workdir)
    if args.template:
        shutil.copytree(args.template, workdir)
    lab = Lab(cache_dir=str(workdir), jobs=1)
    ops = catalog.ops_for(args.workload, args.seed)

    results = []
    errors = []
    wall_s = 0.0
    probe_s = []
    first_op_at = perf_counter()
    for op in ops:
        started = perf_counter()
        try:
            results.append(work.run_op(lab, op))
        except Exception:
            results.append(None)
            errors.append(f"{op}: {traceback.format_exc(limit=3)}")
        op_s = perf_counter() - started
        wall_s += op_s
        probe_s += probe.after(op_s)
    lab.close()

    checks = []
    branches = 0
    for op, result in zip(ops, results):
        if result is None:
            checks.append(None)
            continue
        branches += work.simulated_branches(op, result)
        checks.append(work.observe(op, result))
    out = {
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "ops": len(ops),
        "errors": errors,
        "branches": branches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
    }
    if recorder is not None:
        out["layers"] = recorder.layers()
        out["counters"] = obs.registry().counters_dict()
    Path(args.out).write_text(json.dumps(out))
    return 0


def _template(args: argparse.Namespace) -> int:
    """Build both templates: ``store`` holds every trace the benchmark
    reads; ``warm`` adds every result a cold sweep of any seed writes."""
    from repro.experiments.lab import Lab

    import catalog
    import work

    dest = Path(args.dest)
    store = dest / "store"
    lab = Lab(cache_dir=str(store), jobs=1)
    for name, i, n in catalog.stored_traces():
        lab.trace(name, i, n)
    lab.close()
    warm = dest / "warm"
    shutil.copytree(store, warm)
    lab = Lab(cache_dir=str(warm), jobs=1)
    for op in catalog.catalog_ops():
        if op["op"] in ("trace", "phases", "sim"):
            work.run_op(lab, op)
    lab.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("round")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--workdir", required=True)
    r.add_argument("--template", default=None)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out", required=True)
    t = sub.add_parser("template")
    t.add_argument("--dest", required=True)
    args = parser.parse_args(argv)
    return _round(args) if args.cmd == "round" else _template(args)


if __name__ == "__main__":
    sys.exit(main())
