"""Pin the expected output of every op the benchmark can run.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every op of :func:`catalog.catalog_ops` and every request of
:func:`catalog.serve_catalog` in-process on a fresh ``Lab`` and writes
what ``work.observe`` (and, for requests, the daemon's digest) records to
``perfbench/expected.json``.  Rerun it only after a change that is meant
to alter results, and say why in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.analysis.h2p import screen_workload
from repro.config import SLICE_INSTRUCTIONS
from repro.experiments.lab import Lab, workload_spec
from repro.service import simulation_digest

import catalog
import serve
import work


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory() as cache:
        lab = Lab(cache_dir=cache, jobs=1)
        for name, i, n in catalog.stored_traces():
            trace = lab.trace(name, i, n).trace
            expected[f"branches/{name}/{i}/{n}"] = len(trace.conditional_columns()[0])
        for op in catalog.catalog_ops():
            expected.update(work.observe(op, work.run_op(lab, op)))
        for method, params in catalog.serve_catalog():
            result = lab.simulate(
                params["workload"], params["input"], params["predictor"],
                params["instructions"],
                params.get("slice_instructions", SLICE_INSTRUCTIONS),
            )
            if method == "h2p":
                spec = workload_spec(params["workload"])
                value = sorted(screen_workload(
                    params["workload"], spec.input_name(params["input"]),
                    result.slice_stats).union_h2p_ips)
            else:
                value = simulation_digest(result)
            expected[serve.response_key(method, params)] = value
        lab.close()
    out = Path(__file__).resolve().parent / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(expected)} values in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
