"""Write ``TRACE_REPORT.md``: one traced run per workload, as a table of
every per-layer metric.

    python3 perfbench/trace_report.py [--seed 1] [--seconds 40]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-sweep", "warm-rerun", "serve-mix")


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/trace_report.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    results = {w: traced_run(w, args.seed, args.seconds) for w in WORKLOADS}
    lines = [
        "# Traced-run report",
        "",
        f"`python3 perfbench/run.py --workload <w> --seed {args.seed} "
        f"--seconds {args.seconds} --trace 1`, one run per workload, written by",
        "`perfbench/trace_report.py`.  Times are self times in seconds (see",
        "README.md, \"Per-layer metrics and the traced run\").  On serve-mix the",
        "program runs in the daemon, so in-process layer times read 0 there and",
        "only counters and client-side timings are measured.  `host.probe_ms` is",
        "the host-speed probe's median in the traced rounds (README.md,",
        "\"Host-speed scaling\"); layer times are not scaled by it.",
        "",
        "| metric | unit | " + " | ".join(WORKLOADS) + " |",
        "|---|---|" + "---|" * len(WORKLOADS),
    ]
    for name, metric in results[WORKLOADS[0]]["metrics"].items():
        unit = metric["unit"]
        cells = [f"{results[w]['metrics'][name]['value']:.4g}" for w in WORKLOADS]
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("Checked ops: " + ", ".join(
        f"{w} {r['attempted'] - r['failed']}/{r['attempted']}" for w, r in results.items()))
    (HERE / "TRACE_REPORT.md").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
