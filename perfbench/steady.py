"""Steadiness check: run a workload once per seed and report, for every
end-to-end metric, the median, quartiles and spread (IQR / median).

    python3 perfbench/steady.py --workload serve-mix --seeds 1-10 \\
        --seconds 20 [--json perfbench/steadiness.json]

Quartiles are ``statistics.quantiles(values, n=4)``.  A metric is steady
when its spread stays below a third of its ``bound`` in BENCHMARK.json.
With ``--json`` the summary is merged into that file under the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> List[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: Dict[str, List[float]] = {}
    failed = 0
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"seeds": args.seeds, "seconds": seconds, "failed": failed, "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds.get(name), "values": vals,
        }
        flag = "" if name not in bounds or spread < bounds[name] / 3 else "  <-- wide"
        print(f"{name:16s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {spread:7.2%}  bound {bounds.get(name)}{flag}")
    if args.json:
        path = Path(args.json)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault(args.workload, []).append(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
