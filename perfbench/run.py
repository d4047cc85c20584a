"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see ``perfbench/README.md``):

* ``cold-sweep``  in-process ``Lab(jobs=1)`` on an empty cache directory:
  trace generation and publishing, phase clustering, predictor sweeps;
* ``warm-rerun``  the same on a copy of a warm cache: disk lookups, Table I
  rows, static analysis, the phase-bias overlay, Table III;
* ``serve-mix``   ``python -m repro.service`` over a warm trace store,
  driven by two closed-loop clients.

Each run repeats fresh rounds of the seeded op list while ``--seconds``
lasts (at least one) and reports medians over rounds, with every timing
scaled to a reference host speed by a probe timed beside the work
(``probe.py``).  ``--trace 1`` alternates untraced and traced rounds and
reports per-layer metrics instead.  Every op's output is checked against
``perfbench/expected.json``; the last line of stdout is one JSON object.

The first run in a checkout builds the cache templates (a few minutes)
under ``perfbench/.work``; later runs reuse them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
WORKLOADS = ("cold-sweep", "warm-rerun", "serve-mix")


def source_digest(root: Path) -> str:
    """Names the templates: any change to the program or the catalog
    builds new ones."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += [HERE / "catalog.py", HERE / "child.py", HERE / "work.py"]
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env(root: Path, traced: bool) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` setting, so only
    the benchmark decides tier, cache, jobs and telemetry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_JOBS"] = "1"
    if traced:
        env["REPRO_METRICS"] = "1"
    return env


def ensure_templates(root: Path) -> Path:
    target = WORK / f"template-{source_digest(root)}"
    if target.is_dir():
        return target
    WORK.mkdir(parents=True, exist_ok=True)
    for stale in WORK.glob("template-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = WORK / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"[perfbench] building cache templates in {target.relative_to(root)}",
          flush=True)
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "template", "--dest", str(tmp)],
        env=child_env(root, traced=False), check=True, timeout=840,
    )
    os.replace(tmp, target)
    return target


def round_dir(index: int) -> Path:
    """A fresh, not yet existing cache directory for one round."""
    workdir = WORK / "rounds" / f"{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.parent.mkdir(parents=True, exist_ok=True)
    return workdir


def batch_round(root: Path, workload: str, seed: int, template: Path,
                traced: bool, index: int) -> Dict[str, Any]:
    workdir = round_dir(index)
    out = workdir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "round",
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--out", str(out)]
    if workload == "warm-rerun":
        cmd += ["--template", str(template / "warm")]
    if traced:
        cmd.append("--trace")
    try:
        spawned = perf_counter()
        subprocess.run(cmd, env=child_env(root, traced), check=True, timeout=170)
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out.unlink(missing_ok=True)
    result["setup_s"] = result["first_op_at"] - spawned
    return result


def serve_round(root: Path, seed: int, template: Path, traced: bool,
                index: int) -> Dict[str, Any]:
    import serve

    workdir = round_dir(index)
    try:
        result = serve.serve_round(seed, template / "store", workdir, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def run_rounds(args: argparse.Namespace, root: Path, template: Path) -> List[Dict[str, Any]]:
    """Fresh rounds until ``--seconds`` would be overrun (at least one;
    with ``--trace 1`` at least one untraced and one traced, alternating)."""
    start = perf_counter()
    rounds: List[Dict[str, Any]] = []
    durations: List[float] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = perf_counter()
        if args.workload == "serve-mix":
            r = serve_round(root, args.seed, template, traced, len(rounds))
        else:
            r = batch_round(root, args.workload, args.seed, template, traced, len(rounds))
        r["traced"] = traced
        rounds.append(r)
        durations.append(perf_counter() - t0)
        if args.trace and len(rounds) < 2:
            continue
        if perf_counter() - start + statistics.median(durations) > args.seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    os.environ.clear()
    os.environ.update(child_env(root, traced=False))

    import report

    template = ensure_templates(root)
    expected = json.loads((HERE / "expected.json").read_text())
    rounds = run_rounds(args, root, template)
    summary = report.summarize(args.workload, rounds, expected, bool(args.trace))
    for line in summary["lines"]:
        print(line)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
