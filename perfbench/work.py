"""Run benchmark ops through the program's public entry points, and turn
their results into the values ``expected.json`` pins.

Every call goes through a module attribute looked up at call time
(``table1.compute_table1_row``, not a name bound at import), so the
wrappers ``tracing.py`` installs on those attributes see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Tuple

from repro.analysis import h2p
from repro.experiments import table1, table3
from repro.experiments.lab import Lab, workload_spec
from repro.pipeline import simulator
from repro.predictors.phase_aware import PhaseBiasHelper
from repro.predictors.tagescl import make_tage_sc_l
from repro.service import simulation_digest
from repro.staticcheck import engine
from repro.workloads import WORKLOAD_CONTRACTS

from catalog import GROUPS, Op, sim_key

#: Static-check rules that mean the program no longer matches its contract.
CONTRACT_RULES = ("SC301", "SC302")


def run_op(lab: Lab, op: Op) -> Any:
    """Execute one op; returns what :func:`observe` needs."""
    kind = op["op"]
    name = str(op["workload"])
    if kind == "trace":
        return lab.trace(name, op["input"], op["n"])
    if kind == "phases":
        return lab.phase_count(name, op["input"], op["n"])
    if kind == "sim":
        return lab.simulate_batch(name, op["input"], GROUPS[str(op["group"])], op["n"])
    if kind == "lookup":
        return lab.simulate(name, op["input"], op["predictor"], op["n"])
    if kind == "h2p":
        result = lab.simulate(name, op["input"], op["predictor"], op["n"])
        spec = workload_spec(name)
        return h2p.screen_workload(name, spec.input_name(op["input"]), result.slice_stats)
    if kind == "table1":
        return table1.compute_table1_row(lab, name)
    if kind == "lint":
        return engine.lint_workload(
            workload_spec(name),
            WORKLOAD_CONTRACTS.get(name),
            input_indices=lab.inputs_for(name),
            predictability=True,
        )
    if kind == "phase_bias":
        trace = lab.trace(name, 0)
        helper = PhaseBiasHelper(make_tage_sc_l(8))
        return simulator.simulate_trace(trace.trace, helper), helper.overrides
    if kind == "table3":
        return table3.compute_table3(lab, [name])
    raise ValueError(f"unknown op {kind!r}")


def simulated_branches(op: Op, result: Any) -> int:
    """Conditional branches x predictor configs this op simulated, counting
    only results the op computed (a disk or memory hit simulates nothing)."""
    if op["op"] == "sim":
        return sum(r.stats.total_executions for r in result)
    if op["op"] == "phase_bias":
        return result[0].stats.total_executions
    return 0


def observe(op: Op, result: Any) -> List[Tuple[str, Any]]:
    """(key, value) pairs to compare against ``expected.json``."""
    kind = op["op"]
    name = str(op["workload"])
    if kind == "trace":
        t = result.trace
        digest = hashlib.sha256(t.ips.tobytes() + t.taken.tobytes()).hexdigest()
        return [(f"trace/{name}/{op['input']}/{op['n']}", [len(t), digest])]
    if kind == "phases":
        return [(f"phases/{name}/{op['input']}/{op['n']}", result)]
    if kind == "sim":
        return [
            (sim_key(name, op["input"], op["n"], p), simulation_digest(r))
            for p, r in zip(GROUPS[str(op["group"])], result)
        ]
    if kind == "lookup":
        return [(sim_key(name, op["input"], op["n"], op["predictor"]),
                 simulation_digest(result))]
    if kind == "h2p":
        return [(f"h2p/{name}/{op['input']}/{op['n']}/{op['predictor']}",
                 sorted(result.union_h2p_ips))]
    if kind == "table1":
        return [(f"table1/{name}", dataclasses.asdict(result))]
    if kind == "lint":
        footprint, diagnostics = result
        rules = sorted({d.rule_id for d in diagnostics})
        return [(f"lint/{name}", {
            "footprint": footprint.as_dict(),
            "diagnostics": len(diagnostics),
            "rules": rules,
        })]
    if kind == "phase_bias":
        sim, overrides = result
        return [(f"phase_bias/{name}", [simulation_digest(sim), overrides])]
    if kind == "table3":
        return [(f"table3/{name}", [
            {"row": dataclasses.asdict(e.row), "spread": dataclasses.asdict(e.spread)}
            for e in result.entries
        ])]
    raise ValueError(f"unknown op {kind!r}")


def contract_failures(observations: Dict[str, Any]) -> List[str]:
    """Lint results must match ``WORKLOAD_CONTRACTS`` exactly, whatever
    ``expected.json`` says: a contract finding is a failure."""
    failures = []
    for key, value in observations.items():
        if not key.startswith("lint/"):
            continue
        name = key.split("/", 1)[1]
        contract = WORKLOAD_CONTRACTS.get(name)
        found = [r for r in value["rules"] if r in CONTRACT_RULES]
        footprint = value["footprint"]
        outside = contract is None or any(
            not lo <= footprint.get(k, lo - 1) <= hi
            for k, (lo, hi) in contract.bounds.items()
        )
        if found or outside:
            failures.append(f"{key}: footprint breaks its contract {found}")
    return failures
