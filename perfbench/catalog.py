"""What each benchmark workload asks the program to do, generated from a seed.

The seed only picks among inputs of equal cost (which quick-tier input of a
SPECint benchmark, which group of benchmarks to sweep, which slice length
of a stored trace) and the order of the ops, so two seeds give different
inputs but the same amount of work.
Everything the benchmark can ask for is enumerable (:func:`catalog_ops`),
which is what lets ``pin.py`` pin an expected result for every op.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.config import QUICK_TIER, SLICE_INSTRUCTIONS
from repro.predictors.tagescl import STORAGE_PRESETS_KIB
from repro.workloads import LCF_WORKLOADS, SPECINT_WORKLOADS

Op = Dict[str, object]

SPECINT = tuple(w.name for w in SPECINT_WORKLOADS)
LCF = tuple(w.name for w in LCF_WORKLOADS)
#: Quick-tier inputs and trace lengths (what ``python -m repro`` uses).
SPEC_INPUTS = tuple(range(QUICK_TIER.spec_inputs))
SPEC_N = QUICK_TIER.spec_instructions
LCF_N = QUICK_TIER.lcf_instructions

GROUPS: Dict[str, Tuple[str, ...]] = {
    "tage": ("tage-sc-l-8kb",),
    "perceptron": ("perceptron", "path-perceptron", "o-gehl"),
    "counter": ("bimodal", "gshare", "two-level-local"),
    "fig7": tuple(f"tage-sc-l-{kib}kb" for kib in STORAGE_PRESETS_KIB),
}

#: cold-sweep: the LCF application whose trace gets the fig7 and
#: perceptron-family sweeps (one fixed app keeps the cost seed-independent).
COLD_LCF = "game"
#: cold-sweep: groups of three SPECint benchmarks (every third one); the
#: seed picks one.  Their traces and sweeps cost within ~5% of each other.
SWEEP_GROUPS = tuple(SPECINT[k::3] for k in range(3))
#: warm-rerun: the benchmarks linted and given a Table III row.  Fixed,
#: because lint and Table III cost differ several-fold between benchmarks:
#: seeded groups of them moved warm-rerun's wall time by 13% across seeds.
WARM_LINT = ("600.perlbench_s", "623.xalancbmk_s", "620.omnetpp_s",
             "605.mcf_s", "648.exchange2_s")
WARM_TABLE3 = ("625.x264_s", "648.exchange2_s", "605.mcf_s")
#: warm-rerun: the LCF application that gets the phase-bias overlay.
WARM_PHASE_BIAS = "602.gcc_s"

#: serve-mix: the trace whose results the clients keep asking for (hits).
SERVE_HOT = ("game", 0, LCF_N)
#: serve-mix: misses are TAGE-SC-L 8KB on one stored LCF trace, sliced at
#: a length no other request uses, so every miss replays the whole trace at
#: the same cost.  The seed deals each client its own slice lengths; all of
#: them cut the trace into three slices, so results also weigh the same.
SERVE_MISS = ("nosql", 0, LCF_N)
SERVE_MISS_SLICES = tuple(range(100_000, 140_000, 1_000))
#: serve-mix: six-preset bursts run on a 20K-instruction prefix of this
#: trace (kept in the trace store), so a burst costs less than a miss.
SERVE_BURST = ("rdbms", 0, 20_000)
SERVE_BURST_SLICES = tuple(range(7_000, 7_800, 50))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def sim_key(workload: str, input_index: int, n: int, predictor: str,
            slice_instructions: int = SLICE_INSTRUCTIONS) -> str:
    return f"sim/{workload}/{input_index}/{n}/{predictor}/{slice_instructions}"


def _spec_block(name: str, i: int) -> List[Op]:
    """Generate, publish and phase-cluster one SPECint trace, sweep
    TAGE-SC-L and the counter family over it, and screen its H2Ps."""
    return [
        {"op": "trace", "workload": name, "input": i, "n": SPEC_N},
        {"op": "phases", "workload": name, "input": i, "n": SPEC_N},
        {"op": "sim", "workload": name, "input": i, "n": SPEC_N, "group": "tage"},
        {"op": "h2p", "workload": name, "input": i, "n": SPEC_N,
         "predictor": GROUPS["tage"][0]},
        {"op": "sim", "workload": name, "input": i, "n": SPEC_N, "group": "counter"},
    ]


def _lcf_block() -> List[Op]:
    """Generate one LCF trace and run the fig7 and perceptron sweeps."""
    return [
        {"op": "trace", "workload": COLD_LCF, "input": 0, "n": LCF_N},
        {"op": "sim", "workload": COLD_LCF, "input": 0, "n": LCF_N, "group": "fig7"},
        {"op": "sim", "workload": COLD_LCF, "input": 0, "n": LCF_N, "group": "perceptron"},
    ]


def cold_sweep_ops(seed: int) -> List[Op]:
    """A seeded group of three SPECint benchmarks, each on a seeded
    quick-tier input, after the LCF block.  SPECint blocks run in seeded
    order; ops inside a block keep the order a cold ``python -m repro``
    has.  The LCF block goes first, so peak RSS depends on which
    benchmarks the round keeps in memory, not on the order."""
    rng = _rng("cold-sweep", seed)
    blocks = [_spec_block(name, rng.choice(SPEC_INPUTS))
              for name in rng.choice(SWEEP_GROUPS)]
    rng.shuffle(blocks)
    return _lcf_block() + [op for block in blocks for op in block]


def warm_rerun_ops(seed: int) -> List[Op]:
    """Re-read the cold-sweep results of the same seed from disk and
    rebuild those benchmarks' Table I rows; lint, Table III and the
    phase-bias overlay on fixed benchmarks."""
    rng = _rng("warm-rerun", seed)
    ops: List[Op] = []
    table1 = []
    for op in cold_sweep_ops(seed):
        if op["op"] == "sim":
            for predictor in GROUPS[str(op["group"])]:
                ops.append({
                    "op": "lookup", "workload": op["workload"], "input": op["input"],
                    "n": op["n"], "predictor": predictor,
                })
        if op["op"] == "trace" and op["workload"] in SPECINT:
            table1.append({"op": "table1", "workload": op["workload"]})
    rng.shuffle(ops)
    rng.shuffle(table1)
    lint = [{"op": "lint", "workload": name} for name in WARM_LINT]
    rng.shuffle(lint)
    table3 = [{"op": "table3", "workload": name} for name in WARM_TABLE3]
    rng.shuffle(table3)
    # Kinds run in a fixed order (only the order within a kind is seeded),
    # so the process reaches its peak memory at the same point every time.
    return ops + table1 + lint + table3 + [
        {"op": "phase_bias", "workload": WARM_PHASE_BIAS}]


#: serve-mix sizes: closed-loop clients, requests, misses and six-preset
#: bursts per client.
SERVE_CLIENTS = 2
SERVE_REQUESTS = 300
SERVE_MISSES = 12
SERVE_BURSTS = 1


def serve_hot_requests() -> List[Tuple[str, Dict[str, object]]]:
    """The hot set: answered from the daemon's memory after set-up."""
    name, i, n = SERVE_HOT
    base = {"workload": name, "input": i, "instructions": n}
    hot: List[Tuple[str, Dict[str, object]]] = [
        ("simulate", dict(base, predictor=p)) for p in GROUPS["counter"]
    ]
    hot.append(("h2p", dict(base, predictor=GROUPS["tage"][0])))
    return hot


def _miss(slice_instructions: int) -> Tuple[str, Dict[str, object]]:
    name, i, n = SERVE_MISS
    return ("simulate", {"workload": name, "input": i, "instructions": n,
                         "predictor": GROUPS["tage"][0],
                         "slice_instructions": slice_instructions})


def _burst(slice_instructions: int) -> List[Tuple[str, Dict[str, object]]]:
    name, i, n = SERVE_BURST
    return [("simulate", {"workload": name, "input": i, "instructions": n,
                          "predictor": p, "slice_instructions": slice_instructions})
            for p in GROUPS["fig7"]]


def serve_client_plans(seed: int) -> List[List[Dict[str, object]]]:
    """One request list per client.  Each entry is ``{"kind": "hit" |
    "miss" | "burst", "requests": [(method, params), ...]}``; a burst's
    requests are pipelined, everything else waits for its reply.

    Hits cycle through the hot set in fixed proportion.  Client ``c`` sends
    its misses and bursts during the ``c``-th part of its list, so the
    clients mostly take turns at computing instead of queueing behind each
    other's misses (the daemon dispatches one batch at a time)."""
    rng = _rng("serve-mix", seed)
    hot = serve_hot_requests()
    miss_slices = list(SERVE_MISS_SLICES)
    rng.shuffle(miss_slices)
    burst_slices = list(SERVE_BURST_SLICES)
    rng.shuffle(burst_slices)
    plans: List[List[Dict[str, object]]] = []
    for c in range(SERVE_CLIENTS):
        computed: List[Dict[str, object]] = [
            {"kind": "miss", "requests": [_miss(s)]}
            for s in miss_slices[c::SERVE_CLIENTS][:SERVE_MISSES]
        ] + [
            {"kind": "burst", "requests": _burst(s)}
            for s in burst_slices[c::SERVE_CLIENTS][:SERVE_BURSTS]
        ]
        sent = sum(len(e["requests"]) for e in computed)
        hits = [{"kind": "hit", "requests": [hot[k % len(hot)]]}
                for k in range(SERVE_REQUESTS - sent)]
        rng.shuffle(hits)
        part = len(hits) // SERVE_CLIENTS
        mine = hits[c * part:(c + 1) * part] + computed
        rng.shuffle(mine)
        plans.append(hits[:c * part] + mine + hits[(c + 1) * part:])
    return plans


def ops_for(workload: str, seed: int) -> List[Op]:
    if workload == "cold-sweep":
        return cold_sweep_ops(seed)
    if workload == "warm-rerun":
        return warm_rerun_ops(seed)
    raise ValueError(f"{workload!r} has no op list")


def stored_traces() -> List[Tuple[str, int, int]]:
    """Every trace the templates hold: all quick-tier traces plus the
    serve-mix burst prefix."""
    traces = [(name, i, SPEC_N) for name in SPECINT for i in SPEC_INPUTS]
    traces += [(name, 0, LCF_N) for name in LCF]
    traces.append(SERVE_BURST)
    return traces


def catalog_ops() -> List[Op]:
    """Every op any seed can generate for the batch workloads (so pinning
    this list pins every result a run can check)."""
    ops = [op for name in SPECINT for i in SPEC_INPUTS for op in _spec_block(name, i)]
    ops += _lcf_block()
    ops += [{"op": "table1", "workload": name} for name in SPECINT]
    ops += [{"op": "lint", "workload": name} for name in WARM_LINT]
    ops += [{"op": "table3", "workload": name} for name in WARM_TABLE3]
    ops.append({"op": "phase_bias", "workload": WARM_PHASE_BIAS})
    return ops


def serve_catalog() -> List[Tuple[str, Dict[str, object]]]:
    """Every request any seed's serve-mix can send."""
    requests = list(serve_hot_requests())
    requests += [_miss(s) for s in SERVE_MISS_SLICES]
    for s in SERVE_BURST_SLICES:
        requests += _burst(s)
    return requests
