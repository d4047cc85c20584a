"""Trace-driven branch prediction simulation.

This is the CBP-style driver: it feeds a recorded dynamic branch stream to a
predictor (IP, type, target in; direction out), scores the predictions, and
accumulates per-static-branch statistics — in aggregate and per
fixed-instruction-length slice, matching the paper's methodology of
collecting statistics "across all 30M-instruction slices of each workload
trace".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.metrics import BranchStats
from repro.core.types import BranchKind, BranchTrace
from repro.kernels import kernels_enabled
from repro.kernels.engine import run_kernel, score_predictions, score_with_kernel
from repro.obs import introspect
from repro.predictors.base import BranchPredictor

# The scorers stay importable from here: ``perfbench/tracing.py`` times the
# scoring layer by wrapping these names.
__all__ = [
    "SimulationResult",
    "score_predictions",
    "score_with_kernel",
    "simulate_trace",
    "simulate_trace_batch",
]

_COND = int(BranchKind.CONDITIONAL)
# Enum construction is surprisingly costly in the hot loop; index instead.
_KINDS = {int(k): k for k in BranchKind}

_log = obs.get_logger("sim")


@dataclass
class SimulationResult:
    """Outcome of driving one predictor over one trace."""

    predictor_name: str
    stats: BranchStats
    instr_count: int
    slice_stats: Optional[List[BranchStats]] = None
    mispredict_positions: Optional[np.ndarray] = None

    @property
    def accuracy(self) -> float:
        return self.stats.accuracy

    @property
    def mispredictions(self) -> int:
        return self.stats.total_mispredictions

    @property
    def mpki(self) -> float:
        return self.stats.mpki(self.instr_count)


def simulate_trace(
    trace: BranchTrace,
    predictor: BranchPredictor,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and score it.

    Args:
        trace: the dynamic branch stream.
        slice_instructions: if set, also accumulate one
            :class:`BranchStats` per slice of this many instructions.
        record_mispredict_positions: capture the instruction index of every
            misprediction (needed by the event-level IPC model).
        warmup_branches: number of initial conditional branches excluded
            from scoring (the predictor still trains on them).

    The predictor is *not* reset; callers own lifecycle (this allows
    deliberate cross-slice training, as on real hardware).

    Every path only produces predictions, one per conditional branch:
    the predictor's :meth:`~repro.predictors.base.BranchPredictor.
    vectorized_kernel` when it has one (and ``REPRO_KERNELS`` is not
    disabled); the multi-config replay engine, as a batch of one, for a
    :func:`~repro.kernels.batched.batchable` predictor (TAGE / TAGE-SC-L),
    reusing the trace's memoized feature streams; otherwise the per-branch
    loop.  :func:`score_predictions` then scores them the same way for all
    three, so results are bit-identical on every path.
    """
    if slice_instructions is not None and slice_instructions <= 0:
        raise ValueError("slice_instructions must be positive")
    introspecting = introspect.is_enabled()

    if kernels_enabled():
        kernel = predictor.vectorized_kernel()
        if kernel is not None:
            t_start = perf_counter()
            preds = run_kernel(trace, kernel)
            return _finish(
                trace, [predictor], [preds], [None], "kernel", t_start,
                introspecting=introspecting,
                slice_instructions=slice_instructions,
                record_mispredict_positions=record_mispredict_positions,
                warmup_branches=warmup_branches,
            )[0]
        from repro.kernels.batched import batchable

        if batchable(predictor):
            return simulate_trace_batch(
                trace,
                [predictor],
                slice_instructions=slice_instructions,
                record_mispredict_positions=record_mispredict_positions,
                warmup_branches=warmup_branches,
            )[0]

    t_start = perf_counter()
    preds, attrs = _predict_scalar(trace, predictor, introspecting)
    return _finish(
        trace, [predictor], [preds], [attrs], "scalar", t_start,
        introspecting=introspecting,
        slice_instructions=slice_instructions,
        record_mispredict_positions=record_mispredict_positions,
        warmup_branches=warmup_branches,
    )[0]


def _predict_scalar(
    trace: BranchTrace, predictor: BranchPredictor, introspecting: bool
) -> Tuple[np.ndarray, Optional[List[Any]]]:
    """Drive ``predictor`` branch by branch; collect its predictions.

    Returns one prediction per conditional branch and, when introspecting a
    predictor with an ``introspect_last()`` hook, its attribution tuple
    per conditional branch (else ``None``).  Unconditional records only
    reach ``note_branch``; the oracle family gets the resolved outcome
    through ``set_outcome`` before ``predict``.
    """
    # Decoded once per trace (and memoized on it): list iteration beats
    # ndarray indexing, and ``taken`` arrives as Python bools.
    ips, taken_arr, targets, kinds, _ = trace.columns_as_lists()

    set_outcome = getattr(predictor, "set_outcome", None)
    introspect_last = (
        getattr(predictor, "introspect_last", None) if introspecting else None
    )
    predict = predictor.predict
    update = predictor.update
    note = predictor.note_branch
    preds: List[bool] = []
    append = preds.append
    attrs: Optional[List[Any]] = [] if introspect_last is not None else None

    for ip, taken, target, kind in zip(ips, taken_arr, targets, kinds):
        if kind != _COND:
            note(ip, target, _KINDS[kind], taken)
            continue
        if set_outcome is not None:
            set_outcome(taken)
        append(predict(ip))
        if attrs is not None:
            attrs.append(introspect_last())
        update(ip, taken)

    return np.array(preds, dtype=bool), attrs


def simulate_trace_batch(
    trace: BranchTrace,
    predictors: List[BranchPredictor],
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> List[SimulationResult]:
    """Simulate several predictors over one trace, sharing one replay pass.

    When every predictor is a batchable TAGE-SC-L configuration (see
    :func:`repro.kernels.batched.batchable`) and kernels are enabled, the
    multi-config replay reconstructs the trace's history/feature streams
    once and replays all presets against them — the fig. 7/8 shape, where
    the same workload is scored at every storage budget.  Results (and
    each predictor's final state) are bit-identical to running
    :func:`simulate_trace` per predictor; with ``REPRO_KERNELS=0`` or any
    non-batchable predictor in the list, that is literally what happens.
    """
    if not predictors:
        return []
    from repro.kernels.batched import batchable, replay_tagescl_batch

    if not kernels_enabled() or not all(batchable(p) for p in predictors):
        return [
            simulate_trace(
                trace,
                p,
                slice_instructions=slice_instructions,
                record_mispredict_positions=record_mispredict_positions,
                warmup_branches=warmup_branches,
            )
            for p in predictors
        ]

    introspecting = introspect.is_enabled()
    t_start = perf_counter()
    replays = replay_tagescl_batch(
        trace, predictors, collect_introspection=introspecting
    )
    return _finish(
        trace,
        predictors,
        [rep.preds for rep in replays],
        [rep.attrs for rep in replays],
        "batched",
        t_start,
        introspecting=introspecting,
        slice_instructions=slice_instructions,
        record_mispredict_positions=record_mispredict_positions,
        warmup_branches=warmup_branches,
    )


def _finish(
    trace: BranchTrace,
    predictors: Sequence[BranchPredictor],
    preds: Sequence[np.ndarray],
    attrs: Sequence[Optional[List[Any]]],
    path: str,
    t_start: float,
    *,
    introspecting: bool,
    slice_instructions: Optional[int],
    record_mispredict_positions: bool,
    warmup_branches: int,
) -> List[SimulationResult]:
    """Score, introspect and publish one simulation call, whatever its path.

    ``preds[k]`` holds ``predictors[k]``'s prediction for every conditional
    branch of ``trace``; ``attrs[k]`` the matching ``introspect_last()``
    tuples, or ``None`` when they were not collected.  ``path`` ("scalar", "kernel" or
    "batched") labels introspection reports and picks the path counters.
    """
    scores = [
        score_predictions(
            trace,
            p,
            slice_instructions=slice_instructions,
            record_mispredict_positions=record_mispredict_positions,
            warmup_branches=warmup_branches,
            collect_introspection=introspecting,
        )
        for p in preds
    ]
    elapsed = perf_counter() - t_start
    results = [
        SimulationResult(
            predictor_name=predictor.name,
            stats=score.stats,
            instr_count=trace.instr_count,
            slice_stats=score.slice_stats,
            mispredict_positions=score.mispredict_positions,
        )
        for predictor, score in zip(predictors, scores)
    ]

    if introspecting:
        ips_c, taken_c, pos_c = trace.conditional_columns()
        w = max(0, warmup_branches)
        for predictor, p, score, a in zip(predictors, preds, scores, attrs):
            chan = introspect.begin(predictor.name, slice_instructions, path=path)
            if a is None:
                chan.record_kernel(score.stats, score.intro_mis_ips, score.intro_mis_pos)
            else:
                # Per-branch recording keeps the attribution tuples.
                correct = (p[w:] == taken_c[w:]).tolist()
                record = chan.record
                for ip, pos, ok, attr in zip(
                    ips_c[w:].tolist(), pos_c[w:].tolist(), correct, a[w:]
                ):
                    record(ip, pos, ok, attr)
            chan.finish(predictor)

    n = len(trace)
    if obs.is_enabled():
        obs.observe_timer("sim.trace", elapsed)
        if len(predictors) == 1:
            # A member of a multi-config replay has no time of its own.
            obs.observe_timer(f"sim.predictor.{predictors[0].name}", elapsed)
        for predictor, score in zip(predictors, scores):
            cond = score.cond_branches
            obs.counter("sim.branches", n)
            obs.counter("sim.cond_branches", cond)
            obs.counter("sim.instructions", trace.instr_count)
            obs.counter("sim.mispredictions", score.stats.total_mispredictions)
            if path == "scalar":
                obs.counter("kernels.fallback_scalar", cond)
                obs.counter(f"kernels.fallback_scalar.{predictor.name}", cond)
            else:
                obs.counter("kernels.branches", cond)
                if path == "batched":
                    obs.counter("kernels.batched", cond)
            publish = getattr(predictor, "publish_obs_counters", None)
            if publish is not None:
                publish()
        if elapsed > 0:
            obs.gauge("sim.branches_per_sec", n * len(predictors) / elapsed)
    if _log.isEnabledFor(logging.INFO):
        first = results[0]
        _log.info(
            "%s (%s path, %d config%s): %d branches in %s (%s), "
            "accuracy %.4f, mpki %.2f",
            first.predictor_name,
            path,
            len(results),
            "" if len(results) == 1 else "s",
            n,
            obs.format_duration(elapsed),
            obs.format_rate(n * len(results), elapsed, "/s"),
            first.accuracy,
            first.mpki,
        )
    return results
