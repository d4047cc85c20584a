"""Vectorized scoring: per-branch predictions → a simulation's outputs.

:func:`score_predictions` computes, without per-branch Python, everything a
per-branch driver would accumulate by calling ``BranchStats.record`` once
per scored conditional branch: aggregate and per-slice
:class:`~repro.core.metrics.BranchStats` (including that insertion order,
so downstream float reductions see the same operand order), warmup
exclusion, empty-slice emission at boundary crossings, and the recorded
mispredict positions.  Every ``simulate_trace`` path scores through it;
``tests/pipeline/test_scoring.py`` holds it to such a per-branch reference.

Scoring splits into a *plan* — every grouping that depends only on
``(trace, warmup, slice length)``: unique IPs, execution counts, stats
insertion orders, slice keys — and the per-call part that depends on the
predictor's predictions (the misprediction bincounts).  The plan is built
once and memoized on the trace, so the normal experiment shape (many
predictors over one trace) pays the sorts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.core.metrics import BranchStats
from repro.core.types import BranchTrace

#: A trace kernel: (conditional ips, conditional taken) -> predicted
#: directions.  The arrays cover exactly the conditional subsequence of the
#: trace, in temporal order; the kernel must treat them as read-only and is
#: responsible for leaving the predictor's own state (tables, histories) as
#: the scalar loop would.
#:
#: A kernel with a truthy ``wants_trace`` attribute is instead invoked as
#: ``kernel(ips_c, taken_c, trace)`` — the full trace lets predictors whose
#: ``note_branch`` is *not* a no-op (path/global-history predictors that
#: observe unconditional branches) reconstruct their history streams.
TraceKernel = Callable[..., np.ndarray]


@dataclass
class VectorizedScore:
    """What the vectorized path accumulated for one (trace, predictor).

    The ``intro_*`` arrays (the scored mispredictions' IPs and instruction
    positions) are populated only when scoring was asked to collect
    introspection data; normal callers see ``None``.
    """

    stats: BranchStats
    slice_stats: Optional[List[BranchStats]]
    mispredict_positions: Optional[np.ndarray]
    cond_branches: int
    intro_mis_ips: Optional[np.ndarray] = None
    intro_mis_pos: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _ScoringPlan:
    """Predictor-independent grouping for one (trace, warmup, slice length).

    Aggregate fields list the scored static branches in the scalar loop's
    dict insertion order (first appearance in the scored stream); ``inv``
    recodes each scored branch to its 0-based rank in sorted-unique IP
    order, exactly like ``np.unique``'s inverse, for the per-call
    misprediction bincount.  Slice fields do the same per
    ``(slice, branch)`` key.
    """

    agg_ips: List[int]  # unique IPs, insertion order
    agg_exec: List[int]  # executions per IP, same order
    agg_pick: np.ndarray  # insertion order -> code, to index bincounts
    inv: np.ndarray  # scored stream recoded to 0..width-1
    width: int
    n_closed: int  # closed slices (boundary crossings)
    key_inv: Optional[np.ndarray]  # scored stream -> slice-key rank
    key_slice: Optional[List[int]]  # per key (insertion order): slice index
    key_ips: Optional[List[int]]  # per key: IP
    key_exec: Optional[List[int]]  # per key: executions
    key_pick: Optional[np.ndarray]  # insertion order -> key rank


def _build_plan(
    trace: BranchTrace, w: int, slice_instructions: Optional[int]
) -> _ScoringPlan:
    all_uniq, codes = trace.conditional_ip_codes()
    s_codes = codes[w:]
    s_pos = trace.conditional_columns()[2][w:]

    agg_ips: List[int] = []
    agg_exec: List[int] = []
    agg_pick = np.empty(0, dtype=np.int64)
    inv = np.empty(0, dtype=np.int32)
    width = 0
    present_ips = np.empty(0, dtype=np.int64)  # scored unique IPs, sorted
    if len(s_codes):
        # The int64 IP sort is memoized on the trace; grouping here works
        # on the small int32 codes (radix-sorted inside np.unique).
        present, first_idx = np.unique(s_codes, return_index=True)
        executions = np.bincount(s_codes, minlength=len(all_uniq))[present]
        order = np.argsort(first_idx, kind="stable")
        agg_pick = order
        present_ips = all_uniq[present]
        agg_ips = present_ips[order].tolist()
        agg_exec = executions[order].tolist()
        width = len(present)
        if width == len(all_uniq):
            inv = s_codes
        else:
            # Warmup can hide some static branches entirely; recode the
            # survivors to 0..width-1 like np.unique's inverse would.
            remap = np.zeros(len(all_uniq), dtype=np.int32)
            remap[present] = np.arange(width, dtype=np.int32)
            inv = remap[s_codes]

    n_closed = 0
    key_inv = key_pick = None
    key_slice = key_ips = key_exec = None
    if slice_instructions is not None:
        # The scalar loop closes a slice whenever *any* branch record (of
        # any kind) crosses the boundary, so the number of in-loop slices
        # is set by the last record's instruction index; the trailing
        # partial slice is kept only if it scored something (or the list
        # would otherwise be empty).
        n_closed = (
            int(trace.instr_indices[-1]) // slice_instructions if len(trace) else 0
        )
        if len(s_codes):
            s_slice = s_pos // slice_instructions
            keys = s_slice * width + inv
            if (int(s_slice[-1]) + 1) * width < (1 << 31):
                # int32 keys sort via radix inside np.unique.
                keys = keys.astype(np.int32)
            kuniq, kfirst, key_inv = np.unique(
                keys, return_index=True, return_inverse=True
            )
            key_inv = key_inv.astype(np.int32, copy=False).reshape(keys.shape)
            kexec = np.bincount(key_inv, minlength=len(kuniq))
            korder = np.argsort(kfirst, kind="stable")
            # First-appearance order across the whole stream is also
            # first-appearance order within each slice (positions are
            # nondecreasing), matching the scalar record() sequence.
            key_pick = korder
            kslice, kip = np.divmod(kuniq[korder].astype(np.int64), width)
            key_slice = kslice.tolist()
            key_ips = present_ips[kip].tolist()
            key_exec = kexec[korder].tolist()

    return _ScoringPlan(
        agg_ips=agg_ips,
        agg_exec=agg_exec,
        agg_pick=agg_pick,
        inv=inv,
        width=width,
        n_closed=n_closed,
        key_inv=key_inv,
        key_slice=key_slice,
        key_ips=key_ips,
        key_exec=key_exec,
        key_pick=key_pick,
    )


def _plan_for(
    trace: BranchTrace, w: int, slice_instructions: Optional[int]
) -> _ScoringPlan:
    cache = trace._plan_cache
    if cache is None:
        cache = trace._plan_cache = {}
    key: Tuple[int, Optional[int]] = (w, slice_instructions)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = _build_plan(trace, w, slice_instructions)
    return plan


def score_with_kernel(
    trace: BranchTrace,
    kernel: TraceKernel,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
    collect_introspection: bool = False,
) -> VectorizedScore:
    """Drive ``kernel`` over ``trace`` and score it like the scalar loop.

    ``collect_introspection`` additionally exposes the mispredicted
    branches' IPs and positions (``intro_mis_ips``/``intro_mis_pos``) —
    nearly free here, since the wrongness mask already exists — without
    changing the scored result.
    """
    return score_predictions(
        trace,
        run_kernel(trace, kernel),
        slice_instructions=slice_instructions,
        record_mispredict_positions=record_mispredict_positions,
        warmup_branches=warmup_branches,
        collect_introspection=collect_introspection,
    )


def run_kernel(trace: BranchTrace, kernel: TraceKernel) -> np.ndarray:
    """``kernel``'s predictions for the conditional branches of ``trace``."""
    ips_c, taken_c, _ = trace.conditional_columns()
    if getattr(kernel, "wants_trace", False):
        return kernel(ips_c, taken_c, trace)
    return kernel(ips_c, taken_c)


def score_predictions(
    trace: BranchTrace,
    preds: np.ndarray,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
    collect_introspection: bool = False,
) -> VectorizedScore:
    """Score a ready-made vector of per-conditional-branch predictions.

    The predictor-independent half of :func:`score_with_kernel`, and the
    one scorer behind every ``simulate_trace`` path: the numpy kernels, the
    batched multi-config replay (``repro.kernels.batched``) and the scalar
    loop all hand it one prediction vector per predictor.
    """
    if slice_instructions is not None and slice_instructions <= 0:
        raise ValueError("slice_instructions must be positive")
    ips_c, taken_c, pos_c = trace.conditional_columns()

    preds = np.asarray(preds, dtype=bool)
    if preds.shape != taken_c.shape:
        raise ValueError(
            f"kernel returned {preds.shape} predictions for "
            f"{taken_c.shape} conditional branches"
        )

    w = max(0, warmup_branches)
    s_wrong = preds[w:] != taken_c[w:]
    plan = _plan_for(trace, w, slice_instructions)

    stats = BranchStats()
    if plan.width:
        wrong = np.bincount(plan.inv[s_wrong], minlength=plan.width)
        wrong_by_ip = wrong[plan.agg_pick].tolist()
        record = stats.record_bulk
        for ip, ex, wr in zip(plan.agg_ips, plan.agg_exec, wrong_by_ip):
            record(ip, ex, wr)

    slice_list: Optional[List[BranchStats]] = None
    if slice_instructions is not None:
        slice_list = [BranchStats() for _ in range(plan.n_closed)]
        trailing = BranchStats()
        if plan.key_inv is not None:
            kwrong = np.bincount(
                plan.key_inv[s_wrong], minlength=len(plan.key_exec)
            )
            kwrong_ordered = kwrong[plan.key_pick].tolist()
            n_closed = plan.n_closed
            for sl, ip, ex, wr in zip(
                plan.key_slice, plan.key_ips, plan.key_exec, kwrong_ordered
            ):
                target = slice_list[sl] if sl < n_closed else trailing
                target.record_bulk(ip, ex, wr)
        if len(trailing) or plan.n_closed == 0:
            slice_list.append(trailing)

    mis_positions: Optional[np.ndarray] = None
    if record_mispredict_positions:
        mis_positions = pos_c[w:][s_wrong].astype(np.int64, copy=True)

    intro_mis_ips = intro_mis_pos = None
    if collect_introspection:
        intro_mis_ips = ips_c[w:][s_wrong]
        intro_mis_pos = pos_c[w:][s_wrong]

    return VectorizedScore(
        stats=stats,
        slice_stats=slice_list,
        mispredict_positions=mis_positions,
        cond_branches=int(len(ips_c)),
        intro_mis_ips=intro_mis_ips,
        intro_mis_pos=intro_mis_pos,
    )


# ---------------------------------------------------------------------------
# Per-trace memoized reconstructions
#
# Kernels for history predictors all start from the same raw materials —
# the trace's push-bit stream, its conditional positions, a signed-history
# window matrix — so these live on the same per-trace cache as the scoring
# plan.  The normal experiment shape (several predictors / presets replayed
# over one trace) pays each reconstruction once.


def plan_memo(trace: BranchTrace, key: Tuple, build: Callable[[], Any]) -> Any:
    """Memoize ``build()`` on ``trace._plan_cache`` under ``key``.

    Cached values are shared across predictors and must be treated as
    immutable by every consumer.
    """
    cache = trace._plan_cache
    if cache is None:
        cache = trace._plan_cache = {}
    val = cache.get(key)
    if val is None:
        val = cache[key] = build()
    return val


def cond_positions(trace: BranchTrace) -> np.ndarray:
    """Full-stream record index of each conditional branch (memoized)."""
    return plan_memo(
        trace,
        ("cond_positions",),
        lambda: np.flatnonzero(trace.conditional_mask),
    )


def stream_bits(trace: BranchTrace) -> np.ndarray:
    """The full-stream history push bits, as ``note_branch``-style
    predictors see them: conditional records push their outcome,
    every other kind pushes 1 (memoized, uint8)."""

    def build() -> np.ndarray:
        cond = trace.conditional_mask
        bits = np.ones(len(trace), dtype=np.uint8)
        np.copyto(bits, trace.taken != 0, where=cond)
        return bits

    return plan_memo(trace, ("stream_bits",), build)


def signed_history_matrix(
    trace: BranchTrace,
    h: int,
    init_signs: Tuple[int, ...],
    full_stream: bool = False,
) -> np.ndarray:
    """The rolling ±1 history matrix for dot-product predictors (memoized).

    Row ``i`` describes conditional branch ``i`` *before* it resolves:
    column 0 is the bias (+1), column ``j+1`` the sign of the ``j``-th
    newest history entry.  ``init_signs[j]`` seeds entries older than the
    trace (sign of the predictor's ``j``-th newest pre-trace entry; length
    ``h``).  With ``full_stream`` the history advances on *every* record —
    unconditional kinds contribute +1, matching ``note_branch`` pushes —
    instead of only on conditional outcomes.
    """
    init_signs = tuple(init_signs)
    if len(init_signs) != h:
        raise ValueError(f"init_signs must have length {h}")

    def build() -> np.ndarray:
        one, neg = np.int8(1), np.int8(-1)
        if full_stream:
            signs = np.where(
                trace.conditional_mask, np.where(trace.taken != 0, one, neg), one
            )
            pos = cond_positions(trace)
        else:
            signs = np.where(trace.conditional_columns()[1], one, neg)
            pos = np.arange(len(signs))
        # ext[p + h - a] is the sign ``a`` steps back from record ``p``;
        # the init block is oldest-first so a > p reads pre-trace signs.
        ext = np.concatenate([np.asarray(init_signs, dtype=np.int8)[::-1], signs])
        X = np.empty((len(pos), h + 1), dtype=np.int8)
        X[:, 0] = 1
        if h:
            offsets = (h - 1 - np.arange(h))[None, :]
            X[:, 1:] = ext[pos[:, None] + offsets]
        return X

    return plan_memo(trace, ("signed_hist", h, init_signs, bool(full_stream)), build)


def signed_history_lists(
    trace: BranchTrace,
    h: int,
    init_signs: Tuple[int, ...],
    full_stream: bool = False,
) -> List[List[int]]:
    """:func:`signed_history_matrix` decoded to plain lists (memoized).

    The sequential parts of the dot-product kernels walk the matrix row by
    row, where list indexing beats ndarray access; decoding is O(n·h), so
    replays of the same trace share one conversion.
    """
    init_signs = tuple(init_signs)
    return plan_memo(
        trace,
        ("signed_hist_list", h, init_signs, bool(full_stream)),
        lambda: signed_history_matrix(trace, h, init_signs, full_stream).tolist(),
    )
