"""The scoring spine against an independent per-branch reference.

Every ``simulate_trace`` path ends in :func:`score_predictions`, so path
equivalence alone cannot catch a scoring bug: all paths would share it.
:func:`reference_simulate` keeps the accounting the way a CBP-style
driver does it — one :meth:`BranchStats.record` per scored conditional
branch, slices closed as records cross each boundary — and the property
tests below hold the vectorized scorer to it on adversarial traces: mixed
branch kinds, warmup anywhere, slices with no conditional branch, trailing
partial slices and empty traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import BranchStats
from repro.core.types import BranchKind, BranchTrace
from repro.kernels import kernels_disabled, kernels_override
from repro.kernels.engine import score_predictions
from repro.obs import introspect
from repro.pipeline.simulator import simulate_trace, simulate_trace_batch
from repro.predictors.base import BranchPredictor
from repro.predictors.oracle import PerfectFilter
from repro.predictors.simple import GShare
from repro.predictors.tagescl import STORAGE_PRESETS_KIB, make_tage_sc_l


def reference_simulate(
    trace,
    predictor,
    slice_instructions=None,
    record_mispredict_positions=False,
    warmup_branches=0,
):
    """Drive ``predictor`` record by record and score each prediction.

    Returns ``(stats, slice_stats, mispredict_positions)`` with the same
    conventions as :class:`~repro.pipeline.simulator.SimulationResult`.
    """
    stats = BranchStats()
    slices = [] if slice_instructions is not None else None
    cur = BranchStats()
    boundary = slice_instructions if slice_instructions is not None else float("inf")
    positions = [] if record_mispredict_positions else None
    set_outcome = getattr(predictor, "set_outcome", None)
    seen = 0
    for rec in trace:
        # Any record, conditional or not, closes the slices it has passed.
        while rec.instr_index >= boundary:
            slices.append(cur)
            cur = BranchStats()
            boundary += slice_instructions
        if not rec.is_conditional:
            predictor.note_branch(rec.ip, rec.target, rec.kind, rec.taken)
            continue
        if set_outcome is not None:
            set_outcome(rec.taken)
        pred = predictor.predict(rec.ip)
        predictor.update(rec.ip, rec.taken)
        seen += 1
        if seen <= warmup_branches:
            continue
        correct = pred == rec.taken
        stats.record(rec.ip, correct)
        if slices is not None:
            cur.record(rec.ip, correct)
        if not correct and positions is not None:
            positions.append(rec.instr_index)
    # The trailing partial slice is kept if it scored anything, or if it
    # is the only slice.
    if slices is not None and (len(cur) or not slices):
        slices.append(cur)
    return stats, slices, positions


class Scripted(BranchPredictor):
    """Replays a fixed prediction per conditional branch."""

    name = "scripted"

    def __init__(self, preds):
        self._preds = iter(preds)

    def predict(self, ip):
        return next(self._preds)

    def update(self, ip, taken):
        pass

    def storage_bits(self):
        return 0


def stats_view(stats):
    """Contents *and* insertion order, plus the running totals."""
    return (
        [(ip, c.executions, c.mispredictions) for ip, c in stats.items()],
        stats.total_executions,
        stats.total_mispredictions,
    )


def assert_matches_reference(got_stats, got_slices, got_positions, want):
    want_stats, want_slices, want_positions = want
    assert stats_view(got_stats) == stats_view(want_stats)
    assert (got_slices is None) == (want_slices is None)
    if want_slices is not None:
        assert [stats_view(s) for s in got_slices] == [
            stats_view(s) for s in want_slices
        ]
    assert (got_positions is None) == (want_positions is None)
    if want_positions is not None:
        assert got_positions.dtype == np.int64
        assert got_positions.tolist() == want_positions


IPS = (0x40, 0x44, 0x48, 0x4C, 0x50)
# Conditional records dominate, as in real streams; every other kind shows up.
KINDS = (0, 0, 0, 0) + tuple(int(k) for k in BranchKind if k != BranchKind.CONDITIONAL)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 60))
    ips = draw(st.lists(st.sampled_from(IPS), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    taken = [
        t or k != int(BranchKind.CONDITIONAL)
        for t, k in zip(draw(st.lists(st.booleans(), min_size=n, max_size=n)), kinds)
    ]
    gaps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    positions = np.cumsum(gaps).tolist()
    tail = draw(st.integers(0, 30))
    instr_count = (positions[-1] + 1 if n else 0) + tail
    return BranchTrace(
        ips=ips,
        taken=taken,
        targets=[ip + 0x100 for ip in ips],
        kinds=kinds,
        instr_indices=positions,
        instr_count=instr_count,
    )


@st.composite
def scoring_cases(draw):
    """A trace, one prediction per conditional branch, and scoring options."""
    trace = draw(traces())
    n_cond = int(trace.conditional_mask.sum())
    preds = draw(st.lists(st.booleans(), min_size=n_cond, max_size=n_cond))
    slice_instructions = draw(st.one_of(st.none(), st.integers(1, 40)))
    # Warmup at 0, mid-trace, exactly at the end and past it.
    warmup = draw(st.integers(0, n_cond + 3))
    return trace, preds, slice_instructions, warmup


def check_scoring(trace, preds, slice_instructions, warmup):
    score = score_predictions(
        trace,
        np.asarray(preds, dtype=bool),
        slice_instructions=slice_instructions,
        record_mispredict_positions=True,
        warmup_branches=warmup,
    )
    want = reference_simulate(
        trace,
        Scripted(preds),
        slice_instructions=slice_instructions,
        record_mispredict_positions=True,
        warmup_branches=warmup,
    )
    assert_matches_reference(
        score.stats, score.slice_stats, score.mispredict_positions, want
    )
    assert score.cond_branches == len(preds)


class TestScorePredictions:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_per_branch_reference(self, case):
        check_scoring(*case)

    def test_empty_trace(self):
        trace = BranchTrace(ips=[], taken=[])
        check_scoring(trace, [], None, 0)
        check_scoring(trace, [], 5, 0)

    def test_slice_of_only_unconditional_records(self):
        # Slice 1 (instructions 10-19) holds a call and a return only.
        trace = BranchTrace(
            ips=[0x40, 0x80, 0x84, 0x40],
            taken=[True, True, True, False],
            kinds=[0, int(BranchKind.CALL), int(BranchKind.RETURN), 0],
            instr_indices=[3, 12, 17, 25],
        )
        check_scoring(trace, [True, True], 10, 0)

    def test_trailing_partial_slice(self):
        trace = BranchTrace(
            ips=[0x40, 0x44, 0x40], taken=[True, False, True],
            instr_indices=[0, 9, 23], instr_count=28,
        )
        check_scoring(trace, [False, False, True], 10, 0)
        # Warmup hides the partial slice's only branch: it is dropped.
        check_scoring(trace, [False, False, True], 10, 3)

    @pytest.mark.parametrize("warmup", [0, 2, 5, 50])
    def test_warmup_positions(self, warmup):
        trace = BranchTrace(
            ips=[0x40, 0x44] * 3, taken=[True, False] * 3,
            instr_indices=list(range(0, 60, 10)),
        )
        check_scoring(trace, [False] * 6, 15, warmup)


class TestScalarPathAgainstReference:
    """The scalar loop now only collects predictions; check end to end."""

    @staticmethod
    def _filter():
        return PerfectFilter(GShare(), predicate=lambda ip: ip % 8 == 0)

    @pytest.mark.parametrize("introspecting", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(case=scoring_cases())
    def test_set_outcome_predictor(self, introspecting, case):
        trace, _, slice_instructions, warmup = case
        kwargs = dict(
            slice_instructions=slice_instructions,
            record_mispredict_positions=True,
            warmup_branches=warmup,
        )
        saved = introspect._ENABLED
        introspect.reset_introspection()
        introspect._ENABLED = introspecting
        try:
            with kernels_disabled():
                got = simulate_trace(trace, self._filter(), **kwargs)
            reports = introspect.reports()
        finally:
            introspect._ENABLED = saved
            introspect.reset_introspection()
        want = reference_simulate(trace, self._filter(), **kwargs)
        assert_matches_reference(
            got.stats, got.slice_stats, got.mispredict_positions, want
        )
        if introspecting:
            (report,) = reports
            assert report["path"] == "scalar"
            assert report["cond_branches"] == want[0].total_executions
            assert report["mispredictions"] == want[0].total_mispredictions
        else:
            assert reports == []


class TestPerPredictorTimer:
    """``sim.predictor.<name>`` is a measurement, never a share of one."""

    @staticmethod
    def _trace():
        rng = np.random.default_rng(3)
        n = 400
        return BranchTrace(
            ips=rng.choice(np.array(IPS), n).tolist(),
            taken=(rng.random(n) < 0.6).tolist(),
            instr_indices=np.arange(0, 3 * n, 3).tolist(),
        )

    @staticmethod
    def _predictor_timers(registry):
        return sorted(
            name for name in registry.timers_dict() if name.startswith("sim.predictor.")
        )

    def test_multi_config_batch_records_no_member_timer(self, obs_enabled):
        presets = [make_tage_sc_l(k) for k in STORAGE_PRESETS_KIB]
        assert len(presets) == 6
        with kernels_override(True):
            simulate_trace_batch(self._trace(), presets)
        assert self._predictor_timers(obs_enabled) == []
        assert obs_enabled.timers_dict()["sim.trace"]["calls"] == 1
        assert obs_enabled.counters_dict()["kernels.batched"] > 0

    @pytest.mark.parametrize("kernels", [True, False])
    def test_single_call_records_one_timer(self, obs_enabled, kernels):
        with kernels_override(kernels):
            simulate_trace(self._trace(), make_tage_sc_l(8))
        assert self._predictor_timers(obs_enabled) == ["sim.predictor.tage-sc-l-8kb"]
        assert obs_enabled.timers_dict()["sim.predictor.tage-sc-l-8kb"]["calls"] == 1
