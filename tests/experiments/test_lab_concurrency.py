"""Lab under concurrency: per-key single-flight, LRU cache bounds and
eviction counters, and context-local experiment labels."""

import threading

from repro.config import ExperimentTier
from repro.experiments import lab as lab_module
from repro.experiments.lab import Lab

TIER = ExperimentTier(name="labcc", spec_inputs=1, spec_slices=1, lcf_slices=1)
INSTR = 20_000
SLICE = 10_000


def _stats_tuple(result):
    return (
        result.instr_count,
        sorted((ip, c.executions, c.mispredictions) for ip, c in result.stats.items()),
    )


class TestSingleFlight:
    def test_concurrent_same_key_computes_once(self, monkeypatch):
        lab = Lab(tier=TIER, jobs=1)
        calls = []
        real = lab_module.simulate_trace

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace", counting)
        workers = 6
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def worker(slot):
            barrier.wait()
            results[slot] = lab.simulate(
                "game", 0, "tage-sc-l-8kb",
                instructions=INSTR, slice_instructions=SLICE,
            )

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        # Followers join the leader's flight and read its published result.
        assert all(r is results[0] for r in results)

    def test_concurrent_distinct_keys_all_resolve(self):
        lab = Lab(tier=TIER, jobs=1)
        predictors = ["bimodal", "gshare", "two-level-local", "tage-sc-l-8kb"]
        results = {}
        barrier = threading.Barrier(len(predictors))

        def worker(predictor):
            barrier.wait()
            results[predictor] = lab.simulate(
                "game", 0, predictor, instructions=INSTR, slice_instructions=SLICE
            )

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in predictors
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for predictor in predictors:
            assert results[predictor].predictor_name == predictor

    def test_failed_leader_releases_followers(self, monkeypatch):
        """A leader that raises must wake waiters, and a waiter must retry
        (becoming the new leader) instead of hanging or caching the error."""
        lab = Lab(tier=TIER, jobs=1)
        real = lab_module.simulate_trace
        calls = []
        fail_first = threading.Event()

        def flaky(*args, **kwargs):
            calls.append(1)
            if not fail_first.is_set():
                fail_first.set()
                raise RuntimeError("injected leader failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace", flaky)
        outcomes = []
        started = threading.Barrier(2)

        def worker():
            started.wait()
            try:
                outcomes.append(
                    lab.simulate(
                        "game", 0, "bimodal",
                        instructions=INSTR, slice_instructions=SLICE,
                    )
                )
            except RuntimeError:
                outcomes.append(None)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        successes = [o for o in outcomes if o is not None]
        assert successes, "no caller recovered after the injected failure"
        assert successes[0].predictor_name == "bimodal"


class TestLruBounds:
    def test_trace_cache_bounded_with_eviction_counter(
        self, monkeypatch, obs_enabled
    ):
        monkeypatch.setenv("REPRO_LAB_TRACE_CACHE", "2")
        lab = Lab(tier=TIER, jobs=1)
        for extra in range(3):
            lab.trace("game", 0, 10_000 + extra * 1_000)
        assert len(lab._traces) == 2
        counters = obs_enabled.counters_dict()
        assert counters.get("lab.mem.evicted", 0) >= 1
        assert counters.get("lab.mem.evicted.traces", 0) >= 1

    def test_results_identical_after_eviction(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAB_SIM_CACHE", "1")
        lab = Lab(tier=TIER, jobs=1)
        first = lab.simulate(
            "game", 0, "bimodal", instructions=INSTR, slice_instructions=SLICE
        )
        lab.simulate(
            "game", 0, "gshare", instructions=INSTR, slice_instructions=SLICE
        )
        # bimodal was evicted; the recompute must be bit-identical.
        again = lab.simulate(
            "game", 0, "bimodal", instructions=INSTR, slice_instructions=SLICE
        )
        assert again is not first
        assert _stats_tuple(again) == _stats_tuple(first)

    def test_nonpositive_cap_means_unbounded(self, monkeypatch, obs_enabled):
        monkeypatch.setenv("REPRO_LAB_TRACE_CACHE", "0")
        lab = Lab(tier=TIER, jobs=1)
        for extra in range(4):
            lab.trace("game", 0, 10_000 + extra * 1_000)
        assert len(lab._traces) == 4
        assert obs_enabled.counters_dict().get("lab.mem.evicted", 0) == 0


class TestExperimentLabels:
    def test_labels_are_context_local(self):
        """Two threads inside different experiment() blocks each see their
        own label — the old shared-attribute bug bled labels across
        concurrent requests."""
        lab = Lab(tier=TIER, jobs=1)
        barrier = threading.Barrier(2)
        seen = {}

        def worker(name):
            with lab.experiment(name):
                barrier.wait()  # both threads are inside their blocks now
                seen[name] = Lab.current_experiment()

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"a": "a", "b": "b"}
        assert Lab.current_experiment() is None

    def test_nested_blocks_restore(self):
        lab = Lab(tier=TIER, jobs=1)
        with lab.experiment("outer"):
            with lab.experiment("inner"):
                assert Lab.current_experiment() == "inner"
            assert Lab.current_experiment() == "outer"
        assert Lab.current_experiment() is None
