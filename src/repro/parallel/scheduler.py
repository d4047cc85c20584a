"""Process-pool scheduler: dispatch :class:`SimJob`s, fold metrics back.

The scheduler owns a lazily created :class:`ProcessPoolExecutor` — pinned
to an explicit multiprocessing context (``fork`` where available,
``spawn`` otherwise) — that survives across batches (experiments running
under one Lab reuse the same warm workers).  Per batch it records the
``lab.parallel.*`` metrics — jobs dispatched/completed/failed, queue
wait, worker busy time, batch wall time, and worker utilization — and
merges each worker's own metric snapshot into the parent registry, so
``--metrics-out`` reports one coherent view of the whole run.

Failure policy (``docs/resilience.md``):

* **Deterministic job exceptions** fail fast: the job is logged, counted
  under ``lab.parallel.jobs.failed``, and dropped — the serial path
  recomputes it synchronously and surfaces the error in context.
* **Infrastructure faults** — a broken pool (worker crash/OOM-kill),
  a transient ``OSError``, or a per-job timeout — trigger a pool rebuild
  and an in-batch resubmit of every unfinished job, up to ``retries``
  attempts with exponential backoff (``lab.parallel.retries`` /
  ``lab.parallel.timeouts`` / ``lab.parallel.jobs.resubmitted``).
* When the retry budget is exhausted the scheduler **degrades to serial
  in-process execution** for the remaining jobs
  (``lab.parallel.serial_fallback``) — slower, but the batch still
  completes with bit-identical results.

Simulation is deterministic, so none of these paths can change outputs:
a recovered batch produces exactly the stats of a clean serial run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.obs import trace as obstrace
from repro.obs.logconfig import ROOT_LOGGER_NAME, is_configured
from repro.parallel.jobs import (
    SimJob,
    estimated_cost,
    run_job_inline,
    run_sim_job,
    worker_init,
)
from repro.resilience import faults

_log = obs.get_logger("parallel")

#: Default resubmit budget for infrastructure faults (env: REPRO_RETRIES).
DEFAULT_RETRIES = 2

#: Default backoff base in seconds (env: REPRO_RETRY_BACKOFF); attempt k
#: sleeps ``backoff * 2**(k-1)``.
DEFAULT_BACKOFF_S = 0.5


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count policy: explicit value, else ``$REPRO_JOBS``, else 1.

    Values <= 0 mean "all cores" (``os.cpu_count()``).
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _is_transient(exc: BaseException) -> bool:
    """Infrastructure faults worth a resubmit (vs. deterministic bugs)."""
    return isinstance(exc, (BrokenProcessPool, OSError))


@dataclass
class _AttemptOutcome:
    """What one pool pass over a job list produced."""

    failed: int = 0  # deterministic failures (dropped)
    busy_s: float = 0.0  # summed worker busy time
    broken: bool = False  # the pool must be torn down before reuse
    retry: List[SimJob] = field(default_factory=list)  # unfinished, retryable


class ParallelScheduler:
    """Fan :class:`SimJob`s out over a persistent worker pool."""

    def __init__(
        self,
        jobs: int,
        trace_store_dir: Optional[str] = None,
        *,
        retries: Optional[int] = None,
        backoff_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("scheduler needs at least one worker")
        self.jobs = jobs
        self.trace_store_dir = trace_store_dir
        if retries is None:
            retries = _env_int("REPRO_RETRIES")
        self.retries = DEFAULT_RETRIES if retries is None else max(0, retries)
        if backoff_s is None:
            backoff_s = _env_float("REPRO_RETRY_BACKOFF")
        self.backoff_s = DEFAULT_BACKOFF_S if backoff_s is None else max(0.0, backoff_s)
        if timeout_s is None:
            timeout_s = _env_float("REPRO_JOB_TIMEOUT")
        self.timeout_s = timeout_s if timeout_s and timeout_s > 0 else None
        if start_method is None:
            # The docs promise a fork-based pool (cheap worker startup,
            # inherited registries); platforms without fork (macOS default
            # since 3.8 is spawn, Windows always) fall back explicitly
            # instead of relying on the platform default.
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Workers mirror the parent's logging configuration (when the
            # parent configured any), metrics-enabled state, and any
            # programmatically installed fault plan.
            level_name = (
                logging.getLevelName(logging.getLogger(ROOT_LOGGER_NAME).level)
                if is_configured()
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=worker_init,
                initargs=(
                    obs.is_enabled(),
                    level_name,
                    self.trace_store_dir,
                    faults.active_spec(),
                ),
            )
        return self._pool

    # -- batch execution ---------------------------------------------------

    def run(
        self,
        jobs: List[SimJob],
        on_result: Callable[[SimJob, object], None],
    ) -> int:
        """Run one batch; invoke ``on_result(job, result)`` per success.

        Returns the number of jobs that failed *deterministically* (their
        cache entries stay empty; the serial path recomputes them and
        surfaces the error in context).  Infrastructure faults are retried
        per the scheduler's budget and, past it, executed serially
        in-process — see the module docstring.  Results are delivered in
        completion order — callers key their caches by job, so ordering
        never affects outputs.

        Jobs are submitted **longest-first** by estimated cost
        (instructions × predictor weight, :func:`estimated_cost`): a
        straggler TAGE-SC-L job dispatched last would otherwise run alone
        after every cheap kernel job has drained, capping the speedup at
        1x no matter how many workers are idle.  The sort is stable, so
        equal-cost jobs keep their plan order and scheduling stays
        deterministic.
        """
        if not jobs:
            return 0
        t_batch = monotonic()
        obs.counter("lab.parallel.batches")
        obs.counter("lab.parallel.jobs.dispatched", len(jobs))
        remaining = sorted(jobs, key=estimated_cost, reverse=True)
        obs.counter("lab.parallel.schedule.jobs", len(remaining))
        obs.counter(
            "lab.parallel.schedule.est_cost",
            int(sum(estimated_cost(j) for j in remaining)),
        )
        obs.gauge(
            "lab.parallel.schedule.est_cost_max",
            float(estimated_cost(remaining[0])),
        )
        failed = 0
        busy_s = 0.0
        attempt = 0
        while remaining:
            outcome = self._run_attempt(remaining, on_result)
            failed += outcome.failed
            busy_s += outcome.busy_s
            if outcome.broken:
                self._abort_pool()
            remaining = outcome.retry
            if not remaining:
                break
            if attempt >= self.retries:
                _log.warning(
                    "worker pool kept failing after %d attempt(s); degrading "
                    "to serial in-process execution for %d job(s)",
                    attempt + 1, len(remaining),
                )
                obs.counter("lab.parallel.serial_fallback", len(remaining))
                obstrace.instant_event(
                    "parallel.serial_fallback", args={"jobs": len(remaining)}
                )
                failed += self._run_serial(remaining, on_result)
                remaining = []
                break
            attempt += 1
            delay = self.backoff_s * (2 ** (attempt - 1))
            obs.counter("lab.parallel.retries")
            obs.counter("lab.parallel.jobs.resubmitted", len(remaining))
            obstrace.instant_event(
                "parallel.retry",
                args={"attempt": attempt, "jobs": len(remaining)},
            )
            _log.warning(
                "pool fault: resubmitting %d job(s), attempt %d/%d%s",
                len(remaining), attempt, self.retries,
                f" after {delay:.2f}s backoff" if delay else "",
            )
            if delay:
                sleep(delay)
        wall_s = monotonic() - t_batch
        obs.observe_timer("lab.parallel.batch", wall_s)
        if wall_s > 0:
            obs.gauge("lab.parallel.worker_utilization", busy_s / (self.jobs * wall_s))
        return failed

    def _run_attempt(
        self,
        jobs: List[SimJob],
        on_result: Callable[[SimJob, object], None],
    ) -> _AttemptOutcome:
        """One pool pass: submit everything, harvest until done/broken."""
        outcome = _AttemptOutcome()
        pool = self._ensure_pool()
        futures: Dict[Future, SimJob] = {}
        submit_t: Dict[Future, float] = {}
        for i, job in enumerate(jobs):
            fault = faults.next_worker_fault()
            # Stamped before submit(): a worker can pick the job up before
            # submit() returns, which would make its queue wait negative.
            t_submit = monotonic()
            try:
                fut = pool.submit(run_sim_job, job, fault)
            except (BrokenProcessPool, RuntimeError):
                # The pool died while we were still submitting; everything
                # not yet submitted is retryable as-is.
                outcome.broken = True
                outcome.retry.extend(jobs[i:])
                break
            futures[fut] = job
            submit_t[fut] = t_submit
        pending = set(futures)
        while pending:
            timeout = self._next_timeout(pending, submit_t)
            done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            for fut in done:
                job = futures[fut]
                try:
                    _job, result, report = fut.result()
                except Exception as exc:
                    if _is_transient(exc):
                        outcome.broken = outcome.broken or isinstance(
                            exc, BrokenProcessPool
                        )
                        outcome.retry.append(job)
                        _log.warning(
                            "parallel job %s hit an infrastructure fault "
                            "(%s: %s); it will be resubmitted",
                            job, type(exc).__name__, exc,
                        )
                    else:
                        outcome.failed += 1
                        obs.counter("lab.parallel.jobs.failed")
                        _log.warning(
                            "parallel job %s failed (%s: %s); the serial path "
                            "will recompute it and surface the error in context",
                            job, type(exc).__name__, exc,
                        )
                    continue
                outcome.busy_s += report.busy_s
                obs.observe_timer("lab.parallel.worker_busy", report.busy_s)
                self._record_queue_wait(report.t_start - submit_t[fut])
                if report.metrics:
                    obs.merge_snapshot(report.metrics)
                obs.counter("lab.parallel.jobs.completed")
                # Timeline lanes: one per worker pid, job + queue-wait
                # intervals reconstructed from the report's monotonic
                # timestamps (no-op fast path when tracing is off).
                job_args = {"workload": job.workload, "input": job.input_index,
                            "predictor": job.predictor}
                obstrace.worker_job_event(
                    f"{job.workload}/{job.predictor}",
                    report.pid, report.t_start, report.t_end, args=job_args,
                )
                obstrace.queue_wait_event(report.pid, submit_t[fut], report.t_start)
                on_result(job, result)
            if pending and self._expire_overdue(pending, submit_t, futures, outcome):
                break
        return outcome

    def _next_timeout(
        self, pending: set, submit_t: Dict[Future, float]
    ) -> Optional[float]:
        """Seconds until the earliest pending job's deadline (None = none)."""
        if self.timeout_s is None:
            return None
        earliest = min(submit_t[f] for f in pending)
        return max(0.0, earliest + self.timeout_s - monotonic())

    def _expire_overdue(
        self,
        pending: set,
        submit_t: Dict[Future, float],
        futures: Dict[Future, SimJob],
        outcome: _AttemptOutcome,
    ) -> bool:
        """Mark jobs past their deadline; a hung pool must be torn down.

        Returns True when the attempt should stop: every unfinished job
        (overdue or merely sharing the doomed pool) becomes retryable.
        """
        if self.timeout_s is None:
            return False
        now = monotonic()
        overdue = [f for f in pending if now - submit_t[f] >= self.timeout_s]
        if not overdue:
            return False
        for fut in overdue:
            obs.counter("lab.parallel.timeouts")
            obstrace.instant_event(
                "parallel.timeout", args={"job": str(futures[fut])}
            )
            _log.warning(
                "parallel job %s exceeded its %.1fs timeout; rebuilding the "
                "pool and resubmitting every unfinished job",
                futures[fut], self.timeout_s,
            )
        # A running future cannot be cancelled under ProcessPoolExecutor:
        # the only way to reclaim the worker is to tear the pool down.
        outcome.broken = True
        outcome.retry.extend(futures[f] for f in pending)
        return True

    def _record_queue_wait(self, delta_s: float) -> None:
        """Queue-wait bookkeeping; monotonic() is system-wide on Linux, but
        on platforms where parent and worker clocks are not comparable a
        negative delta is *counted* (``lab.parallel.clock_skew``) and
        excluded from the timer rather than recorded as a fake zero."""
        if delta_s < 0:
            obs.counter("lab.parallel.clock_skew")
            return
        obs.observe_timer("lab.parallel.queue_wait", delta_s)

    def _run_serial(
        self,
        jobs: List[SimJob],
        on_result: Callable[[SimJob, object], None],
    ) -> int:
        """Last-resort degradation: run jobs in-process, bit-identically."""
        failed = 0
        for job in jobs:
            t_job = monotonic()
            try:
                result = run_job_inline(job, self.trace_store_dir)
            except Exception as exc:
                failed += 1
                obs.counter("lab.parallel.jobs.failed")
                _log.warning(
                    "parallel job %s failed (%s: %s); the serial path will "
                    "recompute it and surface the error in context",
                    job, type(exc).__name__, exc,
                )
                continue
            obs.counter("lab.parallel.jobs.completed")
            obstrace.serial_job_event(
                f"{job.workload}/{job.predictor}",
                t_job,
                monotonic(),
                args={"workload": job.workload, "input": job.input_index,
                      "predictor": job.predictor},
            )
            on_result(job, result)
        return failed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent), waiting for workers.

        Waiting on the clean path is what guarantees no child process
        outlives the owning :class:`Lab`; the no-wait/cancel teardown is
        reserved for broken or hung pools (:meth:`_abort_pool`).

        Queued-but-unstarted futures are *cancelled* first: after a
        ``KeyboardInterrupt``/SIGTERM mid-``run`` the pool still holds the
        rest of the batch, and a plain waiting shutdown would silently
        execute all of it before returning — teardown must only wait for
        the jobs already on a worker, then join every child.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _abort_pool(self) -> None:
        """Tear down a broken/hung pool without waiting; kill stragglers.

        Cancels queued work and terminates any worker still alive (a hung
        worker never finishes its task, so a waiting shutdown would block
        forever), then joins them so no children are left behind.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        _log.warning("worker pool broke; recreating it for the next batch")
        obstrace.instant_event("parallel.pool_rebuild")
        procs = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
