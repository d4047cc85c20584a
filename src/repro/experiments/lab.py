"""The measurement lab: shared trace generation and cached simulation.

Every table/figure driver pulls its data through a :class:`Lab`, which
memoizes (and optionally disk-caches) the expensive steps — executing
synthetic workloads and driving predictors over their traces — so that
experiments sharing a (workload, input, predictor) combination pay for it
once.  Results are keyed by workload name, input index, trace length, and
predictor label; bump :data:`CACHE_VERSION` after changing anything that
affects simulation outcomes.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import pickle
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs
from repro.obs import introspect
from repro.core.metrics import BranchStats
from repro.core.types import WorkloadTrace
from repro.experiments.config import (
    SLICE_INSTRUCTIONS,
    ExperimentTier,
    active_tier,
)
from repro.parallel.jobs import BatchSimJob, SimJob
from repro.parallel.scheduler import ParallelScheduler, resolve_jobs
from repro.pipeline.simulator import (
    SimulationResult,
    simulate_trace,
    simulate_trace_batch,
)
from repro.predictors.base import BranchPredictor
from repro.predictors.gehl import OGehl
from repro.predictors.perceptron import PathPerceptron, Perceptron
from repro.predictors.simple import Bimodal, GShare, TwoLevelLocal
from repro.predictors.tagescl import STORAGE_PRESETS_KIB, make_tage_sc_l
from repro.resilience import faults
from repro.resilience.manifest import ResumeManifest
from repro.resilience.quarantine import quarantine_file
from repro.phases import cluster_phases, prepare_bbvs
from repro.workloads import (
    WORKLOADS_BY_NAME,
    WorkloadSpec,
    execute_workload,
    trace_workload,
)
from repro.workloads.helper_study import HELPER_STUDY_WORKLOAD
from repro.workloads.trace_store import TraceStore

#: A prefetch request: a full :class:`SimJob`, a multi-config
#: :class:`BatchSimJob`, or a (workload, input_index, predictor[,
#: instructions[, slice_instructions]]) tuple.
SimRequest = Union[SimJob, BatchSimJob, Tuple]

#: Bump to invalidate on-disk caches after behavioural changes.
#: (v4: payloads are now self-describing ``{"cache_version", "result"}``
#: dicts so stale/corrupt files are detected instead of silently trusted.
#: v5: injective cache filenames — the old ``replace("/", "_")`` scheme
#: aliased distinct keys like ``a/b`` and ``a_b`` onto one file; names now
#: carry a digest of the raw key.)
CACHE_VERSION = 5


def _slug(part: str) -> str:
    """Filesystem-safe (but non-injective) rendering of one key part."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", part)

_log = obs.get_logger("lab")

#: The experiment label for checkpoint-manifest records.  A context
#: variable — not Lab instance state — so concurrent daemon requests
#: (threads, asyncio tasks) each see their own label instead of
#: mislabeling each other's records and spans.
_CURRENT_EXPERIMENT: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_lab_experiment", default=None
)


def _env_cap(name: str, default: int) -> int:
    """Positive cache bound from the environment (<= 0 disables the bound)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


#: Default in-memory cache bounds.  Generous — a full quick-tier run of
#: every experiment fits — but finite, so a long-lived service process
#: does not grow without limit.  Override with the environment variables
#: of the same names; values <= 0 disable the bound entirely.
DEFAULT_TRACE_CACHE_CAP = 64      # REPRO_LAB_TRACE_CACHE (traces are large)
DEFAULT_SIM_CACHE_CAP = 4096      # REPRO_LAB_SIM_CACHE

_V = TypeVar("_V")


class _LruCache(Dict[Tuple, _V]):
    """An insertion/access-ordered bounded dict (LRU-evicting).

    Lookups through :meth:`get` refresh recency; inserting past ``cap``
    evicts the least recently used entry and counts it under
    ``lab.mem.evicted`` (plus a per-kind child counter).  A ``cap <= 0``
    means unbounded.  Not itself locked — the owning :class:`Lab`
    serializes access.
    """

    def __init__(self, cap: int, kind: str) -> None:
        super().__init__()
        self.cap = cap
        self.kind = kind
        self._order: "OrderedDict[Tuple, None]" = OrderedDict()

    def get(self, key: Tuple, default: Optional[_V] = None) -> Optional[_V]:
        value = super().get(key, default)
        if key in self._order:
            self._order.move_to_end(key)
        return value

    def __setitem__(self, key: Tuple, value: _V) -> None:
        super().__setitem__(key, value)
        self._order[key] = None
        self._order.move_to_end(key)
        if self.cap > 0:
            while len(self._order) > self.cap:
                oldest, _ = self._order.popitem(last=False)
                super().__delitem__(oldest)
                obs.counter("lab.mem.evicted")
                obs.counter(f"lab.mem.evicted.{self.kind}")

    def __delitem__(self, key: Tuple) -> None:
        super().__delitem__(key)
        self._order.pop(key, None)

#: Predictor registry: label -> factory.
PREDICTOR_FACTORIES: Dict[str, Callable[[], BranchPredictor]] = {
    f"tage-sc-l-{kib}kb": (lambda kib=kib: make_tage_sc_l(kib))
    for kib in STORAGE_PRESETS_KIB
}
# Kernel-bearing baselines (default configurations), so experiments and
# benchmarks can request them by label like the TAGE-SC-L presets.
PREDICTOR_FACTORIES["bimodal"] = Bimodal
PREDICTOR_FACTORIES["gshare"] = GShare
PREDICTOR_FACTORIES["two-level-local"] = TwoLevelLocal
# The dot-product family (numpy replay kernels), for benchmarks and
# ad-hoc comparisons against the tabular baselines.
PREDICTOR_FACTORIES["perceptron"] = Perceptron
PREDICTOR_FACTORIES["path-perceptron"] = PathPerceptron
PREDICTOR_FACTORIES["o-gehl"] = OGehl


def workload_spec(name: str) -> WorkloadSpec:
    """Resolve a workload name through the registries (raises KeyError)."""
    if name == HELPER_STUDY_WORKLOAD.name:
        return HELPER_STUDY_WORKLOAD
    try:
        return WORKLOADS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}") from None


class Lab:
    """Caching façade over workload execution and predictor simulation.

    With ``jobs > 1`` (or ``$REPRO_JOBS``), :meth:`prefetch` fans batches
    of simulations out across worker processes; ``jobs == 1`` (the
    default) keeps the exact serial behavior.  Labs sharing a
    ``cache_dir`` — including concurrent processes — coexist safely: disk
    writes are atomic (tempfile + rename) and corrupt or stale entries
    are ignored and recomputed.

    One Lab is also safe to share across *threads* (the ``repro.service``
    daemon keeps a single long-lived instance warm): the in-memory caches
    are lock-guarded and every expensive computation runs under a per-key
    single-flight, so concurrent requests for the same key compute it
    exactly once (the rest wait, counted by ``lab.singleflight.wait``).
    The caches are LRU-bounded (``REPRO_LAB_TRACE_CACHE`` /
    ``REPRO_LAB_SIM_CACHE``; evictions count under ``lab.mem.evicted``) so
    a long-lived process does not grow without limit.  Serial behavior is
    bit-identical to previous releases.
    """

    def __init__(
        self,
        tier: Optional[ExperimentTier] = None,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        resume: Optional[bool] = None,
    ) -> None:
        self.tier = tier or active_tier()
        env_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir is None and env_dir:
            cache_dir = env_dir
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Generated traces share the cache directory with simulation
        # results; the store's filenames are content-addressed, so the two
        # kinds of entry coexist.
        self.trace_store = TraceStore(self.cache_dir) if self.cache_dir else None
        self.jobs = resolve_jobs(jobs)
        self._scheduler: Optional[ParallelScheduler] = None
        # In-memory caches: LRU-bounded (a long-lived daemon must not grow
        # without limit) and guarded by one reentrant lock.  Expensive work
        # happens outside the lock under a per-key single-flight, so two
        # concurrent requests for the same key compute it exactly once.
        self._lock = threading.RLock()
        self._inflight: Dict[Tuple, threading.Event] = {}
        self._traces: _LruCache[WorkloadTrace] = _LruCache(
            _env_cap("REPRO_LAB_TRACE_CACHE", DEFAULT_TRACE_CACHE_CAP), "traces"
        )
        self._sims: _LruCache[SimulationResult] = _LruCache(
            _env_cap("REPRO_LAB_SIM_CACHE", DEFAULT_SIM_CACHE_CAP), "sims"
        )
        self._phase_counts: _LruCache[int] = _LruCache(
            _env_cap("REPRO_LAB_SIM_CACHE", DEFAULT_SIM_CACHE_CAP), "phases"
        )
        # Checkpoint/resume: completed requests are recorded in an
        # append-only manifest so an interrupted sweep restarted with
        # --resume re-dispatches only the missing work.
        if resume is None:
            resume = os.environ.get("REPRO_RESUME", "") not in ("", "0", "false")
        self.manifest: Optional[ResumeManifest] = None
        if resume:
            if self.cache_dir is None:
                _log.warning(
                    "resume requested without a cache directory; ignoring "
                    "(set --cache-dir or REPRO_CACHE_DIR)"
                )
            else:
                self.manifest = ResumeManifest(
                    ResumeManifest.default_path(self.cache_dir), CACHE_VERSION
                )
                self.manifest.load()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool and manifest, if open (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
        if self.manifest is not None:
            self.manifest.close()

    @contextlib.contextmanager
    def experiment(self, name: Optional[str]) -> Iterator[None]:
        """Label checkpoint records made inside the block with ``name``.

        The label lives in a :mod:`contextvars` variable, not instance
        state, so concurrent requests (daemon threads / asyncio tasks)
        each carry their own label instead of overwriting a shared field.
        """
        token = _CURRENT_EXPERIMENT.set(name)
        try:
            yield
        finally:
            _CURRENT_EXPERIMENT.reset(token)

    @staticmethod
    def current_experiment() -> Optional[str]:
        """The experiment label active in this context (or ``None``)."""
        return _CURRENT_EXPERIMENT.get()

    def __enter__(self) -> "Lab":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- single-flight -----------------------------------------------------

    def _join_flight(self, flight_key: Tuple) -> Optional[threading.Event]:
        """Become the leader for ``flight_key`` (returns ``None``) or get
        the current leader's completion event to wait on.

        Callers must hold :attr:`_lock`.  The leader computes the value,
        publishes it to the cache, and calls :meth:`_leave_flight`;
        followers wait, then re-check the cache (looping, since a failed
        leader publishes nothing and a follower takes over)."""
        event = self._inflight.get(flight_key)
        if event is None:
            self._inflight[flight_key] = threading.Event()
            return None
        return event

    def _leave_flight(self, flight_key: Tuple) -> None:
        """Release leadership of ``flight_key`` and wake every follower."""
        with self._lock:
            event = self._inflight.pop(flight_key, None)
        if event is not None:
            event.set()

    # -- trace access ------------------------------------------------------

    def instructions_for(self, name: str) -> int:
        """Trace length for a workload under the active tier."""
        spec = workload_spec(name)
        if spec.category == "specint":
            return self.tier.spec_instructions
        if spec.category == "lcf":
            return self.tier.lcf_instructions
        return spec.default_instructions

    def inputs_for(self, name: str) -> List[int]:
        """Input indices to use under the active tier."""
        spec = workload_spec(name)
        if spec.category == "specint":
            return list(range(min(self.tier.spec_inputs, spec.num_inputs)))
        return list(range(spec.num_inputs))

    def trace(
        self, name: str, input_index: int, instructions: Optional[int] = None
    ) -> WorkloadTrace:
        n = instructions if instructions is not None else self.instructions_for(name)
        key = (name, input_index, n)
        flight_key = ("trace", *key)
        while True:
            with self._lock:
                cached = self._traces.get(key)
                if cached is not None:
                    obs.counter("lab.trace.cache_hit")
                    return cached
                event = self._join_flight(flight_key)
            if event is None:
                break
            obs.counter("lab.singleflight.wait")
            event.wait()
        try:
            spec = workload_spec(name)
            stored = (
                self.trace_store.load(name, input_index, n)
                if self.trace_store is not None
                else None
            )
            if stored is not None:
                _log.info(
                    "loaded trace %s/input%d (%d instructions) from trace store",
                    name, input_index, n,
                )
                # The program is rebuilt (cheap, no execution) so consumers
                # of ``metadata["program"]`` — e.g. the CNN study's static
                # analysis — work identically on store hits.
                cached = WorkloadTrace(
                    benchmark=spec.name,
                    input_name=spec.input_name(input_index),
                    trace=stored,
                    metadata={
                        "program": spec.build(input_index),
                        "instructions": n,
                        "from_trace_store": True,
                    },
                )
            else:
                obs.counter("lab.trace.build")
                _log.info(
                    "generating trace %s/input%d (%d instructions)", name, input_index, n
                )
                with obs.timer(
                    "lab.trace.generate", extra=(f"lab.trace.generate.{name}",)
                ):
                    cached = trace_workload(spec, input_index, instructions=n)
                if self.trace_store is not None:
                    self.trace_store.store(name, input_index, n, cached.trace)
            with self._lock:
                self._traces[key] = cached
        finally:
            self._leave_flight(flight_key)
        return cached

    # -- simulation --------------------------------------------------------

    def simulate(
        self,
        name: str,
        input_index: int,
        predictor: str = "tage-sc-l-8kb",
        instructions: Optional[int] = None,
        slice_instructions: int = SLICE_INSTRUCTIONS,
    ) -> SimulationResult:
        """Simulate one predictor over one workload input, cached."""
        if predictor not in PREDICTOR_FACTORIES:
            raise KeyError(
                f"unknown predictor {predictor!r}; register a factory in "
                "PREDICTOR_FACTORIES"
            )
        n = instructions if instructions is not None else self.instructions_for(name)
        key = (name, input_index, n, predictor, slice_instructions)
        flight_key = ("sim", *key)
        while True:
            with self._lock:
                cached = self._sims.get(key)
                if cached is not None:
                    obs.counter("lab.sim.cache_hit.memory")
                    return cached
                event = self._join_flight(flight_key)
            if event is None:
                break
            obs.counter("lab.singleflight.wait")
            event.wait()
        try:
            disk = self._disk_path(key)
            if disk is not None and disk.exists():
                cached = self._load_disk(disk)
                if cached is not None:
                    obs.counter("lab.sim.cache_hit.disk")
                    _log.debug("disk cache hit: %s", disk)
                    with self._lock:
                        self._sims[key] = cached
                    self._mark_complete(key)
                    return cached

            obs.counter("lab.sim.cache_miss")
            _log.info(
                "simulating %s/input%d with %s (%d instructions)",
                name, input_index, predictor, n,
            )
            with obs.span(
                "lab.simulate", workload=name, input=input_index, predictor=predictor
            ):
                trace = self.trace(name, input_index, n)
                if introspect.is_enabled():
                    # Label the simulation's introspection report; note that
                    # cache hits above never reach this point, so reports only
                    # exist for actually-simulated (workload, input) pairs.
                    introspect.set_context(workload=name, input_name=input_index)
                result = simulate_trace(
                    trace.trace,
                    PREDICTOR_FACTORIES[predictor](),
                    slice_instructions=slice_instructions,
                )
            with self._lock:
                self._sims[key] = result
            if disk is not None and self._store_disk(disk, result):
                self._mark_complete(key)
        finally:
            self._leave_flight(flight_key)
        return result

    def simulate_batch(
        self,
        name: str,
        input_index: int,
        predictors: Sequence[str],
        instructions: Optional[int] = None,
        slice_instructions: int = SLICE_INSTRUCTIONS,
    ) -> List[SimulationResult]:
        """Simulate several predictors over one workload input, cached.

        Cache misses are replayed together by
        :func:`~repro.pipeline.simulator.simulate_trace_batch`, which
        shares the trace pass (and, for the TAGE-SC-L family, the folded
        history index streams) across configurations.  Every result lands
        in the memory/disk caches under the same per-predictor key
        :meth:`simulate` uses, so subsequent serial lookups are hits.
        Results come back in ``predictors`` order, bit-identical to what
        per-predictor :meth:`simulate` calls would have produced.
        """
        for predictor in predictors:
            if predictor not in PREDICTOR_FACTORIES:
                raise KeyError(
                    f"unknown predictor {predictor!r}; register a factory in "
                    "PREDICTOR_FACTORIES"
                )
        n = instructions if instructions is not None else self.instructions_for(name)
        keys = [
            (name, input_index, n, predictor, slice_instructions)
            for predictor in predictors
        ]
        resolved: Dict[Tuple, SimulationResult] = {}
        missing: List[Tuple[str, Tuple]] = []   # keys this call leads
        deferred: List[Tuple[str, Tuple]] = []  # keys another caller leads
        led: set = set()  # flights this call still owns (released in finally)
        try:
            for predictor, key in zip(predictors, keys):
                with self._lock:
                    cached = self._sims.get(key)
                    if cached is not None:
                        obs.counter("lab.sim.cache_hit.memory")
                        resolved[key] = cached
                        continue
                    if self._join_flight(("sim", *key)) is not None:
                        # Another request is already computing this key —
                        # don't redo it here; wait for it at the end.
                        deferred.append((predictor, key))
                        continue
                    led.add(key)
                disk = self._disk_path(key)
                if disk is not None and disk.exists():
                    cached = self._load_disk(disk)
                    if cached is not None:
                        obs.counter("lab.sim.cache_hit.disk")
                        with self._lock:
                            self._sims[key] = cached
                        resolved[key] = cached
                        self._mark_complete(key)
                        led.discard(key)
                        self._leave_flight(("sim", *key))
                        continue
                obs.counter("lab.sim.cache_miss")
                missing.append((predictor, key))
            if missing:
                _log.info(
                    "batch-simulating %s/input%d with %d predictor(s) "
                    "(%d instructions)",
                    name, input_index, len(missing), n,
                )
                with obs.span(
                    "lab.simulate_batch",
                    workload=name,
                    input=input_index,
                    predictors=len(missing),
                ):
                    trace = self.trace(name, input_index, n)
                    if introspect.is_enabled():
                        introspect.set_context(workload=name, input_name=input_index)
                    results = simulate_trace_batch(
                        trace.trace,
                        [PREDICTOR_FACTORIES[p]() for p, _ in missing],
                        slice_instructions=slice_instructions,
                    )
                for (_, key), result in zip(missing, results):
                    with self._lock:
                        self._sims[key] = result
                    resolved[key] = result
                    disk = self._disk_path(key)
                    if disk is not None and self._store_disk(disk, result):
                        self._mark_complete(key)
        finally:
            for key in led:
                self._leave_flight(("sim", *key))
        for predictor, key in deferred:
            resolved[key] = self.simulate(
                name, input_index, predictor,
                instructions=n, slice_instructions=slice_instructions,
            )
        return [resolved[key] for key in keys]

    # -- phase analysis ----------------------------------------------------

    def phase_count(
        self,
        name: str,
        input_index: int,
        instructions: Optional[int] = None,
        bbv_interval: int = SLICE_INSTRUCTIONS,
    ) -> int:
        """Number of execution phases (SimPoint-style BBV clustering).

        Deterministic in ``(workload, input, instructions, bbv_interval)``,
        so the result is cached in memory and — with a ``cache_dir`` — on
        disk, sparing the warm path a full interpreter execution (Table I's
        phases column is otherwise its only remaining execution).
        """
        n = instructions if instructions is not None else self.instructions_for(name)
        key = (name, input_index, n, bbv_interval)
        flight_key = ("phases", *key)
        while True:
            with self._lock:
                cached = self._phase_counts.get(key)
                if cached is not None:
                    obs.counter("lab.phases.cache_hit.memory")
                    return cached
                event = self._join_flight(flight_key)
            if event is None:
                break
            obs.counter("lab.singleflight.wait")
            event.wait()
        try:
            disk: Optional[Path] = None
            if self.cache_dir is not None:
                disk = self.cache_dir / self._cache_filename("phases", key)
                if disk.exists():
                    loaded = self._load_disk(disk, want=int)
                    if loaded is not None:
                        obs.counter("lab.phases.cache_hit.disk")
                        with self._lock:
                            self._phase_counts[key] = loaded
                        return loaded
            obs.counter("lab.phases.cache_miss")
            _log.info(
                "clustering phases for %s/input%d (%d instructions)",
                name, input_index, n,
            )
            result = execute_workload(
                workload_spec(name), input_index, instructions=n,
                bbv_interval=bbv_interval,
            )
            if result.bbvs is None or len(result.bbvs) < 2:
                count = 1
            else:
                vectors = prepare_bbvs(result.bbvs)
                count = cluster_phases(vectors, max_k=min(10, len(vectors))).num_phases
            with self._lock:
                self._phase_counts[key] = count
            if disk is not None:
                self._store_disk(disk, count)
        finally:
            self._leave_flight(flight_key)
        return count

    # -- parallel fan-out --------------------------------------------------

    def prefetch(self, requests: Iterable[SimRequest]) -> int:
        """Plan a batch of simulations and fan the misses out over workers.

        ``requests`` are :class:`SimJob`s or (workload, input_index,
        predictor[, instructions[, slice_instructions]]) tuples; omitted
        sizes default per the active tier, exactly like :meth:`simulate`.
        Duplicate requests and requests already satisfied by the in-memory
        or disk cache are planned away; the rest run on the process pool
        and land in both caches, so the subsequent serial
        :meth:`simulate` calls are cache hits.  Returns the number of jobs
        dispatched.

        With ``jobs == 1`` this returns immediately (exact serial
        behavior, metric-for-metric).  Worker failures are logged and
        dropped; the serial path recomputes those keys synchronously.
        """
        if self.jobs <= 1:
            return 0
        requested = 0
        batch: List[Union[SimJob, BatchSimJob]] = []
        seen = set()
        for request in requests:
            requested += 1
            job = self._normalize_request(request)
            if job.key() in seen:
                continue
            seen.add(job.key())
            batch.append(job)
        obs.counter("lab.parallel.jobs.requested", requested)
        todo: List[Union[SimJob, BatchSimJob]] = []
        planned = 0
        for job in batch:
            if isinstance(job, BatchSimJob):
                # Batch jobs are planned per member key; a partially cached
                # batch is narrowed to its missing predictors before
                # dispatch, so workers never redo cached configurations.
                missing = []
                for predictor, key in zip(job.predictors, job.sim_keys()):
                    if self._plan_one(key):
                        continue
                    missing.append(predictor)
                if not missing:
                    planned += 1
                    continue
                if len(missing) < len(job.predictors):
                    job = BatchSimJob(
                        job.workload, job.input_index, job.instructions,
                        tuple(missing), job.slice_instructions,
                    )
                todo.append(job)
                continue
            if self._plan_one(job.key()):
                planned += 1
                continue
            todo.append(job)
        obs.counter("lab.parallel.jobs.cache_planned", planned)
        if not todo:
            return 0
        _log.info(
            "prefetch: %d requests -> %d jobs (%d cache-planned) on %d workers",
            requested, len(todo), planned, self.jobs,
        )
        if self._scheduler is None:
            self._scheduler = ParallelScheduler(
                self.jobs,
                trace_store_dir=str(self.cache_dir) if self.cache_dir else None,
            )
        with obs.span("lab.prefetch", jobs=len(todo), workers=self.jobs):
            self._scheduler.run(todo, self._store_job_result)
        return len(todo)

    def _plan_one(self, key: Tuple) -> bool:
        """True when one cache key needs no dispatch (memory/manifest/disk).

        The manifest check is advisory: a checkpointed entry is planned
        away without even touching the disk file — if it is gone or
        corrupt, the serial render path recomputes it, so results stay
        bit-identical.
        """
        with self._lock:
            if key in self._sims:
                return True
        if self.manifest is not None and key in self.manifest:
            obs.counter("lab.resume.planned")
            return True
        disk = self._disk_path(key)
        if disk is not None and disk.exists():
            cached = self._load_disk(disk)
            if cached is not None:
                obs.counter("lab.sim.cache_hit.disk")
                with self._lock:
                    self._sims[key] = cached
                return True
        return False

    def _store_job_result(
        self, job: Union[SimJob, BatchSimJob], result
    ) -> None:
        if isinstance(job, BatchSimJob):
            for key, member in zip(job.sim_keys(), result):
                with self._lock:
                    self._sims[key] = member
                disk = self._disk_path(key)
                if disk is not None and self._store_disk(disk, member):
                    self._mark_complete(key)
            return
        key = job.key()
        with self._lock:
            self._sims[key] = result
        disk = self._disk_path(key)
        if disk is not None and self._store_disk(disk, result):
            self._mark_complete(key)

    def _mark_complete(self, key: Tuple) -> None:
        """Checkpoint one durably published request (no-op without --resume)."""
        if self.manifest is not None:
            self.manifest.mark(key, _CURRENT_EXPERIMENT.get())

    def _normalize_request(self, request: SimRequest) -> Union[SimJob, BatchSimJob]:
        """Fill tier defaults and validate names (KeyError like simulate)."""
        if isinstance(request, BatchSimJob):
            for predictor in request.predictors:
                if predictor not in PREDICTOR_FACTORIES:
                    raise KeyError(
                        f"unknown predictor {predictor!r}; register a factory "
                        "in PREDICTOR_FACTORIES"
                    )
            workload_spec(request.workload)
            return request
        if isinstance(request, SimJob):
            name, input_index, n, predictor, slice_n = request.key()
        else:
            name, input_index, predictor = request[:3]
            n = request[3] if len(request) > 3 else None
            slice_n = request[4] if len(request) > 4 else SLICE_INSTRUCTIONS
        if predictor not in PREDICTOR_FACTORIES:
            raise KeyError(
                f"unknown predictor {predictor!r}; register a factory in "
                "PREDICTOR_FACTORIES"
            )
        workload_spec(name)  # raises for unknown workloads
        if n is None:
            n = self.instructions_for(name)
        return SimJob(name, input_index, n, predictor, slice_n)

    def _store_disk(self, disk: Path, result: object) -> bool:
        """Atomically publish one cache entry; True on durable success.

        The payload is written to a unique sibling tempfile and renamed
        into place, so concurrent readers never observe a partial pickle
        and concurrent writers of the same (deterministic) entry simply
        race to an identical file.  I/O failures only cost the cache
        entry, never the run.
        """
        try:
            faults.check_enospc("cache.enospc")
            fd, tmp_name = tempfile.mkstemp(
                dir=str(disk.parent), prefix=disk.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(
                        {"cache_version": CACHE_VERSION, "result": result}, f
                    )
                os.replace(tmp_name, disk)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        except OSError as exc:
            obs.counter("lab.cache.store_failed")
            _log.warning("could not write disk cache %s: %s", disk, exc)
            return False
        faults.corrupt_file("cache.corrupt", disk)
        obs.counter("lab.sim.cache_store")
        return True

    def _load_disk(self, disk: Path, want: type = SimulationResult):
        """Load one disk-cache entry holding a ``want`` instance, or
        ``None`` (with a warning) if it is corrupt or from an incompatible
        :data:`CACHE_VERSION`.  Bad entries are *quarantined* — moved to
        ``quarantine/`` under the cache directory — so they are recomputed
        once instead of re-read and re-warned on every load."""
        try:
            with open(disk, "rb") as f:
                payload = pickle.load(f)
        except Exception as exc:
            # Fail-soft by design: a corrupt/truncated entry (e.g. a torn
            # write from a killed worker) must cost a recompute, never the
            # run.  The dedicated counter separates I/O-level failures from
            # well-formed-but-stale payloads (both also count as invalid).
            obs.counter("lab.cache.load_error")
            reason = f"unreadable ({type(exc).__name__}: {exc})"
        else:
            if (
                isinstance(payload, dict)
                and payload.get("cache_version") == CACHE_VERSION
                and isinstance(payload.get("result"), want)
            ):
                return payload["result"]
            found = payload.get("cache_version") if isinstance(payload, dict) else None
            reason = (
                f"stale cache version {found!r} (want {CACHE_VERSION})"
                if found is not None
                else "unrecognized payload format"
            )
        obs.counter("lab.cache.invalid")
        _log.warning("ignoring invalid disk cache %s: %s; recomputing", disk, reason)
        if self.cache_dir is not None:
            quarantine_file(disk, self.cache_dir, reason)
        return None

    def _cache_filename(self, kind: str, key: Tuple) -> str:
        """Injective cache filename for ``key``: a human-readable slug plus
        a digest of the raw key.  (The pre-v5 ``replace("/", "_")`` scheme
        aliased distinct keys — e.g. ``a/b`` and ``a_b`` — onto one file,
        silently serving one key's payload for the other.)"""
        raw = "\x1f".join(str(part) for part in (kind, *key))
        digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]
        human = "_".join(_slug(str(part)) for part in (kind, *key))
        return f"v{CACHE_VERSION}_{human}_{digest}.pkl"

    def _disk_path(self, key: Tuple) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / self._cache_filename("sim", key)

    # -- aggregates --------------------------------------------------------

    def aggregate_stats(
        self, names: List[str], predictor: str = "tage-sc-l-8kb"
    ) -> Tuple[BranchStats, int]:
        """Pooled per-branch stats and total instructions over workloads
        (all inputs under the tier).  Branch IPs collide across programs, so
        IPs are offset per (workload, input) before pooling."""
        pooled = BranchStats()
        instructions = 0
        for w, name in enumerate(names):
            for input_index in self.inputs_for(name):
                result = self.simulate(name, input_index, predictor)
                offset = (w * 64 + input_index + 1) << 40
                for ip, counts in result.stats.items():
                    pooled.record_bulk(
                        ip + offset, counts.executions, counts.mispredictions
                    )
                instructions += result.instr_count
        return pooled, instructions


_DEFAULT_LAB: Optional[Lab] = None


def default_lab() -> Lab:
    """Process-wide shared lab (so tests/benchmarks reuse simulations)."""
    global _DEFAULT_LAB
    if _DEFAULT_LAB is None:
        _DEFAULT_LAB = Lab()
    return _DEFAULT_LAB
