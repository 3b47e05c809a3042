"""Sharded sweep scheduler: batches of scenarios, deduped and cached.

The scheduler is the scenario service's execution core (DESIGN.md §12).
:meth:`SweepScheduler.sweep` is a plain synchronous call, so it works
anywhere, a running event loop included, and every entry point goes
through it: ``Session.run`` and ``SweepClient.run`` are one-spec
sweeps.  One sweep takes three steps:

1. **plan** — every spec is validated up front
   (:func:`repro.api.validate_spec`), so a bad ``--jobs``/``--engine``
   combination fails fast in the submitting process, never inside a
   worker; each spec is fingerprinted (:mod:`repro.serve.fingerprint`),
   store hits are served immediately, and duplicate fingerprints
   *within* the batch collapse onto one execution (submitted twice,
   simulated once);
2. **run** — the remaining unique scenarios run in submission order on
   the in-process loop, or, with ``jobs > 1`` and more than one of
   them, on a pool of supervised worker processes
   (:class:`~repro.serve.supervise.ShardSupervisor`, DESIGN.md §13)
   driven on the calling thread.  Both follow one retry rule
   (:func:`~repro.serve.supervise.retry_delay`) and stop starting
   scenarios once a :class:`~repro.serve.supervise.ShutdownGuard`
   drains; only the pool has deadlines, crash isolation and chaos
   dispatch directives, because an in-process scenario cannot be
   killed;
3. **assemble** — reports come back in submission order.

Each terminal outcome, serial or pooled, is settled by one step: the
scenario is committed to the content-addressed store through
:func:`guarded_commit` (verified by reading the record back; disk
errors are retried with backoff, and only a read-only store runs
uncached), counted, and streamed to the caller's ``on_result`` as it
arrives, so a killed sweep resumes as store cache hits.  A commit that
still fails after :data:`MAX_COMMIT_ATTEMPTS` becomes that scenario's
``OSError`` outcome.  A sweep run with ``raise_errors`` stops at its
first failed scenario and raises its exception; any other sweep runs
every scenario and reports each one's own outcome, at any ``jobs``.

Everything the scheduler observes is exported through
:class:`~repro.obs.MetricsRegistry` instruments: submitted / store-hit /
deduped / simulated / failed / retries counters, a live queue-depth
gauge, and a shard wall-time histogram.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..api import RunReport, ScenarioSpec, validate_spec
from ..bench.runner import BenchContext
from ..errors import SweepInterrupted
from ..obs import MetricsRegistry
from ..sim.multiprog import run_job_mix
from ..sim.results import RunResult
from ..sim.stats import RunStats
from ..trace.store import trace_metrics_source
from .chaos import ChaosConfig, ChaosPlan, corrupt_record_file
from .fingerprint import canonical_scenario, scenario_fingerprint
from .store import ResultStore
from .supervise import (
    ScenarioOutcome,
    ScenarioTask,
    ShardSupervisor,
    ShutdownGuard,
    SupervisionPolicy,
    SupervisionReport,
    retry_delay,
)

__all__ = [
    "SweepScheduler",
    "execute_spec",
    "guarded_commit",
    "resolve_scales",
    "settle_outcome",
    "spec_fingerprint",
    "spec_scale",
    "store_report",
]

#: Shard wall-time histogram edges, in seconds.
SHARD_WALL_EDGES = (0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0)

#: Commit guard: attempts per store commit before the disk error is
#: considered permanent, and the base backoff between attempts.
MAX_COMMIT_ATTEMPTS = 6
COMMIT_BACKOFF_SECONDS = 0.05


# ====================================================================== #
# Spec execution (shared by the serial loop, the workers and the daemon)
# ====================================================================== #


def resolve_scales(
    spec: ScenarioSpec, context: BenchContext
) -> Dict[str, float]:
    """The spec's effective per-workload input scales, resolved
    immutably: the explicit ``spec.scale`` override when set, else
    *context*'s current default.  Nothing is written back to the
    context, so many requests resolving against one shared long-lived
    context (the daemon) can never contaminate each other — the scale a
    spec is fingerprinted at is decided here, once, and carried with
    the spec from then on."""
    return {
        name: (
            spec.scale if spec.scale is not None
            else context.scale_of(name)
        )
        for name in spec.workloads
    }


def spec_scale(
    spec: ScenarioSpec,
    context: BenchContext,
    scales: Optional[Dict[str, float]] = None,
):
    """The spec's resolved input scale: one float, or one per mix
    member (the shape :func:`~repro.serve.fingerprint.
    canonical_scenario` expects).  *scales* is a pre-resolved map from
    :func:`resolve_scales`; None resolves against *context* now."""
    if scales is None:
        scales = resolve_scales(spec, context)
    if spec.is_mix:
        return [scales[w] for w in spec.workloads]
    return scales[spec.workload]


def spec_fingerprint(
    spec: ScenarioSpec,
    context: BenchContext,
    scales: Optional[Dict[str, float]] = None,
) -> Optional[str]:
    """The spec's store address, or None when it must not be cached.

    Observability runs carry artifacts (event logs, attribution) that
    the store does not hold, and sanitize runs exist to *execute* the
    invariant audits — serving either from the store would silently
    skip what the user asked for, so both always simulate.

    *scales* is a pre-resolved :func:`resolve_scales` map; callers that
    go on to execute the spec should resolve once and pass the same map
    here, to execution, and to the commit, so the address can never
    drift from what actually ran.
    """
    config = spec.config
    if config.obs.enabled:
        return None
    if config.sanitize or context.sanitize:
        return None
    if spec.is_mix:
        return scenario_fingerprint(
            spec.workload, config,
            spec_scale(spec, context, scales), spec.seed,
            quantum_refs=spec.quantum_refs,
            switch_cost=spec.switch_cost,
        )
    return scenario_fingerprint(
        spec.workload, config, spec_scale(spec, context, scales),
        spec.seed,
    )


def execute_spec(
    context: BenchContext,
    spec: ScenarioSpec,
    scales: Optional[Dict[str, float]] = None,
) -> RunResult:
    """Simulate one spec on *context*; the single execution funnel.

    *scales* is the exact per-workload input scales to run at — the
    map the caller fingerprinted with; None resolves the spec against
    the context's defaults.  The scales and the reference budget (the
    spec's, else the context's) are passed down as arguments and the
    context is never written to, so one spec's overrides cannot leak
    into a later spec on a shared context.  Single workloads and mixes
    take the context's engine/sanitize overrides from
    :meth:`BenchContext.configure`.
    """
    if scales is None:
        scales = resolve_scales(spec, context)
    budget = spec.max_references
    if budget is None:
        budget = context.max_references
    config = spec.resolved_config()
    if not spec.is_mix:
        return context.run(
            spec.workload, config, scales[spec.workload], budget
        )
    traces = [context.trace(name, scales[name]) for name in spec.workloads]
    multi = run_job_mix(
        context.configure(config),
        traces,
        quantum_refs=spec.quantum_refs,
        switch_cost=spec.switch_cost,
        reference_budget=budget,
    )
    return multi.result


def store_report(
    store: ResultStore, spec: ScenarioSpec, fingerprint: str
) -> Optional[RunReport]:
    """The cache-hit report for *fingerprint*, or None on a miss."""
    record = store.get(fingerprint)
    if record is None:
        return None
    return RunReport(
        spec=spec,
        stats=record.run_stats(),
        fingerprint=fingerprint,
        cache_hit=True,
        metrics=record.metrics,
    )


def _put_record(
    store: ResultStore,
    context: BenchContext,
    spec: ScenarioSpec,
    fingerprint: str,
    report: RunReport,
    scales: Optional[Dict[str, float]] = None,
) -> Optional[Path]:
    scale = spec_scale(spec, context, scales)
    return store.put(
        fingerprint,
        workload="+".join(spec.workloads),
        config_label=spec.config.label,
        stats=report.stats,
        metrics=report.metrics,
        meta={
            "seed": spec.seed,
            "quick": context.quick,
            "scale": scale,
        },
        scenario=canonical_scenario(
            spec.workload,
            spec.config,
            scale,
            spec.seed,
            quantum_refs=(spec.quantum_refs if spec.is_mix else None),
            switch_cost=(spec.switch_cost if spec.is_mix else None),
        ),
    )


def guarded_commit(
    store: ResultStore,
    context: BenchContext,
    spec: ScenarioSpec,
    fingerprint: str,
    report: RunReport,
    chaos: Optional[ChaosPlan] = None,
    log: Optional[Callable[[str], None]] = None,
    on_retry: Optional[Callable[[], None]] = None,
    scales: Optional[Dict[str, float]] = None,
) -> None:
    """Commit one report with disk-fault retries and verification.

    The single store-commit discipline, shared by the batch scheduler
    and the daemon: chaos commit sites are consulted once per attempt
    (``store_enospc``/``store_eio`` surface as the OSError a real
    full/failing disk would raise, and ``store_corrupt`` flips a byte
    of the record *after* the write — which the verification read-back,
    the store's own checksum machinery, must catch and quarantine,
    triggering a rewrite).  A commit that keeps failing past
    :data:`MAX_COMMIT_ATTEMPTS` raises the last disk error.  *on_retry*
    fires once per retry attempt (the ``serve.commit_retries``
    counter).  *scales* is the resolved map the scenario was
    fingerprinted and executed with, so the canonical record can never
    claim a scale other than the one that actually ran.
    """
    emit = log if log is not None else (lambda message: None)
    last_error: Optional[OSError] = None
    for attempt in range(1, MAX_COMMIT_ATTEMPTS + 1):
        if attempt > 1:
            if on_retry is not None:
                on_retry()
            time.sleep(
                min(1.0, COMMIT_BACKOFF_SECONDS * (2 ** (attempt - 2)))
            )
        fault = chaos.commit_fault() if chaos is not None else None
        if fault is not None:
            last_error = fault
            emit(
                f"  commit fault on {spec.label} "
                f"(attempt {attempt}): {fault}"
            )
            continue
        try:
            written = _put_record(
                store, context, spec, fingerprint, report, scales
            )
        except OSError as exc:
            last_error = exc
            emit(
                f"  commit failed on {spec.label} "
                f"(attempt {attempt}): {exc}"
            )
            continue
        if written is None:
            # ResultStore.put runs uncached on a read-only store by
            # design; nothing to verify or retry.
            return
        if chaos is not None and chaos.corrupts_commit():
            corrupt_record_file(store.record_path(fingerprint))
        with warnings.catch_warnings():
            # A corrupt read-back is quarantined (warning) and then
            # rewritten here — expected under chaos, not news.
            warnings.simplefilter("ignore", RuntimeWarning)
            verified = store.get(fingerprint) is not None
        if verified:
            return
        last_error = OSError(
            "commit verification failed (record quarantined)"
        )
        emit(
            f"  commit verification failed on {spec.label} "
            f"(attempt {attempt}); rewriting"
        )
    raise last_error or OSError("commit failed")


def scenario_task(
    index: int,
    spec: ScenarioSpec,
    fingerprint: Optional[str],
    scales: Dict[str, float],
) -> ScenarioTask:
    """One planned spec as the run step sees it: identity plus the
    resolved *scales* its fingerprint was computed at."""
    return ScenarioTask(
        index=index,
        spec=spec,
        label=spec.label,
        fingerprint=fingerprint,
        workload="+".join(spec.workloads),
        config_label=spec.config.label,
        scales=tuple(sorted(scales.items())),
    )


def settle_outcome(
    outcome: ScenarioOutcome,
    store: Optional[ResultStore],
    context: BenchContext,
    chaos: Optional[ChaosPlan] = None,
    log: Optional[Callable[[str], None]] = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> RunReport:
    """The report one terminal outcome settles as, committed.

    The one place a :class:`ScenarioOutcome` becomes a
    :class:`~repro.api.RunReport`, for the scheduler's serial loop and
    pool and for the daemon: a failed outcome reports its error; a
    successful one is committed through :func:`guarded_commit` (when it
    has a store address) and reports its stats.  A commit that still
    fails after :data:`MAX_COMMIT_ATTEMPTS` makes the scenario fail with
    that ``OSError``, so a result is only ever reported as committed
    when it is.
    """
    task = outcome.task
    error = outcome.error
    if error is None:
        report = RunReport(
            spec=task.spec,
            stats=RunStats(**outcome.stats),
            fingerprint=task.fingerprint,
            metrics=outcome.metrics,
            wall_seconds=outcome.wall_seconds,
        )
        try:
            if store is not None and task.fingerprint is not None:
                guarded_commit(
                    store, context, task.spec, task.fingerprint, report,
                    chaos=chaos, log=log, on_retry=on_retry,
                    scales=dict(task.scales) if task.scales else None,
                )
            return report
        except OSError as exc:
            error = exc
    return RunReport(
        spec=task.spec, stats=None, fingerprint=task.fingerprint,
        error=error,
    )


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary.

    The repo's typed errors define ``__reduce__`` and round-trip; this
    guards third-party/ad-hoc exceptions so a shard's *other* results
    are never lost to one unpicklable failure object.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# ====================================================================== #
# The scheduler
# ====================================================================== #


@dataclass
class _Entry:
    """One submitted spec's place in a sweep."""

    task: ScenarioTask
    #: The scenario's terminal report, ok or failed; None until settled.
    report: Optional[RunReport] = None
    #: The entry this one deduplicated onto (same fingerprint, earlier
    #: in the batch); resolved at assembly time.
    primary: Optional["_Entry"] = None


class SweepScheduler:
    """Sharded, store-deduplicating scenario scheduler (DESIGN.md §12)."""

    def __init__(
        self,
        context: Optional[BenchContext] = None,
        store: Optional[ResultStore] = None,
        jobs: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        progress_cb: Optional[Callable[[str], None]] = None,
        policy: Optional[SupervisionPolicy] = None,
        chaos: Optional[Union[ChaosConfig, ChaosPlan]] = None,
        shutdown: Optional[ShutdownGuard] = None,
    ) -> None:
        self.context = context if context is not None else BenchContext()
        self.store = store
        self.jobs = jobs if jobs is not None else (self.context.jobs or 1)
        self.registry = registry or MetricsRegistry()
        self.progress_cb = progress_cb
        self.policy = policy or SupervisionPolicy()
        self.chaos_plan: Optional[ChaosPlan] = (
            ChaosPlan(chaos) if isinstance(chaos, ChaosConfig) else chaos
        )
        self.shutdown = shutdown
        #: The most recent pool sweep's supervision report (None for
        #: serial sweeps and before the first pool sweep).
        self.last_supervision: Optional[SupervisionReport] = None
        reg = self.registry
        self.submitted = reg.counter("serve.submitted")
        self.store_hits = reg.counter("serve.store_hits")
        self.deduped = reg.counter("serve.deduped")
        self.simulated = reg.counter("serve.simulated")
        self.failed = reg.counter("serve.failed")
        self.retries = reg.counter("serve.retries")
        self.commit_retries = reg.counter("serve.commit_retries")
        self.queue_depth = reg.gauge("serve.queue_depth")
        self.shard_wall = reg.histogram(
            "serve.shard_wall_seconds", SHARD_WALL_EDGES
        )
        # Trace-store traffic (hits/misses/generated/...) rides the
        # operational registry, never RunResult.metrics — run metrics
        # are compared bit-for-bit across cold/warm caches by CI.
        reg.add_source("trace", trace_metrics_source)

    # -- helpers --------------------------------------------------------- #

    def _log(self, message: str) -> None:
        if self.progress_cb is not None:
            self.progress_cb(message)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted scenarios served without simulating."""
        total = self.submitted.value
        if not total:
            return 0.0
        return (self.store_hits.value + self.deduped.value) / total

    # -- the sweep -------------------------------------------------------- #

    def sweep(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]] = None,
        raise_errors: bool = True,
    ) -> List[RunReport]:
        """Run one batch to completion; reports in submission order.

        Plan, run, assemble (module docstring).  *on_result* receives
        ``(submission_index, RunReport)`` for every successful scenario
        as it is served or committed.  With *raise_errors* (the
        default) the sweep stops at its first failed scenario and
        raises that scenario's own exception, at any ``jobs``; every
        scenario committed before it stays committed, so a rerun
        resumes from the store.  Otherwise every scenario runs and
        failures come back as ``RunReport.error`` entries.  Scenarios a
        drain kept from starting fail with
        :class:`~repro.errors.SweepInterrupted`.
        """
        entries, to_run = self._plan(specs, on_result)

        def settle(outcome: ScenarioOutcome) -> None:
            self._settle(
                entries[outcome.task.index], outcome, on_result,
                raise_errors,
            )

        pooled = self.jobs > 1 and len(to_run) > 1
        run = self._run_pool if pooled else self._run_serial
        try:
            run([entry.task for entry in to_run], settle)
            unfinished = [entry for entry in to_run if entry.report is None]
            for entry in unfinished:
                settle(ScenarioOutcome(
                    task=entry.task,
                    error=SweepInterrupted(
                        len(to_run) - len(unfinished), len(unfinished)
                    ),
                ))
        finally:
            self.queue_depth.set(0)
        return self._assemble(entries, on_result)

    def _plan(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]],
    ) -> Tuple[List[_Entry], List[_Entry]]:
        """Validate, fingerprint, serve store hits and dedupe; returns
        every entry and the ones that need simulation, in order."""
        specs = list(specs)
        for spec in specs:  # fail fast, before any work starts
            validate_spec(spec)
        entries: List[_Entry] = []
        to_run: List[_Entry] = []
        pending: Dict[str, _Entry] = {}
        for index, spec in enumerate(specs):
            self.submitted.inc()
            scales = resolve_scales(spec, self.context)
            fingerprint = spec_fingerprint(spec, self.context, scales)
            entry = _Entry(scenario_task(index, spec, fingerprint, scales))
            entries.append(entry)
            if fingerprint is not None and self.store is not None:
                entry.report = store_report(self.store, spec, fingerprint)
                if entry.report is not None:
                    self.store_hits.inc()
                    self._log(f"  store hit: {spec.label}")
                    if on_result is not None:
                        on_result(index, entry.report)
                    continue
            if fingerprint is not None and fingerprint in pending:
                entry.primary = pending[fingerprint]
                self.deduped.inc()
                continue
            if fingerprint is not None:
                pending[fingerprint] = entry
            to_run.append(entry)
        self.queue_depth.set(len(to_run))
        return entries, to_run

    def _run_serial(
        self,
        tasks: List[ScenarioTask],
        settle: Callable[[ScenarioOutcome], None],
    ) -> None:
        """In-process execution in submission order, until a drain."""
        rng = self.policy.backoff_rng()
        for task in tasks:
            outcome = self._run_in_process(task, rng)
            if outcome is None:
                return
            settle(outcome)

    def _run_in_process(
        self, task: ScenarioTask, rng: random.Random
    ) -> Optional[ScenarioOutcome]:
        """One scenario's attempts on this process, each failure retried
        or made terminal by :func:`retry_delay`, as on the pool; None
        when a drain stops it before an attempt starts."""
        attempts = 0
        while not (self.shutdown is not None and self.shutdown.drain_requested):
            attempts += 1
            self._log(f"  running {task.label}...")
            start = time.perf_counter()
            try:
                result = execute_spec(
                    self.context, task.spec, dict(task.scales)
                )
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                delay = retry_delay(self.policy, task, exc, attempts, rng)
                if delay is None:
                    return ScenarioOutcome(
                        task=task, error=exc, attempts=attempts
                    )
                self.retries.inc()
                self._log(
                    f"  retrying {task.label} (attempt {attempts + 1}, "
                    f"backoff {delay:.2f}s): {type(exc).__name__}"
                )
                time.sleep(delay)
                continue
            return ScenarioOutcome(
                task=task,
                stats=dataclasses.asdict(result.stats),
                metrics=result.metrics,
                attempts=attempts,
                wall_seconds=time.perf_counter() - start,
            )
        return None

    def _run_pool(
        self,
        tasks: List[ScenarioTask],
        settle: Callable[[ScenarioOutcome], None],
    ) -> None:
        """The supervised pool, driven on the calling thread; *settle*
        runs as each scenario reaches a terminal state."""
        # Workers acquire their own traces: the trace store's
        # single-flight lock has one generate each cold trace while its
        # peers wait, so the first cell starts as soon as its own trace
        # exists.
        workers = min(self.jobs, len(tasks))
        supervisor = ShardSupervisor(
            self.context.worker_kwargs(),
            jobs=workers,
            policy=self.policy,
            chaos=self.chaos_plan,
            registry=self.registry,
            shutdown=self.shutdown,
            progress_cb=self.progress_cb,
        )
        self._log(
            f"  running {len(tasks)} scenario(s) on "
            f"{workers} supervised worker(s)..."
        )
        start = time.perf_counter()
        try:
            supervisor.run(tasks, settle)
        finally:
            self.last_supervision = supervisor.report
            self.shard_wall.observe(time.perf_counter() - start)
            if not supervisor.report.clean:
                self._log(supervisor.report.render())

    def _settle(
        self,
        entry: _Entry,
        outcome: ScenarioOutcome,
        on_result: Optional[Callable[[int, RunReport], None]],
        raise_errors: bool,
    ) -> None:
        """The one step for each terminal outcome, serial or pooled:
        commit it (:func:`settle_outcome`), count it, stream a success
        to *on_result*, and raise a failure under *raise_errors*."""
        entry.report = report = settle_outcome(
            outcome, self.store, self.context,
            chaos=self.chaos_plan, log=self._log,
            on_retry=self.commit_retries.inc,
        )
        self.queue_depth.set(self.queue_depth.value - 1)
        if not report.ok:
            self.failed.inc()
            if raise_errors:
                raise report.error
            return
        self.simulated.inc()
        self._log(f"  finished {entry.task.label}")
        if on_result is not None:
            on_result(entry.task.index, report)

    def _assemble(
        self,
        entries: List[_Entry],
        on_result: Optional[Callable[[int, RunReport], None]],
    ) -> List[RunReport]:
        """Reports in submission order; a deduplicated entry copies its
        primary's outcome (a success as a cache hit)."""
        reports: List[RunReport] = []
        for entry in entries:
            primary = entry.primary
            if primary is not None:
                entry.report = dataclasses.replace(
                    primary.report, spec=entry.task.spec,
                    cache_hit=primary.report.ok,
                )
                if entry.report.ok and on_result is not None:
                    on_result(entry.task.index, entry.report)
            reports.append(entry.report)
        return reports
