"""Sharded async sweep scheduler: batches of scenarios, deduped and cached.

The scheduler is the scenario service's execution core (DESIGN.md §12).
One sweep moves through four stages:

1. **validate** — every spec is checked up front
   (:func:`repro.api.validate_spec`), so a bad ``--jobs``/``--engine``
   combination fails fast in the submitting process, never inside a
   worker;
2. **dedupe** — each spec is fingerprinted
   (:mod:`repro.serve.fingerprint`); store hits are served immediately,
   and duplicate fingerprints *within* the batch collapse onto one
   pending execution (submitted twice, simulated once);
3. **supervise** — the remaining unique scenarios are dispatched one at
   a time onto a pool of supervised worker processes
   (:class:`~repro.serve.supervise.ShardSupervisor`, DESIGN.md §13):
   per-scenario wall-clock deadlines with a hard-kill watchdog, and
   retry-with-backoff for failures a rerun can clear.  A dead worker
   costs exactly the scenario it was running — the slot is respawned
   and that one scenario retried.  A batch submitted with
   ``raise_errors`` stops at its first terminal failure and re-raises
   it, as the serial path does; any other batch runs every scenario
   and reports each one's own outcome, at any ``jobs``;
4. **commit** — completed scenarios are written to the content-addressed
   store and streamed to the caller's ``on_result`` callback as they
   arrive (partial-progress commits: a killed sweep resumes as store
   cache hits).  Each commit is *verified* by reading the record back
   through the store's checksum and rewritten if corrupt; disk errors
   (real or chaos-injected) are retried with backoff, and only a
   read-only store runs uncached.

The front is ``asyncio`` (``await submit(...)`` / ``await gather(...)``)
so a service embedding the scheduler can overlap sweeps; the synchronous
:meth:`SweepScheduler.sweep` wrapper drives one batch to completion.
With ``jobs <= 1`` scenarios run serially in-process, in submission
order.  :meth:`repro.api.Session.run` takes the same single-scenario
steps (:func:`spec_fingerprint`, :func:`store_report`,
:func:`execute_spec`, :func:`guarded_commit`) synchronously, without an
event loop.

Everything the scheduler observes is exported through
:class:`~repro.obs.MetricsRegistry` instruments: submitted / store-hit /
deduped / simulated / failed counters, a live queue-depth gauge, and a
shard wall-time histogram.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

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
)

__all__ = [
    "SweepScheduler",
    "SweepTicket",
    "execute_spec",
    "guarded_commit",
    "resolve_scales",
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
# Spec execution (shared by the serial path, the workers, and Session)
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
    """One submitted spec's lifecycle inside a ticket."""

    index: int
    spec: ScenarioSpec
    fingerprint: Optional[str]
    #: The resolved per-workload scales this entry was fingerprinted
    #: at; execution and commit pin exactly these.
    scales: Optional[Dict[str, float]] = None
    report: Optional[RunReport] = None
    error: Optional[BaseException] = None
    #: The entry this one deduplicated onto (same fingerprint, earlier
    #: in the batch); resolved at assembly time.
    primary: Optional["_Entry"] = None


@dataclass
class SweepTicket:
    """Handle for one submitted batch, consumed by ``gather``."""

    entries: List[_Entry]
    #: Entries that need simulation, in submission order.
    to_run: List[_Entry] = field(default_factory=list)
    #: Pool mode: the supervisor driving the batch and its awaitable
    #: (the supervision loop running on a thread).
    supervisor: Optional[ShardSupervisor] = None
    task: Optional[object] = None
    #: The supervisor's report, available once gathered.
    supervision: Optional[SupervisionReport] = None
    on_result: Optional[Callable[[int, RunReport], None]] = None
    #: Stop at the first failed scenario and re-raise its exception
    #: (else failures come back as ``RunReport.error`` entries).
    raise_errors: bool = True
    gathered: bool = False


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
        self.policy = policy
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

    def _commit(self, entry: _Entry, ticket: SweepTicket) -> None:
        """Persist + stream one completed entry."""
        report = entry.report
        if (
            self.store is not None
            and entry.fingerprint is not None
            and report is not None
            and report.stats is not None
            and not report.cache_hit
        ):
            self._guarded_put(entry)
        if ticket.on_result is not None and report is not None:
            ticket.on_result(entry.index, report)

    def _guarded_put(self, entry: _Entry) -> None:
        """Commit one entry via the shared :func:`guarded_commit`."""
        guarded_commit(
            self.store,
            self.context,
            entry.spec,
            entry.fingerprint,
            entry.report,
            chaos=self.chaos_plan,
            log=self._log,
            on_retry=self.commit_retries.inc,
            scales=entry.scales,
        )

    # -- async surface --------------------------------------------------- #

    async def submit(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]] = None,
        raise_errors: bool = True,
    ) -> SweepTicket:
        """Validate, dedupe, and launch a batch; returns its ticket.

        Store hits are resolved (and streamed to *on_result*)
        immediately; with ``jobs > 1`` shard workers start right away,
        otherwise execution happens during ``gather``.  With
        *raise_errors* (the default) the batch stops at its first
        failed scenario and ``gather`` re-raises that scenario's own
        exception — at any ``jobs``; otherwise every scenario runs and
        failures come back as ``RunReport.error`` entries.
        """
        specs = list(specs)
        for spec in specs:  # fail fast, before any work starts
            validate_spec(spec)
        entries: List[_Entry] = []
        pending: Dict[str, _Entry] = {}
        ticket = SweepTicket(
            entries=entries, on_result=on_result,
            raise_errors=raise_errors,
        )
        for index, spec in enumerate(specs):
            self.submitted.inc()
            scales = resolve_scales(spec, self.context)
            fingerprint = spec_fingerprint(spec, self.context, scales)
            entry = _Entry(index, spec, fingerprint, scales=scales)
            entries.append(entry)
            if fingerprint is not None and self.store is not None:
                entry.report = store_report(self.store, spec, fingerprint)
                if entry.report is not None:
                    self.store_hits.inc()
                    self._log(f"  store hit: {spec.label}")
                    self._commit(entry, ticket)
                    continue
            if fingerprint is not None and fingerprint in pending:
                entry.primary = pending[fingerprint]
                self.deduped.inc()
                continue
            if fingerprint is not None:
                pending[fingerprint] = entry
            ticket.to_run.append(entry)
        self.queue_depth.set(len(ticket.to_run))
        if not ticket.to_run:
            return ticket

        jobs = max(1, self.jobs)
        if jobs > 1 and len(ticket.to_run) > 1:
            # Workers acquire their own traces: the trace store's
            # single-flight lock has one generate each cold trace while
            # its peers wait, so the first cell starts as soon as its
            # own trace exists.
            workers = min(jobs, len(ticket.to_run))
            ticket.supervisor = ShardSupervisor(
                self.context.worker_kwargs(),
                jobs=workers,
                policy=self.policy,
                chaos=self.chaos_plan,
                registry=self.registry,
                shutdown=self.shutdown,
                progress_cb=self.progress_cb,
            )
            self._log(
                f"  running {len(ticket.to_run)} scenario(s) on "
                f"{workers} supervised worker(s)..."
            )
            sup_tasks = [
                ScenarioTask(
                    index=entry.index,
                    spec=entry.spec,
                    label=entry.spec.label,
                    fingerprint=entry.fingerprint,
                    workload="+".join(entry.spec.workloads),
                    config_label=entry.spec.config.label,
                    scales=tuple(sorted(entry.scales.items())),
                )
                for entry in ticket.to_run
            ]
            loop = asyncio.get_running_loop()
            by_index = {e.index: e for e in ticket.to_run}
            remaining = [len(ticket.to_run)]

            def on_outcome(outcome: ScenarioOutcome) -> None:
                # Runs on the supervisor's thread as each scenario
                # reaches a terminal state (commit-as-you-go).
                entry = by_index[outcome.task.index]
                if outcome.error is not None:
                    entry.error = outcome.error
                    self.failed.inc()
                    if ticket.raise_errors:
                        ticket.supervisor.abort(outcome.error)
                else:
                    entry.report = RunReport(
                        spec=entry.spec,
                        stats=RunStats(**outcome.stats),
                        fingerprint=entry.fingerprint,
                        cache_hit=False,
                        metrics=outcome.metrics,
                        wall_seconds=outcome.wall_seconds,
                    )
                    self.simulated.inc()
                    self._commit(entry, ticket)
                    self._log(f"  finished {entry.spec.label}")
                remaining[0] -= 1
                self.queue_depth.set(remaining[0])

            ticket.task = loop.run_in_executor(
                None, ticket.supervisor.run, sup_tasks, on_outcome
            )
        return ticket

    async def gather(self, ticket: SweepTicket) -> List[RunReport]:
        """Drive a ticket to completion; reports in submission order.

        A ticket submitted with ``raise_errors`` re-raises the first
        failed scenario's original exception; every scenario completed
        before it has been committed, so a rerun resumes from the
        store.  Otherwise failures surface as ``RunReport.error``
        entries.
        """
        if ticket.gathered:
            raise RuntimeError("ticket was already gathered")
        ticket.gathered = True
        if ticket.task is not None:
            await self._gather_supervised(ticket)
        else:
            self._run_serial(ticket)
        self.queue_depth.set(0)
        # Resolve dedupe references and assemble in submission order.
        reports: List[RunReport] = []
        first_error: Optional[BaseException] = None
        for entry in ticket.entries:
            if entry.primary is not None:
                primary = entry.primary
                if primary.report is not None:
                    entry.report = dataclasses.replace(
                        primary.report, spec=entry.spec, cache_hit=True
                    )
                else:
                    entry.error = primary.error
                self._commit(entry, ticket)
            if entry.report is None:
                error = entry.error or RuntimeError(
                    "scenario was never executed"
                )
                if first_error is None:
                    first_error = error
                entry.report = RunReport(
                    spec=entry.spec,
                    stats=None,
                    fingerprint=entry.fingerprint,
                    error=error,
                )
            reports.append(entry.report)
        if ticket.raise_errors and first_error is not None:
            raise first_error
        return reports

    def _run_serial(self, ticket: SweepTicket) -> None:
        """In-process execution, submission order, commit-per-scenario."""
        remaining = len(ticket.to_run)
        for entry in ticket.to_run:
            spec = entry.spec
            self._log(f"  running {spec.label}...")
            start = time.perf_counter()
            try:
                result = execute_spec(self.context, spec, entry.scales)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                self.failed.inc()
                entry.error = exc
                if ticket.raise_errors:
                    self.queue_depth.set(0)
                    raise
                remaining -= 1
                self.queue_depth.set(remaining)
                continue
            entry.report = RunReport(
                spec=spec,
                stats=result.stats,
                fingerprint=entry.fingerprint,
                cache_hit=False,
                metrics=result.metrics,
                wall_seconds=time.perf_counter() - start,
            )
            self.simulated.inc()
            remaining -= 1
            self.queue_depth.set(remaining)
            self._commit(entry, ticket)

    async def _gather_supervised(self, ticket: SweepTicket) -> None:
        """Await the supervision loop; outcomes were already committed
        as they arrived (via the submit-time ``on_outcome`` callback).

        A ticket that raises its errors re-raises the abort error: the
        first failed scenario's exception.  Otherwise a failure of the
        pool itself, like a graceful interrupt, surfaces on every
        scenario the supervisor never finished.
        """
        start = time.perf_counter()
        aborted: Optional[BaseException] = None
        try:
            ticket.supervision = await ticket.task
        except Exception as exc:  # noqa: BLE001 - abort/loop failure
            aborted = exc
            ticket.supervision = ticket.supervisor.report
        finally:
            self.last_supervision = ticket.supervisor.report
            self.shard_wall.observe(time.perf_counter() - start)
        report = ticket.supervisor.report
        if aborted is not None or report.interrupted:
            # Scenarios the supervisor never finished carry the sweep-
            # level cause; the assembly in gather() raises or reports
            # it per the ticket's raise_errors choice.
            unfinished = [
                e for e in ticket.to_run
                if e.report is None and e.error is None
            ]
            finished = len(ticket.to_run) - len(unfinished)
            for entry in unfinished:
                entry.error = (
                    aborted
                    if aborted is not None
                    else SweepInterrupted(finished, len(unfinished))
                )
                self.failed.inc()
        if not report.clean:
            self._log(report.render())
        if aborted is not None and ticket.raise_errors:
            self.queue_depth.set(0)
            raise aborted

    # -- sync wrapper ----------------------------------------------------- #

    def sweep(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]] = None,
        raise_errors: bool = True,
    ) -> List[RunReport]:
        """Submit + gather one batch synchronously."""

        async def _run() -> List[RunReport]:
            ticket = await self.submit(
                specs, on_result=on_result, raise_errors=raise_errors
            )
            return await self.gather(ticket)

        return asyncio.run(_run())
