"""Benchmark-harness plumbing: scales, trace caching, matrix runs.

The harness reruns identical traces across many machine configurations
and many pytest sessions.  :class:`BenchContext` pins the per-workload
input scales (documented in EXPERIMENTS.md), caches generated traces on
disk, and runs workload x configuration matrices into a
:class:`~repro.sim.results.ResultMatrix`.

Robustness features (this file is the harness's crash-safety layer):

* corrupt/truncated trace-store entries are detected by checksum
  (:class:`~repro.errors.TraceStoreCorrupt`), warned about,
  quarantined, and regenerated;
* a per-run reference budget (``max_references``) bounds any single
  pathological cell instead of hanging the whole matrix;
* matrix cells are independent, so ``run_matrix(..., jobs=N)`` fans
  them out over supervised worker processes, and the assembled matrix
  is always in deterministic workload x config order regardless of
  completion order.

:meth:`BenchContext.run_matrix` is a thin client of the sharded
scheduler in :mod:`repro.serve.scheduler`: each cell becomes a
:class:`~repro.api.ScenarioSpec`.  The content-addressed
:class:`~repro.serve.store.ResultStore` (``store=``) is the only record
of a matrix's progress: each cell is committed as it finishes, so a
killed matrix resumes as store hits, re-running only the missing
cells.  Without a store a rerun starts over.

A trace reaches the simulator one way: :meth:`BenchContext.trace_at`
asks the content-addressed columnar trace store
(:mod:`repro.trace.store`), whose entries are keyed by the exact scale
bits (``float.hex()``), populated once across processes under a
single-flight lock, and loaded as memory-mapped column views that
parallel sweep shards share through the page cache.

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — use the quick (CI) scales everywhere;
* ``REPRO_TRACE_CACHE=<dir>`` — trace cache directory (default
  ``.trace_cache/`` under the repository root / current directory);
  the store lives in its ``store/`` subdirectory.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import TraceStoreCorrupt
from ..sim.config import SystemConfig
from ..sim.results import ResultMatrix, RunResult
from ..sim.system import System
from ..trace.store import TraceStore
from ..trace.trace import Trace
from ..workloads import build_workload, stream_workload

#: Input scales used for reported (non-quick) benchmark numbers.  Chosen
#: so each run finishes in seconds while keeping every workload's paper
#: *footprint* characteristics (see EXPERIMENTS.md for the rationale).
PAPER_SCALES: Dict[str, float] = {
    "compress95": 0.25,
    "vortex": 0.5,
    "radix": 0.3,
    "em3d": 0.3,
    "gcc": 1.0,
}

#: Much smaller inputs for CI / the test suite.
QUICK_SCALES: Dict[str, float] = {
    "compress95": 0.04,
    "vortex": 0.06,
    "radix": 0.05,
    "em3d": 0.08,
    "gcc": 0.12,
}

DEFAULT_SEED = 1998


def quick_mode_requested() -> bool:
    """True when the environment asks for quick (CI) scales."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


class BenchContext:
    """Shared state for one benchmark session."""

    def __init__(
        self,
        quick: Optional[bool] = None,
        scales: Optional[Mapping[str, float]] = None,
        cache_dir: Optional[Path] = None,
        seed: int = DEFAULT_SEED,
        max_references: Optional[int] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        sanitize: bool = False,
        store: Optional[object] = None,
    ) -> None:
        if quick is None:
            quick = quick_mode_requested()
        self.quick = quick
        base = QUICK_SCALES if quick else PAPER_SCALES
        self.scales: Dict[str, float] = dict(base)
        if scales:
            self.scales.update(scales)
        if cache_dir is None:
            env = os.environ.get("REPRO_TRACE_CACHE")
            cache_dir = Path(env) if env else Path(".trace_cache")
        self.cache_dir = Path(cache_dir)
        self.seed = seed
        #: Per-run reference budget; a run that would exceed it raises
        #: :class:`~repro.errors.ReferenceBudgetExceeded` instead of
        #: running unbounded.  None = no limit.
        self.max_references = max_references
        #: Worker-process count for :meth:`run_matrix`.  None or <= 1
        #: runs serially in-process.
        self.jobs = jobs
        #: Trace-engine override applied to every config this context
        #: runs ("scalar" | "vector"); None respects each
        #: config's own ``engine`` field.  Engines are bit-identical,
        #: so results (and store records) are interchangeable.
        self.engine = engine
        #: Run every config with the invariant sanitizer suite enabled
        #: (repro.check).  Read-only checks: results stay bit-identical,
        #: only wall-clock changes.
        self.sanitize = sanitize
        #: Optional :class:`~repro.serve.store.ResultStore` consulted by
        #: :meth:`run_matrix` before simulating a cell.  Off by default:
        #: a plain context always simulates what it is asked to.
        self.store = store
        self._trace_store_backend: Optional[TraceStore] = None
        #: In-memory memo: one (scale, trace) per workload name,
        #: replaced when another scale is asked for.
        self._traces: Dict[str, Tuple[float, Trace]] = {}

    def worker_kwargs(self) -> dict:
        """The constructor arguments a pool worker rebuilds this
        context from: the one list the batch scheduler and the daemon
        both ship to their workers.  ``jobs`` and ``store`` stay with
        the parent, which dispatches and commits."""
        return {
            "quick": self.quick,
            "scales": self.scales,
            "cache_dir": self.cache_dir,
            "seed": self.seed,
            "max_references": self.max_references,
            "engine": self.engine,
            "sanitize": self.sanitize,
        }

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #

    def scale_of(self, workload: str) -> float:
        """The input scale this context uses for *workload*."""
        return self.scales.get(workload, 1.0)

    def trace(self, workload: str, scale: Optional[float] = None) -> Trace:
        """*workload*'s trace at *scale* (default: this context's), via
        the in-memory memo and then the trace store."""
        if scale is None:
            scale = self.scale_of(workload)
        cached = self._traces.get(workload)
        if cached is not None and cached[0] == scale:
            return cached[1]
        trace = self.trace_at(workload, scale)
        self._traces[workload] = (scale, trace)
        return trace

    def trace_store_backend(self) -> TraceStore:
        """The context's columnar trace store (``cache_dir/store``)."""
        if self._trace_store_backend is None:
            self._trace_store_backend = TraceStore(
                self.cache_dir / "store"
            )
        return self._trace_store_backend

    @staticmethod
    def _warn_corrupt(exc: TraceStoreCorrupt) -> None:
        # Corrupt cache: warn, quarantine, regenerate (never simulate a
        # silently wrong reference stream).  The warning is advisory;
        # pool workers also surface it through the
        # ``trace.cache_corrupt`` counter, which *is* visible from the
        # parent (RuntimeWarnings in worker processes are not).
        warnings.warn(f"{exc}; regenerating", RuntimeWarning)

    def trace_at(self, workload: str, scale: float) -> Trace:
        """Load or generate *workload*'s trace at an explicit *scale*.

        Trace store only, bypassing the in-memory memo.  Single-flight
        across processes: one cold worker generates, the rest block
        and then load shared memory-mapped columns.  On a read-only
        filesystem the trace is built in memory, uncached.
        """

        def produce(writer) -> None:
            shell, items = stream_workload(
                workload, scale=scale, seed=self.seed
            )
            writer.begin(shell.name, shell.text_base, shell.text_size)
            for item in items:
                writer.add(item)

        try:
            return self.trace_store_backend().get_or_create(
                workload,
                scale,
                self.seed,
                produce,
                on_corrupt=self._warn_corrupt,
            )
        except OSError:
            return build_workload(workload, scale=scale, seed=self.seed)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def configure(self, config: SystemConfig) -> SystemConfig:
        """*config* with this context's engine and sanitize overrides."""
        if self.engine is not None and config.engine != self.engine:
            config = dataclasses.replace(config, engine=self.engine)
        if self.sanitize and not config.sanitize:
            config = dataclasses.replace(config, sanitize=True)
        return config

    def machine(
        self, config: SystemConfig, max_references: Optional[int] = None
    ) -> System:
        """A fresh :class:`System` for *config* under this context:
        :meth:`configure`'s engine and sanitize overrides, plus the
        reference budget (*max_references*, default the context's).
        Every bench machine that has a context is built here, so the
        ``--engine``, ``--sanitize`` and ``--max-refs`` flags reach it.
        """
        system = System(self.configure(config))
        system.reference_budget = (
            self.max_references if max_references is None
            else max_references
        )
        return system

    def run(
        self,
        workload: str,
        config: SystemConfig,
        scale: Optional[float] = None,
        max_references: Optional[int] = None,
    ) -> RunResult:
        """Simulate one workload on one configuration.

        *scale* and *max_references* default to the context's own.
        """
        return self.machine(config, max_references).run(
            self.trace(workload, scale)
        )

    def run_matrix(
        self,
        workloads: Sequence[str],
        configs: Mapping[str, SystemConfig],
        base_label: str,
        progress: bool = False,
        jobs: Optional[int] = None,
        store: Optional[object] = None,
    ) -> ResultMatrix:
        """Run every workload on every configuration.

        The cells are executed by the sharded sweep scheduler
        (:mod:`repro.serve.scheduler`): *jobs* (default: the context's
        ``jobs``) > 1 shards them over worker processes.  With *store*
        (default: the context's ``store``) attached, each cell is
        committed as it finishes and cells already in the
        content-addressed result store are served from disk instead of
        simulated, so a killed matrix resumes where it stopped.
        """
        from ..api import ScenarioSpec
        from ..serve.scheduler import SweepScheduler

        scheduler = SweepScheduler(
            context=self,
            store=store if store is not None else self.store,
            jobs=jobs,
            progress_cb=(
                (lambda msg: print(msg, flush=True)) if progress else None
            ),
        )
        reports = iter(scheduler.sweep([
            ScenarioSpec(workload=workload, config=config, seed=self.seed)
            for workload in workloads
            for config in configs.values()
        ]))
        matrix = ResultMatrix(base_label)
        for workload in workloads:
            for label in configs:
                matrix.add(RunResult(workload, label, next(reports).stats))
        return matrix
