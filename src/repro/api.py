"""The unified front door: typed scenarios in, typed reports out.

One typed facade serves every scenario:

* :class:`ScenarioSpec` — one *scenario*: a workload (or a
  multiprogrammed mix of workloads), a :class:`~repro.sim.config.
  SystemConfig`, the trace seed/scale, and optional engine/budget
  overrides;
* :func:`run` / :meth:`Session.run` — serve one scenario, returning
  a :class:`RunReport`;
* :meth:`Session.sweep` — run a batch through the sharded scheduler
  (:mod:`repro.serve`), deduplicating against the session's
  content-addressed result store so repeated sweeps are served from
  disk instead of resimulated.

``run(spec)`` is a one-spec sweep, so it drives the same
:class:`~repro.sim.system.System` as ``System(config).run(trace)`` and
commits the record a sweep of that spec commits; both equivalences are
pinned by ``tests/integration/test_serve_scheduler.py``.

Public-vs-internal boundary: everything exported from ``repro``
(``__init__.__all__``) is stable API; ``System``, ``MultiProgram``, and
``BenchContext`` remain importable as the engine room but their calling
conventions may change — new code should enter through this module.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bench.runner import DEFAULT_SEED, BenchContext
from .core.backends import get_backend, list_backends
from .errors import SpecValidationError
from .sim.config import SystemConfig, paper_base
from .sim.multiprog import DEFAULT_QUANTUM_REFS, DEFAULT_SWITCH_COST
from .sim.results import RunResult
from .sim.stats import RunStats
from .workloads import workload_names

__all__ = [
    "RunReport",
    "ScenarioSpec",
    "Session",
    "config_from_tree",
    "get_backend",
    "list_backends",
    "run",
    "spec_from_doc",
    "spec_to_doc",
    "validate_spec",
]

_ENGINES = (None, "scalar", "vector")


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: everything needed to name and run a simulation.

    ``workload`` is a registered workload name, or a tuple of names for
    a multiprogrammed mix (time-sliced on one machine).  ``scale``
    defaults to the running session's per-workload scale;  ``engine``
    overrides ``config.engine`` for this scenario only.  Engine and
    budget overrides — including the supervision knobs
    ``deadline_seconds`` / ``max_attempts``, which bound how long and
    how often a supervised worker may try this scenario — never change
    results, so they are excluded from the scenario's store fingerprint
    (the fingerprint hashes only the canonical scenario identity:
    workload, config, scale, seed, and mix scheduling shape).
    """

    workload: Union[str, Tuple[str, ...]]
    config: SystemConfig = field(default_factory=paper_base)
    seed: int = DEFAULT_SEED
    scale: Optional[float] = None
    engine: Optional[str] = None
    max_references: Optional[int] = None
    #: Mix-only scheduling shape (ignored for single-workload specs).
    quantum_refs: int = DEFAULT_QUANTUM_REFS
    switch_cost: int = DEFAULT_SWITCH_COST
    #: Supervision budget overrides (None = the sweep policy's
    #: defaults); result-irrelevant, so fingerprint-excluded.
    deadline_seconds: Optional[float] = None
    max_attempts: Optional[int] = None
    #: Translation backend override (``repro.core.backends`` registry
    #: name).  Folded into ``config.backend`` at construction — unlike
    #: the engine override it *is* result-relevant, so it reaches the
    #: store fingerprint through the config tree.  ``None`` keeps
    #: whatever the config says (default ``"mtlb"``).
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.workload, (list, tuple)):
            object.__setattr__(self, "workload", tuple(self.workload))
        if self.backend is not None:
            get_backend(self.backend)  # typed UnknownBackend fail-fast
            if self.backend != self.config.backend:
                try:
                    object.__setattr__(
                        self,
                        "config",
                        dataclasses.replace(
                            self.config, backend=self.backend
                        ),
                    )
                except SpecValidationError:
                    raise
                except ValueError as exc:
                    raise SpecValidationError(str(exc)) from exc
        if self.engine not in _ENGINES:
            raise SpecValidationError(
                f"engine must be one of {_ENGINES[1:]}, "
                f"got {self.engine!r}"
            )
        if self.scale is not None and self.scale <= 0:
            raise SpecValidationError(
                f"scale must be positive, got {self.scale}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise SpecValidationError(
                f"deadline_seconds must be positive, got "
                f"{self.deadline_seconds}"
            )
        if self.max_attempts is not None and self.max_attempts < 1:
            raise SpecValidationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )

    @property
    def is_mix(self) -> bool:
        return not isinstance(self.workload, str)

    @property
    def workloads(self) -> Tuple[str, ...]:
        """The workload names, mix or not, always as a tuple."""
        return self.workload if self.is_mix else (self.workload,)

    def resolved_config(self) -> SystemConfig:
        """The config with this spec's engine override applied."""
        if self.engine is None or self.engine == self.config.engine:
            return self.config
        return dataclasses.replace(self.config, engine=self.engine)

    @property
    def label(self) -> str:
        """``workload|config`` key, the report/snapshot row name."""
        name = "+".join(self.workloads)
        return f"{name}|{self.config.label}"


def validate_spec(spec: ScenarioSpec) -> None:
    """Reject a spec that cannot run, *before* any worker is spawned.

    This is the fail-fast layer the CLI and the scheduler share: an
    unknown workload or a malformed mix raises
    :class:`~repro.errors.SpecValidationError` in the submitting
    process instead of dying inside a shard worker.  The engine needs no
    check: every configuration runs on either engine.
    """
    known = set(workload_names())
    for name in spec.workloads:
        if name not in known:
            raise SpecValidationError(
                f"unknown workload {name!r}; registered workloads: "
                f"{', '.join(sorted(known))}"
            )
    if spec.is_mix and not spec.workloads:
        raise SpecValidationError("a mix needs at least one workload")
    if spec.is_mix and spec.quantum_refs <= 0:
        raise SpecValidationError("quantum_refs must be positive")


# ---------------------------------------------------------------------- #
# Wire codec (the daemon's JSON protocol, DESIGN.md §14)
# ---------------------------------------------------------------------- #


def _coerce(hint, value):
    """Rebuild one JSON value against its declared dataclass field type.

    JSON flattens tuples to lists and nested dataclasses to dicts; this
    undoes exactly those two lossy steps so a round-tripped config tree
    compares (and fingerprints) identical to the original.
    """
    import typing

    if value is None:
        return None
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        return _dataclass_from_tree(hint, value)
    origin = typing.get_origin(hint)
    if origin is Union:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        return _coerce(args[0], value) if len(args) == 1 else value
    if origin is tuple and isinstance(value, (list, tuple)):
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(args[0], v) for v in value)
        if args and len(args) == len(value):
            return tuple(_coerce(a, v) for a, v in zip(args, value))
        return tuple(value)
    return value


def _dataclass_from_tree(cls, tree: Dict[str, object]):
    """Instantiate *cls* from a JSON tree, recursing into nested
    dataclass fields; unknown keys are a hard error (a client built
    against a newer schema must fail loudly, not silently drop knobs)."""
    import typing

    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(tree) - names
    if unknown:
        raise SpecValidationError(
            f"unknown {cls.__name__} field(s): "
            f"{', '.join(sorted(map(str, unknown)))}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {
        name: _coerce(hints.get(name), value)
        for name, value in tree.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(
            f"bad {cls.__name__} document: {exc}"
        ) from exc


def config_from_tree(tree: Dict[str, object]) -> SystemConfig:
    """Rebuild a :class:`~repro.sim.config.SystemConfig` from its
    ``dataclasses.asdict`` JSON tree.

    The round trip is fingerprint-exact: ``config_from_tree(
    json.loads(json.dumps(dataclasses.asdict(cfg))))`` produces a
    config whose canonical scenario document hashes to the same store
    address as ``cfg`` — which is what lets a daemon client submit full
    config trees and still share the store with local batch sweeps.
    """
    if not isinstance(tree, dict):
        raise SpecValidationError(
            f"config must be an object, got {type(tree).__name__}"
        )
    return _dataclass_from_tree(SystemConfig, tree)


def spec_to_doc(spec: ScenarioSpec) -> Dict[str, object]:
    """One spec as a JSON-ready document (the daemon wire format)."""
    doc = dataclasses.asdict(spec)
    doc["workload"] = (
        list(spec.workloads) if spec.is_mix else spec.workload
    )
    return doc


def spec_from_doc(doc: Dict[str, object]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from :func:`spec_to_doc` output.

    Raises :class:`~repro.errors.SpecValidationError` on any malformed
    document — the daemon maps that to HTTP 400 before any queueing.
    """
    if not isinstance(doc, dict):
        raise SpecValidationError(
            f"spec must be an object, got {type(doc).__name__}"
        )
    data = dict(doc)
    workload = data.pop("workload", None)
    if workload is None:
        raise SpecValidationError("spec document needs a 'workload'")
    if isinstance(workload, list):
        workload = tuple(workload)
    tree = data.pop("config", None)
    config = paper_base() if tree is None else config_from_tree(tree)
    names = {
        f.name for f in dataclasses.fields(ScenarioSpec)
    } - {"workload", "config"}
    unknown = set(data) - names
    if unknown:
        raise SpecValidationError(
            f"unknown spec field(s): "
            f"{', '.join(sorted(map(str, unknown)))}"
        )
    try:
        return ScenarioSpec(workload=workload, config=config, **data)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SpecValidationError):
            raise
        raise SpecValidationError(
            f"bad spec document: {exc}"
        ) from exc


@dataclass
class RunReport:
    """Outcome of one scenario, however it was served.

    ``cache_hit`` says the stats came from the content-addressed store
    rather than a fresh simulation; either way ``stats`` is the same
    bit-identical :class:`~repro.sim.stats.RunStats`.  ``error`` is set
    (and ``stats`` is None) when the scenario failed in a sweep run
    with ``raise_errors=False``.
    """

    spec: ScenarioSpec
    stats: Optional[RunStats]
    fingerprint: Optional[str] = None
    cache_hit: bool = False
    metrics: Optional[Dict[str, float]] = None
    error: Optional[BaseException] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def engine(self) -> str:
        """Engine that produced the stats: ``"vector"``/``"scalar"``,
        or ``""`` when unknown (a failed run, or a store record written
        before the metric existed).  Derived from the
        ``sim.engine_resolved`` registry metric so it survives every
        serving path — fresh serial runs, shard workers, and
        content-addressed store hits — and daemon tenants can see which
        engine served their scenario.
        """
        if self.metrics is None:
            return ""
        flag = self.metrics.get("sim.engine_resolved")
        if flag is None:
            return ""
        return "vector" if flag else "scalar"

    @property
    def total_cycles(self) -> int:
        if self.stats is None:
            raise ValueError(f"scenario failed: {self.error}")
        return self.stats.total_cycles

    def to_result(self) -> RunResult:
        """The legacy :class:`~repro.sim.results.RunResult` view."""
        if self.stats is None:
            raise ValueError(f"scenario failed: {self.error}")
        return RunResult(
            workload="+".join(self.spec.workloads),
            config_label=self.spec.config.label,
            stats=self.stats,
            metrics=self.metrics,
            engine=self.engine,
        )


class Session:
    """One scenario-service session: trace cache + result store + sweeps.

    A Session owns a :class:`~repro.bench.runner.BenchContext` (input
    scales, on-disk trace cache, seed) and, optionally, a
    :class:`~repro.serve.store.ResultStore`.  ``sweep`` runs a batch
    through the sharded scheduler, serving what it can from the store,
    and ``run`` is a one-spec sweep.  Both are plain synchronous calls,
    so they work inside a running event loop (a notebook) too.
    """

    def __init__(
        self,
        quick: Optional[bool] = None,
        scales: Optional[Dict[str, float]] = None,
        cache_dir: Optional[Path] = None,
        seed: int = DEFAULT_SEED,
        store: Union[None, str, Path, "object"] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        sanitize: bool = False,
        max_references: Optional[int] = None,
    ) -> None:
        from .serve.store import ResultStore  # api never cycles serve

        self.context = BenchContext(
            quick=quick,
            scales=scales,
            cache_dir=cache_dir,
            seed=seed,
            max_references=max_references,
            jobs=jobs,
            engine=engine,
            sanitize=sanitize,
        )
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(Path(store))
        self.jobs = jobs

    # -- single scenario ------------------------------------------------ #

    def run(self, spec: ScenarioSpec) -> RunReport:
        """Serve one scenario as a one-spec sweep of :meth:`scheduler`;
        a failed scenario raises its own error."""
        return self.scheduler().sweep([spec])[0]

    # -- batches --------------------------------------------------------- #

    def sweep(
        self,
        specs: Sequence[ScenarioSpec],
        jobs: Optional[int] = None,
        raise_errors: bool = True,
        progress: bool = False,
    ) -> List[RunReport]:
        """Run a batch through the sharded scheduler; reports in order."""
        scheduler = self.scheduler(jobs=jobs, progress=progress)
        return scheduler.sweep(specs, raise_errors=raise_errors)

    def scheduler(
        self, jobs: Optional[int] = None, progress: bool = False
    ):
        """A :class:`~repro.serve.scheduler.SweepScheduler` over this
        session's context and store."""
        from .serve.scheduler import SweepScheduler

        return SweepScheduler(
            context=self.context,
            store=self.store,
            jobs=jobs if jobs is not None else self.jobs,
            progress_cb=print if progress else None,
        )

    def status(self) -> Dict[str, object]:
        """Store inventory (empty mapping when no store is attached)."""
        return self.store.status() if self.store is not None else {}


def run(spec: ScenarioSpec) -> RunReport:
    """Run one scenario with session defaults (no result store)::

        from repro import ScenarioSpec, paper_mtlb, run
        report = run(ScenarioSpec("em3d", paper_mtlb(96), scale=0.25))
        print(report.stats.total_cycles)
    """
    return Session().run(spec)
