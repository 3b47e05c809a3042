"""SweepClient: the scenario service's programmatic front door.

:class:`SweepClient` is what ``repro serve sweep`` is built on, and what
a notebook or driver script should import: it owns a
:class:`~repro.api.Session` (trace cache + result store) and runs
batches with ``sweep()``, on the local scheduler or, with ``daemon=``,
on a resident daemon; ``run()`` is a one-spec sweep::

    from repro import ScenarioSpec, SweepClient
    from repro.sim.config import figure3_configs

    client = SweepClient(store=".result_store", jobs=4)
    reports = client.sweep(
        [ScenarioSpec(w, cfg) for w in ("em3d", "gcc")
         for cfg in figure3_configs().values()]
    )
    print(f"{client.cache_hit_rate:.0%} served from the store")

Every sweep dedupes against the content-addressed store first, so a
rerun of yesterday's matrix costs a directory scan, not a simulation.
"""

from __future__ import annotations

import builtins
import http.client
import json
import os
import urllib.parse
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..api import RunReport, ScenarioSpec, Session, spec_to_doc, validate_spec
from .. import errors
from ..errors import DaemonProtocolError, DaemonUnavailable, ReproError
from ..obs import MetricsRegistry
from ..sim.stats import RunStats
from .chaos import ChaosConfig, ChaosPlan
from .scheduler import SweepScheduler
from .store import ResultStore, default_store_root
from .supervise import (
    ShutdownGuard,
    SupervisionPolicy,
    SupervisionReport,
)

__all__ = ["SweepClient"]

#: Socket timeout for daemon requests: generous, because one read may
#: legitimately block for a whole scenario's simulation.
DAEMON_TIMEOUT_SECONDS = 3600.0


def _daemon_error(event: Dict[str, object]) -> BaseException:
    """The exception a daemon error event stands for: a
    :class:`~repro.errors.ReproError` subclass from :mod:`repro.errors`,
    or a built-in ``OSError`` type (a full disk at commit), rebuilt from
    ``error_args``; else a ``RuntimeError`` naming the type.
    """
    error_type = str(event.get("error_type") or "RuntimeError")
    cls = getattr(errors, error_type, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = getattr(builtins, error_type, None)
        if not (isinstance(cls, type) and issubclass(cls, OSError)):
            cls = None
    args = event.get("error_args")
    if cls is not None and isinstance(args, list):
        try:
            return cls(*args)
        except TypeError:  # arguments for another version's signature
            pass
    message = event.get("error") or "scenario failed in the daemon"
    return RuntimeError(f"{error_type}: {message}")


class SweepClient:
    """Submit scenario batches to the sharded, store-backed scheduler.

    *policy* tunes supervision
    (:class:`~repro.serve.supervise.SupervisionPolicy`: retries of
    retryable failures on any path, and the pool's deadlines);
    *chaos* arms deterministic service-layer failure injection
    (:class:`~repro.serve.chaos.ChaosConfig`); *shutdown* wires a
    :class:`~repro.serve.supervise.ShutdownGuard` for graceful
    SIGINT/SIGTERM draining.  All three default to off/neutral.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        store: Union[None, str, Path, ResultStore] = None,
        jobs: Optional[int] = None,
        quick: Optional[bool] = None,
        seed: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        progress: bool = False,
        policy: Optional[SupervisionPolicy] = None,
        chaos: Optional[Union[ChaosConfig, ChaosPlan]] = None,
        shutdown: Optional[ShutdownGuard] = None,
        daemon: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: int = 0,
        weight: Optional[float] = None,
    ) -> None:
        #: Daemon transport: when set, ``sweep()`` POSTs the batch to a
        #: resident ``repro serve daemon`` at this base URL instead of
        #: running a local pool; results stream back over NDJSON and
        #: are bit-identical to the local path (same execution funnel,
        #: same commit discipline, the daemon's store).
        self.daemon = daemon.rstrip("/") if daemon else None
        self.tenant = tenant or f"client-{os.getpid()}"
        self.priority = priority
        self.weight = weight
        if session is None:
            kwargs: Dict[str, object] = {
                "store": store if store is not None
                else default_store_root(),
                "jobs": jobs,
            }
            if quick is not None:
                kwargs["quick"] = quick
            if seed is not None:
                kwargs["seed"] = seed
            session = Session(**kwargs)
        self.session = session
        self.scheduler = SweepScheduler(
            context=session.context,
            store=session.store,
            jobs=jobs if jobs is not None else session.jobs,
            registry=registry,
            progress_cb=(
                (lambda msg: print(msg, flush=True)) if progress else None
            ),
            policy=policy,
            chaos=chaos,
            shutdown=shutdown,
        )

    def sweep(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]] = None,
        raise_errors: bool = True,
    ) -> List[RunReport]:
        """Run one batch; reports in submission order.

        With ``daemon=`` set the batch goes over HTTP to the resident
        daemon; otherwise the local sharded scheduler runs it.  Either
        way *on_result* is streamed ``(submission_index, RunReport)``
        pairs as scenarios complete, and with *raise_errors* the first
        failed scenario's own exception is raised.
        """
        if self.daemon is not None:
            return self._sweep_daemon(specs, on_result, raise_errors)
        return self.scheduler.sweep(
            specs, on_result=on_result, raise_errors=raise_errors
        )

    def _sweep_daemon(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[Callable[[int, RunReport], None]],
        raise_errors: bool,
    ) -> List[RunReport]:
        """One batch through ``POST /v1/sweep``, NDJSON streamed back."""
        specs = list(specs)
        for spec in specs:  # fail fast locally, like the batch path
            validate_spec(spec)
        url = self.daemon
        payload = {
            "tenant": self.tenant,
            "priority": self.priority,
            "specs": [spec_to_doc(spec) for spec in specs],
        }
        if self.weight is not None:
            payload["weight"] = self.weight
        body = json.dumps(payload).encode("utf-8")
        split = urllib.parse.urlsplit(url)
        if split.scheme not in ("http", ""):
            raise DaemonUnavailable(url, f"unsupported scheme {split.scheme}")
        host = split.hostname or "127.0.0.1"
        port = split.port or 80
        conn = http.client.HTTPConnection(
            host, port, timeout=DAEMON_TIMEOUT_SECONDS
        )
        reports: List[Optional[RunReport]] = [None] * len(specs)
        first_error: Optional[BaseException] = None
        saw_done = False
        try:
            try:
                conn.request(
                    "POST", "/v1/sweep", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
            except (ConnectionError, OSError) as exc:
                raise DaemonUnavailable(url, str(exc)) from exc
            if response.status != 200:
                detail = response.read(4096).decode("utf-8", "replace")
                if response.status == 503:
                    raise DaemonUnavailable(
                        url, f"HTTP 503: {detail.strip()}"
                    )
                raise DaemonProtocolError(
                    url, f"HTTP {response.status}: {detail.strip()}"
                )
            while True:
                try:
                    line = response.readline()
                except (ConnectionError, OSError) as exc:
                    raise DaemonUnavailable(
                        url, f"stream dropped: {exc}"
                    ) from exc
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    raise DaemonProtocolError(
                        url, f"bad NDJSON line: {exc}"
                    ) from None
                kind = event.get("event")
                if kind == "accepted":
                    continue
                if kind == "done":
                    saw_done = True
                    break
                if kind not in ("result", "error"):
                    raise DaemonProtocolError(
                        url, f"unknown event {kind!r}"
                    )
                index = event.get("index")
                if not isinstance(index, int) or not (
                    0 <= index < len(specs)
                ):
                    raise DaemonProtocolError(
                        url, f"event index {index!r} out of range"
                    )
                report = self._daemon_report(specs[index], event)
                reports[index] = report
                self._count(
                    "failed" if event.get("event") == "error"
                    else event.get("source")
                )
                if report.error is not None and first_error is None:
                    first_error = report.error
                if on_result is not None and report.error is None:
                    on_result(index, report)
        finally:
            conn.close()
        if not saw_done:
            raise DaemonUnavailable(
                url, "stream ended before the terminal done event"
            )
        for index, report in enumerate(reports):
            if report is None:
                raise DaemonProtocolError(
                    url, f"no terminal event for scenario #{index}"
                )
        if raise_errors and first_error is not None:
            raise first_error
        return reports

    def _daemon_report(
        self, spec: ScenarioSpec, event: Dict[str, object]
    ) -> RunReport:
        if event.get("event") == "error":
            return RunReport(
                spec=spec,
                stats=None,
                fingerprint=event.get("fingerprint"),
                error=_daemon_error(event),
            )
        stats_doc = event.get("stats")
        return RunReport(
            spec=spec,
            stats=(
                RunStats(**stats_doc)
                if isinstance(stats_doc, dict) else None
            ),
            fingerprint=event.get("fingerprint"),
            cache_hit=event.get("source") != "executed",
            metrics=event.get("metrics"),
            wall_seconds=float(event.get("wall_seconds") or 0.0),
        )

    def _count(self, source: Optional[str]) -> None:
        """Count one daemon answer in the scheduler's counters, so
        ``cache_hit_rate`` / ``status()`` cover it as they cover a local
        sweep.  *source* is ``"failed"``, ``"store"``, ``"coalesced"``
        or ``"executed"``."""
        sched = self.scheduler
        sched.submitted.inc()
        if source == "failed":
            sched.failed.inc()
        elif source == "store":
            sched.store_hits.inc()
        elif source == "coalesced":
            sched.deduped.inc()
        else:
            sched.simulated.inc()

    def run(self, spec: ScenarioSpec) -> RunReport:
        """One scenario as a one-spec :meth:`sweep`, local or through
        the daemon; a failed scenario raises its own error."""
        return self.sweep([spec])[0]

    # -- introspection ---------------------------------------------------- #

    @property
    def store(self) -> Optional[ResultStore]:
        return self.session.store

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted scenarios served without simulating."""
        return self.scheduler.cache_hit_rate

    @property
    def registry(self) -> MetricsRegistry:
        """The scheduler's obs registry (queue depth, hits, wall times)."""
        return self.scheduler.registry

    @property
    def last_supervision(self) -> Optional[SupervisionReport]:
        """The most recent pool sweep's supervision report (retries,
        kills, poison, overshoots); None for serial sweeps."""
        return self.scheduler.last_supervision

    def status(self) -> Dict[str, object]:
        """Store inventory plus this client's sweep counters."""
        status = dict(self.session.status())
        status.update(
            submitted=self.scheduler.submitted.value,
            store_hits=self.scheduler.store_hits.value,
            deduped=self.scheduler.deduped.value,
            simulated=self.scheduler.simulated.value,
            failed=self.scheduler.failed.value,
        )
        return status
