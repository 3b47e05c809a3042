"""The scenario daemon: a long-lived async scenario service.

``repro serve daemon`` (DESIGN.md §14) turns the batch scenario
service into a resident process: one supervised worker pool
(:meth:`~repro.serve.supervise.ShardSupervisor.serve`) stays warm while
many concurrent clients POST :class:`~repro.api.ScenarioSpec` batches
over HTTP and stream results back as NDJSON, each scenario the moment
it commits to the content-addressed store.  Between the asyncio front
and the pool sits a :class:`~repro.serve.queue.FairQueue`: priority
bands plus weighted-fair tenant scheduling, so one greedy client cannot
starve everyone else's five-scenario batch.

Deduplication happens at two horizons, both by store fingerprint:

* **across time** — a fingerprint already in the store is answered
  immediately from disk (the batch scheduler's store-hit path);
* **in flight** — a fingerprint currently executing (or queued) is
  *coalesced*: the new request attaches a waiter to the existing
  flight and receives the result when that one execution commits.
  Two clients submitting the same 30-spec matrix cost 30 simulations,
  not 60 — observable as ``serve.daemon.coalesced`` on ``/metrics``.

Execution and commit are byte-identical to ``repro serve sweep``: the
same :func:`~repro.serve.scheduler.execute_spec` funnel in the same
supervised workers, each outcome settled by the same
:func:`~repro.serve.scheduler.settle_outcome` step (a commit that keeps
failing becomes the scenario's error event), so a store populated
through the daemon is bit-identical to one populated by a batch sweep
of the same specs.

Endpoints (HTTP/1.1, ``Connection: close``):

* ``POST /v1/sweep`` — a JSON batch ``{"tenant", "priority",
  "weight", "specs": [...]}``; responds with an NDJSON stream of
  ``accepted`` / ``result`` / ``error`` events and a terminal ``done``;
* ``GET /metrics`` — Prometheus text format 0.0.4
  (:func:`~repro.obs.render_prometheus`);
* ``GET /healthz`` — 200 while serving, 503 once draining or failed;
* ``GET /queue`` — the fair queue's per-tenant depths and virtual
  clocks plus the in-flight table.

Shutdown reuses the sweep path's :class:`~repro.serve.supervise.
ShutdownGuard`: the first SIGTERM/SIGINT stops accepting work, lets
in-flight scenarios drain to the store, fails queued waiters with a
typed error event, and exits 0; a second signal hard-aborts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..api import ScenarioSpec, Session, spec_from_doc, validate_spec
from ..bench.runner import BenchContext
from ..errors import SpecValidationError, SweepInterrupted
from ..obs import MetricsRegistry, render_prometheus
from ..trace.store import trace_metrics_source
from .http import (
    HttpError,
    HttpRequest,
    NdjsonStream,
    json_response,
    read_request,
)
from .queue import FairQueue, QueueClosed
from .scheduler import (
    resolve_scales,
    scenario_task,
    settle_outcome,
    spec_fingerprint,
)
from .store import ResultStore, default_store_root
from .supervise import (
    ScenarioOutcome,
    ShardSupervisor,
    ShutdownGuard,
    SupervisionPolicy,
    SupervisionReport,
)

__all__ = ["ScenarioDaemon"]

#: How often the daemon's run loop checks the shutdown guard.
_DRAIN_POLL_SECONDS = 0.1

#: How long the drain waits for active response streams to flush their
#: terminal events before the process exits anyway.
_DRAIN_STREAM_TIMEOUT = 10.0


@dataclass
class _Flight:
    """One unique execution in flight: a task plus everyone waiting."""

    task_id: int
    fingerprint: Optional[str]
    label: str
    tenant: str
    #: Event-loop futures resolved with the outcome payload; a waiter
    #: whose client disconnected is simply never awaited (the flight
    #: itself always runs to commit).
    waiters: List[asyncio.Future] = field(default_factory=list)


class ScenarioDaemon:
    """The resident scenario service (DESIGN.md §14).

    Construct with the same session knobs as
    :class:`~repro.serve.client.SweepClient` — the daemon's own
    :class:`~repro.bench.runner.BenchContext` (``quick``, ``seed``)
    governs fingerprinting and input scales for every client, so
    clients of one daemon share one cache universe.

    ``run()`` blocks until drained; tests run it on a thread and use
    :meth:`wait_ready` / ``.port`` / ``guard.request_drain()``.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        store: Union[None, str, Path, ResultStore] = None,
        jobs: int = 2,
        quick: Optional[bool] = None,
        seed: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        policy: Optional[SupervisionPolicy] = None,
        shutdown: Optional[ShutdownGuard] = None,
        progress_cb=None,
        default_weight: float = 1.0,
    ) -> None:
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
        self.context: BenchContext = session.context
        self.store: Optional[ResultStore] = session.store
        self.jobs = max(1, jobs)
        self.policy = policy
        self.guard = shutdown if shutdown is not None else ShutdownGuard()
        self.progress_cb = progress_cb
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        self.requests = reg.counter("serve.daemon.requests")
        self.sweeps = reg.counter("serve.daemon.sweeps")
        self.specs = reg.counter("serve.daemon.specs")
        self.store_hits = reg.counter("serve.daemon.store_hits")
        self.coalesced = reg.counter("serve.daemon.coalesced")
        self.executed = reg.counter("serve.daemon.executed")
        self.simulated = reg.counter("serve.daemon.simulated")
        self.failed = reg.counter("serve.daemon.failed")
        self.commit_retries = reg.counter("serve.daemon.commit_retries")
        self.disconnects = reg.counter("serve.daemon.disconnects")
        self.queue_depth = reg.gauge("serve.daemon.queue_depth")
        self.inflight_gauge = reg.gauge("serve.daemon.inflight")
        # Surface trace-store traffic (and worker-reported cache
        # corruption) on /metrics without touching run metrics.
        reg.add_source("trace", trace_metrics_source)

        self.queue: FairQueue = FairQueue(default_weight=default_weight)
        self._task_ids = itertools.count()
        self._flights: Dict[int, _Flight] = {}
        self._by_fp: Dict[str, _Flight] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._active_streams = 0
        self._draining = False
        self._fatal: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self.supervisor: Optional[ShardSupervisor] = None
        self.supervision: Optional[SupervisionReport] = None
        #: Bound address once serving (``port=0`` requests an ephemeral
        #: port; read the real one here).
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------- #

    def _log(self, message: str) -> None:
        if self.progress_cb is not None:
            self.progress_cb(message)

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the listening socket is bound (tests/threads)."""
        return self._ready.wait(timeout)

    def run(self, host: str = "127.0.0.1", port: int = 8765) -> int:
        """Serve until drained; returns a process exit code (0 = clean
        drain, non-zero once the pool died fatally)."""
        try:
            asyncio.run(self._serve_async(host, port))
        finally:
            self._ready.set()  # never leave a waiter hanging
            self._stopped.set()
        return 1 if self._fatal is not None else 0

    async def _serve_async(self, host: str, port: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._thread = threading.Thread(
            target=self._supervise_loop, name="scenario-daemon-pool",
            daemon=True,
        )
        self._thread.start()
        server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._log(
            f"scenario daemon listening on http://{self.host}:{self.port} "
            f"({self.jobs} worker(s), store="
            f"{self.store.root if self.store else 'none'})"
        )
        self._ready.set()
        async with server:
            while not (self.guard.drain_requested or self._fatal):
                await asyncio.sleep(_DRAIN_POLL_SECONDS)
            self._draining = True
            self._log("scenario daemon draining...")
            server.close()
            await server.wait_closed()
            # No new pushes; the supervisor finishes in-flight work
            # (its own guard semantics) and exits its serve loop.
            self.queue.close()
            if self._thread is not None:
                await self._loop.run_in_executor(None, self._thread.join)
            self._fail_unresolved()
            # Give active response streams a moment to write their
            # terminal events before the process goes away.
            deadline = (
                self._loop.time() + _DRAIN_STREAM_TIMEOUT
            )
            while self._active_streams and self._loop.time() < deadline:
                await asyncio.sleep(0.05)
        self._log("scenario daemon stopped")

    def _supervise_loop(self) -> None:
        """The pool thread: one persistent supervised serve() call."""
        supervisor = ShardSupervisor(
            self.context.worker_kwargs(),
            jobs=self.jobs,
            policy=self.policy,
            registry=self.registry,
            shutdown=self.guard,
            progress_cb=self.progress_cb,
        )
        self.supervisor = supervisor
        try:
            self.supervision = supervisor.serve(self.queue, self._on_outcome)
        except BaseException as exc:  # noqa: BLE001 - pool death is fatal
            self._fatal = exc
            self.supervision = supervisor.report
            self._log(f"scenario daemon pool failed: {exc}")
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._fail_unresolved)

    # -- pool-side completion (supervisor thread) ------------------------- #

    def _on_outcome(self, outcome: ScenarioOutcome) -> None:
        """Settle one terminal scenario, then wake its waiters.

        Runs on the supervisor thread: the store commit (blocking disk
        I/O, retries, read-back verification) happens here, off the
        event loop; only the waiter hand-off crosses threads.  A commit
        that keeps failing reaches the waiters as the scenario's error,
        as it does in a batch sweep.
        """
        task = outcome.task
        report = settle_outcome(
            outcome, self.store, self.context,
            log=self._log, on_retry=self.commit_retries.inc,
        )
        if report.ok:
            self.simulated.inc()
            self._log(f"  finished {task.label}")
            payload = {
                "fingerprint": task.fingerprint,
                "stats": outcome.stats,
                "metrics": outcome.metrics,
                "wall_seconds": outcome.wall_seconds,
            }
        else:
            self.failed.inc()
            payload = _error_payload(task.fingerprint, report.error)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                self._resolve, task.index, payload
            )

    # -- event-loop-side flight table ------------------------------------ #

    def _resolve(self, task_id: int, payload: dict) -> None:
        flight = self._flights.pop(task_id, None)
        if flight is None:
            return
        if flight.fingerprint is not None:
            self._by_fp.pop(flight.fingerprint, None)
        for fut in flight.waiters:
            if not fut.done():
                fut.set_result(payload)
        self.inflight_gauge.set(len(self._flights))
        self.queue_depth.set(len(self.queue))

    def _fail_unresolved(self) -> None:
        """Fail every still-open flight (drain or pool death)."""
        if self._fatal is not None:
            error: BaseException = self._fatal
        else:
            error = SweepInterrupted(0, len(self._flights))
        for flight in list(self._flights.values()):
            self._resolve(flight.task_id, _error_payload(
                flight.fingerprint, error
            ))

    # -- HTTP front ------------------------------------------------------- #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.requests.inc()
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._route(request, reader, writer)
            except HttpError as exc:
                writer.write(
                    json_response(exc.status, {"error": exc.message})
                )
                await writer.drain()
            except (SpecValidationError, ValueError) as exc:
                writer.write(json_response(400, {"error": str(exc)}))
                await writer.drain()
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                writer.write(
                    json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
                await writer.drain()
        except (ConnectionError, OSError):
            self.disconnects.inc()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = request.path.rstrip("/") or "/"
        if path == "/v1/sweep":
            if request.method != "POST":
                raise HttpError(405, "POST only")
            await self._handle_sweep(request, reader, writer)
        elif path == "/metrics":
            if request.method != "GET":
                raise HttpError(405, "GET only")
            body = render_prometheus(self.registry).encode("utf-8")
            writer.write(_text_response(body))
            await writer.drain()
        elif path == "/healthz":
            if request.method != "GET":
                raise HttpError(405, "GET only")
            doc = self.health()
            status = 200 if doc["status"] == "ok" else 503
            writer.write(json_response(status, doc))
            await writer.drain()
        elif path == "/queue":
            if request.method != "GET":
                raise HttpError(405, "GET only")
            writer.write(json_response(200, self.queue_status()))
            await writer.drain()
        else:
            raise HttpError(404, f"no route for {request.path}")

    def health(self) -> Dict[str, object]:
        if self._fatal is not None:
            status = "failed"
        elif self._draining or self.guard.drain_requested:
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "jobs": self.jobs,
            "inflight": len(self._flights),
            "queue_depth": len(self.queue),
            "quick": bool(self.context.quick),
            "store": str(self.store.root) if self.store else None,
        }

    def queue_status(self) -> Dict[str, object]:
        inflight = [
            {
                "label": flight.label,
                "tenant": flight.tenant,
                "fingerprint": flight.fingerprint,
                "waiters": len(flight.waiters),
            }
            for flight in self._flights.values()
        ]
        return {"queue": self.queue.snapshot(), "inflight": inflight}

    # -- the sweep endpoint ----------------------------------------------- #

    async def _handle_sweep(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._draining or self.guard.drain_requested:
            raise HttpError(503, "daemon is draining")
        if self._fatal is not None:
            raise HttpError(503, f"daemon pool failed: {self._fatal}")
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "body must be a JSON object")
        tenant = str(doc.get("tenant") or "anon")
        try:
            priority = int(doc.get("priority", 0))
            weight = doc.get("weight")
            weight = float(weight) if weight is not None else None
        except (TypeError, ValueError):
            raise HttpError(400, "bad priority/weight") from None
        raw = doc.get("specs")
        if not isinstance(raw, list) or not raw:
            raise HttpError(400, "specs must be a non-empty list")
        try:
            specs = [spec_from_doc(item) for item in raw]
            for spec in specs:
                validate_spec(spec)
        except SpecValidationError as exc:
            raise HttpError(400, str(exc)) from None
        self.sweeps.inc()
        self.specs.inc(len(specs))

        # Look every spec up first, then launch: each spec's effective
        # scales are resolved immutably against the session defaults
        # (the shared context is never written to), store hits and
        # coalesced flights are answered without executing, and the
        # launches run back to back with no await between them.
        # Workers acquire their own traces from the trace store.
        ready: List[tuple] = []  # (index, source, payload)
        waiting: List[tuple] = []  # (index, source, future)
        launch: List[tuple] = []  # (index, spec, scales, fingerprint)
        for index, spec in enumerate(specs):
            scales = resolve_scales(spec, self.context)
            fingerprint = spec_fingerprint(spec, self.context, scales)
            source, payload, future = await self._lookup(fingerprint)
            if payload is not None:
                ready.append((index, source, payload))
            elif future is not None:
                waiting.append((index, source, future))
            else:
                launch.append((index, spec, scales, fingerprint))
        for index, spec, scales, fingerprint in launch:
            source, payload, future = self._launch(
                spec, scales, fingerprint, tenant, priority, weight
            )
            if future is None:
                ready.append((index, source, payload))
            else:
                waiting.append((index, source, future))
        self.queue_depth.set(len(self.queue))

        stream = NdjsonStream(writer)
        # Connections are one-request (Connection: close), so EOF on the
        # request reader means the client hung up.  Watching it is the
        # only reliable mid-stream disconnect signal: small chunked
        # writes land in the kernel buffer and "succeed" long after the
        # peer reset the connection.  Only a true EOF counts — stray
        # trailing bytes from a sloppy client are drained and ignored.
        client_gone = asyncio.ensure_future(_watch_eof(reader))
        self._active_streams += 1
        results = errors = 0
        try:
            await self._stream_line(stream, client_gone, {
                "event": "accepted",
                "total": len(specs),
                "tenant": tenant,
                "pending": len(waiting),
            })
            for index, source, payload in ready:
                ok = await self._stream_event(
                    stream, client_gone, index, source, payload
                )
                results += ok
                errors += not ok
            tagged = [
                self._tagged(index, source, future)
                for index, source, future in waiting
            ]
            for coro in asyncio.as_completed(tagged):
                index, source, payload = await coro
                ok = await self._stream_event(
                    stream, client_gone, index, source, payload
                )
                results += ok
                errors += not ok
            await self._stream_line(stream, client_gone, {
                "event": "done",
                "results": results,
                "errors": errors,
            })
            await stream.finish()
        except (ConnectionError, OSError):
            # The client went away mid-stream.  Every flight keeps
            # running to commit — the store (and any coalesced waiter)
            # still gets the result; only this response dies.
            self.disconnects.inc()
            self._log(f"  client {tenant} disconnected mid-stream")
        finally:
            client_gone.cancel()
            self._active_streams -= 1

    async def _lookup(self, fingerprint: Optional[str]):
        """Answer one spec from the store or an existing flight, without
        committing to an execution.

        Returns ``(source, payload, None)`` for a store hit,
        ``("coalesced", None, future)`` for an in-flight fingerprint,
        or ``(None, None, None)`` when the spec needs its own flight.
        """
        if fingerprint is not None and self.store is not None:
            record = await self._loop.run_in_executor(
                None, self.store.get, fingerprint
            )
            if record is not None:
                self.store_hits.inc()
                stats = record.run_stats()
                return "store", {
                    "fingerprint": fingerprint,
                    "stats": dataclasses.asdict(stats),
                    "metrics": record.metrics,
                    "wall_seconds": 0.0,
                }, None
        future = self._coalesce(fingerprint)
        if future is not None:
            return "coalesced", None, future
        return None, None, None

    def _coalesce(self, fingerprint: Optional[str]):
        """Attach a waiter to an existing flight, or None."""
        if fingerprint is None or fingerprint not in self._by_fp:
            return None
        flight = self._by_fp[fingerprint]
        future = self._loop.create_future()
        flight.waiters.append(future)
        self.coalesced.inc()
        return future

    def _launch(
        self,
        spec: ScenarioSpec,
        scales: Dict[str, float],
        fingerprint: Optional[str],
        tenant: str,
        priority: int,
        weight: Optional[float],
    ):
        """Open a flight for one spec and enqueue it (after lookup).

        An earlier spec of the same batch, or another request while
        the lookups awaited, may have opened the same fingerprint
        since, so coalescing is re-checked here — no await between the
        check and the flight registration.
        """
        future = self._coalesce(fingerprint)
        if future is not None:
            return "coalesced", None, future
        task_id = next(self._task_ids)
        flight = _Flight(
            task_id=task_id,
            fingerprint=fingerprint,
            label=spec.label,
            tenant=tenant,
        )
        future = self._loop.create_future()
        flight.waiters.append(future)
        task = scenario_task(task_id, spec, fingerprint, scales)
        try:
            self.queue.push(
                tenant, task, priority=priority, weight=weight
            )
        except QueueClosed:
            return "failed", _error_payload(
                fingerprint, SweepInterrupted(0, 1)
            ), None
        self._flights[task_id] = flight
        if fingerprint is not None:
            self._by_fp[fingerprint] = flight
        self.executed.inc()
        self.inflight_gauge.set(len(self._flights))
        return "executed", None, future

    async def _tagged(self, index: int, source: str, future) -> tuple:
        payload = await future
        return index, source, payload

    async def _stream_line(
        self, stream: NdjsonStream, client_gone: asyncio.Future, doc: dict
    ) -> None:
        """One NDJSON line, unless the reader already saw the client's
        EOF — then raise the disconnect that the write itself would
        only surface many buffered lines later."""
        if client_gone.done() and not client_gone.cancelled():
            raise ConnectionResetError("client closed the connection")
        await stream.write_line(doc)

    async def _stream_event(
        self,
        stream: NdjsonStream,
        client_gone: asyncio.Future,
        index: int,
        source: str,
        payload: dict,
    ) -> bool:
        """Write one terminal event; True when it was a result."""
        if payload.get("error") is not None:
            await self._stream_line(stream, client_gone, {
                "event": "error",
                "index": index,
                "source": source,
                "fingerprint": payload.get("fingerprint"),
                "error_type": payload.get("error_type"),
                "error_args": payload.get("error_args"),
                "error": payload.get("error"),
            })
            return False
        await self._stream_line(stream, client_gone, {
            "event": "result",
            "index": index,
            "source": source,
            "fingerprint": payload.get("fingerprint"),
            "stats": payload.get("stats"),
            "metrics": payload.get("metrics"),
            "wall_seconds": payload.get("wall_seconds", 0.0),
        })
        return True


async def _watch_eof(reader: asyncio.StreamReader) -> None:
    """Resolve only when the client truly went away.

    Data on the request reader after the body (a stray trailing byte, a
    pipelined request the daemon will never serve) is drained and
    ignored — a client that *sent* something is still connected.  Only
    an empty read (EOF) or a reset ends the watch.
    """
    try:
        while await reader.read(4096):
            pass
    except (ConnectionError, OSError):
        pass


def _error_payload(
    fingerprint: Optional[str], error: BaseException
) -> dict:
    """An error event's data.  ``error_args`` carries the constructor
    arguments the error pickles with, when they encode as JSON, so the
    client can rebuild a typed error as itself; else None."""
    try:
        args = list(error.__reduce__()[1])
        json.dumps(args)
    except (TypeError, ValueError):
        args = None
    return {
        "fingerprint": fingerprint,
        "error": str(error),
        "error_type": type(error).__name__,
        "error_args": args,
    }


def _text_response(body: bytes) -> bytes:
    from .http import render_response

    return render_response(
        200, body, content_type="text/plain; version=0.0.4; charset=utf-8"
    )
