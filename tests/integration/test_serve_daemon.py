"""Integration tests: the resident scenario daemon over real HTTP.

One module-scoped daemon (real asyncio server, real supervised worker
pool, real sockets on an ephemeral loopback port) serves every test;
the assertions are the service contract from DESIGN.md §14: results
bit-identical to the batch path, the same per-scenario outcomes as a
batch sweep at any ``jobs``, one execution per unique fingerprint no
matter how many clients ask, commits that survive a client disconnect,
honest /healthz //queue //metrics, and a clean drain.
"""

import dataclasses
import errno
import http.client
import json
import os
import socket
import threading
import time

import pytest

import repro.serve.scheduler as scheduler_mod
import repro.serve.store as store_mod
from repro.api import ScenarioSpec, Session
from repro.errors import DaemonUnavailable, ReferenceBudgetExceeded
from repro.serve import SweepClient
from repro.serve.daemon import ScenarioDaemon
from repro.serve.scheduler import spec_fingerprint
from repro.serve.store import STORE_SCHEMA
from repro.serve.supervise import ShutdownGuard, SupervisionPolicy
from repro.sim.config import paper_mtlb, paper_no_mtlb

TINY = {"em3d": 0.02, "radix": 0.02}

FAST = SupervisionPolicy(
    deadline_seconds=60.0,
    grace_seconds=2.0,
    backoff_base_seconds=0.05,
    backoff_cap_seconds=0.2,
)


#: FAST without retry backoff, for sweeps that retry on purpose.
NO_BACKOFF = dataclasses.replace(FAST, backoff_base_seconds=0.0)


def _session(tmp, name):
    return Session(
        quick=True, scales=dict(TINY),
        cache_dir=tmp / "cache", store=tmp / name, jobs=2,
    )


def _specs(seed=1998):
    return [
        ScenarioSpec(w, config, seed=seed)
        for w in ("em3d", "radix")
        for config in (paper_no_mtlb(96), paper_mtlb(96))
    ]


def _record_bytes(store):
    return {
        fp: store.record_path(fp).read_bytes() for fp in store.keys()
    }


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _start(tmp):
    daemon = ScenarioDaemon(
        session=_session(tmp, "daemon_store"),
        jobs=2, policy=FAST,
    )
    thread = threading.Thread(
        target=lambda: daemon.run(port=0), daemon=True
    )
    thread.start()
    assert daemon.wait_ready(60.0)
    assert daemon.port, "daemon failed to bind"
    return daemon, thread


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    daemon, thread = _start(tmp_path_factory.mktemp("daemon"))
    yield daemon, f"http://127.0.0.1:{daemon.port}"
    daemon.guard.request_drain()
    thread.join(60.0)
    assert not thread.is_alive()


def _client(tmp, name, url, tenant):
    return SweepClient(
        session=_session(tmp, name), daemon=url, tenant=tenant
    )


class TestBitIdentity:
    def test_daemon_sweep_matches_batch_sweep(
        self, served, tmp_path
    ):
        """The acceptance pillar: fig3-shaped specs through the daemon
        commit records byte-for-byte identical to a local batch sweep
        of the same specs into a fresh store."""
        daemon, url = served
        batch = SweepClient(
            session=_session(tmp_path, "batch_store"),
            jobs=2, policy=FAST,
        )
        specs = _specs(seed=1998)
        batch_reports = batch.sweep(specs)
        assert all(r.ok for r in batch_reports)

        client = _client(tmp_path, "client_store", url, "identity")
        daemon_reports = client.sweep(specs)
        assert all(r.ok for r in daemon_reports)
        for local, remote in zip(batch_reports, daemon_reports):
            assert remote.stats == local.stats
            assert remote.fingerprint == local.fingerprint

        batch_records = _record_bytes(batch.store)
        assert batch_records
        for fp, payload in batch_records.items():
            assert daemon.store.record_path(fp).read_bytes() == payload

    def test_resweep_is_served_from_the_store(self, served, tmp_path):
        daemon, url = served
        client = _client(tmp_path, "client_store", url, "identity")
        before = daemon.simulated.value
        reports = client.sweep(_specs(seed=1998))
        assert all(r.cache_hit for r in reports)
        assert daemon.simulated.value == before


class TestTypedErrors:
    def test_failure_surfaces_as_its_own_type(self, served, tmp_path):
        """A scenario that fails in the daemon is rebuilt client-side
        from the error event's ``error_args`` as its own ReproError
        type, through ``sweep`` and through ``run``."""
        _, url = served
        client = _client(tmp_path, "typed_store", url, "typed")
        # A seed no other test commits: a stored result of the same
        # scenario would be served without running into the budget.
        spec = ScenarioSpec(
            "em3d", paper_mtlb(96), seed=4343, max_references=10
        )
        with pytest.raises(ReferenceBudgetExceeded) as caught:
            client.sweep([spec], raise_errors=True)
        assert caught.value.budget == 10
        with pytest.raises(ReferenceBudgetExceeded):
            client.run(spec)

    def test_disk_error_at_commit_surfaces_as_oserror(
        self, served, tmp_path, monkeypatch
    ):
        """A daemon commit that keeps failing ``ENOSPC`` reaches the
        client as the ``OSError`` a local sweep raises, errno intact."""
        _, url = served
        _disk_full(monkeypatch)
        client = _client(tmp_path, "enospc_store", url, "enospc")
        spec = ScenarioSpec("radix", paper_mtlb(96), seed=4545)
        with pytest.raises(OSError) as caught:
            client.sweep([spec], raise_errors=True)
        assert caught.value.errno == errno.ENOSPC


def _disk_full(monkeypatch):
    """Every result-record write fails ``ENOSPC``, with no commit
    backoff between the attempts."""

    def full(path, blob):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(store_mod, "atomic_write_bytes", full)
    monkeypatch.setattr(scheduler_mod, "COMMIT_BACKOFF_SECONDS", 0.0)


def _outcomes(reports):
    return [
        (r.ok, None if r.ok else type(r.error).__name__) for r in reports
    ]


def _only_records(store):
    """The store holds nothing but ``<fp[:2]>/<fp>.json`` entries."""
    for shard in store.root.iterdir():
        assert shard.is_dir() and len(shard.name) == 2, shard
        for path in shard.iterdir():
            assert path.name == f"{path.stem}.json", path
            assert path.stem.startswith(shard.name), path
            doc = json.loads(path.read_text())
            assert doc["schema"] == STORE_SCHEMA, path


#: The scheduler counters every path must agree on.
PARITY_COUNTERS = ("serve.submitted", "serve.simulated", "serve.failed")


class TestOutcomeParity:
    """How a sweep runs never changes what it reports: each case gives
    the same ``(ok, error type)`` per scenario, the same store keys and
    the same counters at ``jobs=1`` and ``jobs=2`` (and, where the
    daemon's workers can see the case, through the daemon)."""

    @staticmethod
    def _runs(served, tmp_path, name, specs, daemon=False, shutdown=None,
              before=None):
        """One keep-going sweep of *specs* per path: ``{path: (client,
        reports, store keys)}``.  *before(jobs)* arms the case."""
        runs = {}
        for jobs in (1, 2):
            if before is not None:
                before(jobs)
            client = SweepClient(
                session=_session(tmp_path, f"{name}_jobs{jobs}"),
                jobs=jobs, policy=NO_BACKOFF, shutdown=shutdown,
            )
            reports = client.sweep(specs, raise_errors=False)
            runs[f"jobs={jobs}"] = (client, reports, set(client.store.keys()))
        if daemon:
            server, url = served
            remote = _client(tmp_path, f"{name}_remote", url, name)
            reports = remote.sweep(specs, raise_errors=False)
            fps = {spec_fingerprint(spec, server.context) for spec in specs}
            runs["daemon"] = (
                remote, reports, {fp for fp in fps if fp in server.store}
            )
        return runs

    @staticmethod
    def _assert_parity(runs, expected):
        def counters(client):
            return {
                name: client.registry.value(name) for name in PARITY_COUNTERS
            }

        serial, _, serial_keys = runs["jobs=1"]
        for path, (client, reports, keys) in runs.items():
            assert _outcomes(reports) == expected, path
            assert keys == serial_keys, path
            assert counters(client) == counters(serial), path

    @staticmethod
    def _specs(seed):
        return [
            ScenarioSpec("em3d", paper_no_mtlb(96), seed=seed),
            ScenarioSpec("em3d", paper_mtlb(96), seed=seed),
            ScenarioSpec("radix", paper_mtlb(96), seed=seed),
        ]

    def test_keep_going_outcomes_match_across_paths(
        self, served, tmp_path
    ):
        """A keep-going batch that mostly fails reports every
        scenario's own outcome, and commits the same records and
        nothing else, on every path."""
        daemon, _ = served
        failing = [
            ScenarioSpec(w, config, seed=seed, max_references=10)
            for seed in (53, 54)
            for w in ("em3d", "radix")
            for config in (paper_no_mtlb(96), paper_mtlb(96))
        ]
        passing = [
            ScenarioSpec("radix", paper_no_mtlb(96), seed=seed)
            for seed in (51, 52)
        ]
        specs = failing[:4] + passing + failing[4:]
        expected = [
            (True, None) if spec.max_references is None
            else (False, "ReferenceBudgetExceeded")
            for spec in specs
        ]
        runs = self._runs(served, tmp_path, "budget", specs, daemon=True)
        self._assert_parity(runs, expected)

        _, serial, committed = runs["jobs=1"]
        assert committed == {r.fingerprint for r in serial if r.ok}
        assert len(committed) == len(passing)
        for fp in committed:
            blob = runs["jobs=1"][0].store.record_path(fp).read_bytes()
            assert runs["jobs=2"][0].store.record_path(fp).read_bytes() == (
                blob
            )
            assert daemon.store.record_path(fp).read_bytes() == blob
        for path in ("jobs=1", "jobs=2"):
            _only_records(runs[path][0].store)
        _only_records(daemon.store)

    def test_first_attempt_oserror_is_retried(
        self, served, tmp_path, monkeypatch
    ):
        """An ``OSError`` is retryable on both paths: each scenario's
        failed first attempt is retried once, and all commit."""
        execute = scheduler_mod.execute_spec

        def arm(jobs):
            marks = tmp_path / f"marks{jobs}"
            marks.mkdir()

            def flaky(context, spec, scales=None):
                mark = marks / f"{spec.label}-{spec.seed}".replace("|", "_")
                if not mark.exists():
                    mark.touch()
                    raise OSError(errno.EIO, "injected first-attempt error")
                return execute(context, spec, scales)

            # Pool workers fork after this, so they run it too.
            monkeypatch.setattr(scheduler_mod, "execute_spec", flaky)

        specs = self._specs(seed=55)
        runs = self._runs(served, tmp_path, "oserror", specs, before=arm)
        self._assert_parity(runs, [(True, None)] * len(specs))
        assert len(runs["jobs=1"][2]) == len(specs)
        for client, _, _ in runs.values():
            assert client.registry.value("serve.retries") == len(specs)

    def test_commit_that_keeps_failing_is_the_scenarios_error(
        self, served, tmp_path, monkeypatch
    ):
        """A keep-going sweep whose record writes keep failing
        ``ENOSPC`` reports each scenario's ``OSError`` and carries on;
        nothing is committed and nothing is reported ok."""
        _disk_full(monkeypatch)
        specs = self._specs(seed=56)
        runs = self._runs(served, tmp_path, "enospc", specs, daemon=True)
        self._assert_parity(runs, [(False, "OSError")] * len(specs))
        assert runs["jobs=1"][2] == set()
        for _, reports, _ in runs.values():
            assert all(r.error.errno == errno.ENOSPC for r in reports)

    def test_drain_before_the_sweep_starts_nothing(self, served, tmp_path):
        """A drain requested before the sweep keeps every scenario from
        starting, on both paths: each reports ``SweepInterrupted``."""
        guard = ShutdownGuard()
        guard.request_drain()
        specs = self._specs(seed=57)
        runs = self._runs(served, tmp_path, "drain", specs, shutdown=guard)
        self._assert_parity(runs, [(False, "SweepInterrupted")] * len(specs))
        assert runs["jobs=1"][2] == set()


class TestDedupe:
    def test_concurrent_clients_one_execution_per_fingerprint(
        self, served, tmp_path
    ):
        """Two clients, same batch, at the same time: the daemon runs
        each unique fingerprint exactly once; every duplicate answer is
        a coalesced waiter or (if one batch commits first) a store hit
        — and /metrics says so."""
        daemon, url = served
        specs = _specs(seed=77)
        unique = {
            spec_fingerprint(spec, daemon.context) for spec in specs
        }
        assert len(unique) == len(specs)
        executed0 = daemon.executed.value
        simulated0 = daemon.simulated.value
        answered0 = (
            daemon.coalesced.value + daemon.store_hits.value
        )

        outcomes = {}

        def sweep(tenant):
            client = _client(tmp_path, f"{tenant}_store", url, tenant)
            outcomes[tenant] = client.sweep(_specs(seed=77))

        threads = [
            threading.Thread(target=sweep, args=(t,))
            for t in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        assert set(outcomes) == {"alice", "bob"}
        for reports in outcomes.values():
            assert all(r.ok for r in reports)

        assert daemon.executed.value - executed0 == len(unique)
        assert daemon.simulated.value - simulated0 == len(unique)
        dupes = 2 * len(specs) - len(unique)
        answered = (
            daemon.coalesced.value + daemon.store_hits.value - answered0
        )
        assert answered == dupes

        status, body = _get(daemon.port, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert (
            f"serve_daemon_executed_total {daemon.executed.value}"
            in text
        )
        assert "serve_daemon_coalesced_total" in text


class TestDisconnect:
    def test_midstream_disconnect_still_commits(self, served, tmp_path):
        """A client that dies after the accepted line costs nothing but
        its own answer: the scenario still runs to a committed store
        record, the worker slot stays healthy, and the daemon counts
        one disconnect."""
        daemon, url = served
        spec = ScenarioSpec("em3d", paper_mtlb(96), seed=4242)
        fingerprint = spec_fingerprint(spec, daemon.context)
        assert daemon.store.get(fingerprint) is None
        disconnects0 = daemon.disconnects.value

        from repro.api import spec_to_doc

        body = json.dumps(
            {"tenant": "flaky", "specs": [spec_to_doc(spec)]}
        ).encode("utf-8")
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=60
        )
        conn.request(
            "POST", "/v1/sweep", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        accepted = json.loads(response.readline())
        assert accepted["event"] == "accepted"
        # Walk away mid-stream.  The response holds its own dup of the
        # socket fd, so it must be closed too or no FIN ever goes out.
        response.close()
        conn.close()

        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if daemon.store.get(fingerprint) is not None:
                break
            time.sleep(0.2)
        record = daemon.store.get(fingerprint)
        assert record is not None, "abandoned scenario never committed"
        assert not [
            poison
            for poison in daemon.supervisor.report.poison
            if poison.fingerprint == fingerprint
        ]

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if daemon.disconnects.value > disconnects0:
                break
            time.sleep(0.2)
        assert daemon.disconnects.value > disconnects0

        # The pool is still healthy: the same spec is now a store hit.
        client = _client(tmp_path, "after_store", url, "after")
        (report,) = client.sweep([spec])
        assert report.ok and report.cache_hit

    def test_stray_trailing_byte_is_not_a_disconnect(self, served):
        """A client that sends junk after its body is still connected:
        only a true EOF aborts the stream, so the sweep must run to a
        "done" event on the same socket."""
        daemon, _ = served
        from repro.api import spec_to_doc

        spec = ScenarioSpec("radix", paper_mtlb(96), seed=616)
        body = json.dumps(
            {"tenant": "stray", "specs": [spec_to_doc(spec)]}
        ).encode("utf-8")
        head = (
            "POST /v1/sweep HTTP/1.1\r\n"
            "Host: daemon\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        disconnects0 = daemon.disconnects.value
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=180
        ) as sock:
            sock.sendall(head + body + b"\n")  # stray byte after body
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        text = b"".join(chunks).decode("utf-8")
        assert '"event": "result"' in text
        assert '"event": "done"' in text
        assert daemon.disconnects.value == disconnects0


class TestScaleIsolation:
    def test_explicit_scale_never_contaminates_later_requests(
        self, served, tmp_path
    ):
        """One tenant's explicit scale override must be pinned to that
        request alone: a later default-scale request for the same
        workload still fingerprints, simulates, and commits at the
        session default, and the daemon's own scale table is untouched
        (the high-severity contamination from the review)."""
        daemon, url = served
        baseline = dict(daemon.context.scales)
        config = paper_mtlb(96)
        override = ScenarioSpec("em3d", config, seed=808, scale=0.01)
        default = ScenarioSpec("em3d", config, seed=909)
        # Expected identity of the default spec, from a pristine
        # context the daemon never saw.
        pristine = _session(tmp_path, "pristine_store").context
        expected = spec_fingerprint(default, pristine)

        scaler = _client(tmp_path, "scaler_store", url, "scaler")
        (first,) = scaler.sweep([override])
        assert first.ok
        assert daemon.store.get(first.fingerprint).meta["scale"] == 0.01

        other = _client(tmp_path, "other_store", url, "other")
        (second,) = other.sweep([default])
        assert second.ok
        assert second.fingerprint == expected
        record = daemon.store.get(expected)
        assert record.meta["scale"] == baseline["em3d"]
        assert daemon.context.scales == baseline

        # Full bit-identity with the batch path for the default spec.
        batch = SweepClient(
            session=_session(tmp_path, "scale_batch_store"),
            jobs=2, policy=FAST,
        )
        (local,) = batch.sweep([default])
        assert local.fingerprint == expected
        assert (
            daemon.store.record_path(expected).read_bytes()
            == batch.store.record_path(expected).read_bytes()
        )

    def test_fully_cached_batch_skips_trace_warmup(
        self, served, tmp_path, monkeypatch
    ):
        """A batch answerable entirely from the store is served
        without the daemon process generating or loading a trace."""
        daemon, url = served
        spec = ScenarioSpec("radix", paper_no_mtlb(96), seed=515)
        client = _client(tmp_path, "warm_store", url, "warm")
        (first,) = client.sweep([spec])
        assert first.ok

        def boom(name, scale):
            raise AssertionError(
                f"cached batch warmed trace {name} at {scale}"
            )

        monkeypatch.setattr(daemon.context, "trace_at", boom)
        (again,) = client.sweep([spec])
        assert again.ok and again.cache_hit


class TestEndpoints:
    def test_healthz_reports_ok(self, served):
        daemon, _ = served
        status, body = _get(daemon.port, "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["jobs"] == 2

    def test_queue_endpoint_shape(self, served):
        daemon, _ = served
        status, body = _get(daemon.port, "/queue")
        assert status == 200
        doc = json.loads(body)
        assert "queue" in doc and "inflight" in doc
        assert "depth" in doc["queue"]

    def test_unknown_route_404_and_wrong_method_405(self, served):
        daemon, _ = served
        status, _ = _get(daemon.port, "/nope")
        assert status == 404
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30
        )
        try:
            conn.request("POST", "/metrics")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_malformed_sweep_is_400(self, served):
        daemon, _ = served
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/sweep",
                body=json.dumps({"specs": [{"workload": "nope"}]}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"unknown workload" in response.read()
        finally:
            conn.close()

    def test_unknown_backend_is_400_echoing_the_name(self, served):
        """A spec naming an unregistered translation backend must be
        rejected at admission (typed UnknownBackend -> HTTP 400), not
        die inside a worker."""
        daemon, _ = served
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/sweep",
                body=json.dumps({
                    "specs": [
                        {"workload": "em3d", "backend": "nonesuch"}
                    ]
                }),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 400
            assert b"nonesuch" in body
            assert b"registered backends" in body
        finally:
            conn.close()


class TestDrain:
    def test_drain_finishes_inflight_then_exits_clean(self, tmp_path):
        """Its own daemon (the module one must stay up): submit work,
        request a drain mid-flight, and require a 0 exit with every
        admitted scenario committed."""
        daemon, thread = _start(tmp_path)
        url = f"http://127.0.0.1:{daemon.port}"
        spec = ScenarioSpec("radix", paper_no_mtlb(96), seed=31)
        fingerprint = spec_fingerprint(spec, daemon.context)
        outcomes = []

        def sweep():
            client = SweepClient(
                session=_session(tmp_path, "drain_client"),
                daemon=url, tenant="drainer",
            )
            outcomes.append(client.sweep([spec]))

        sweeper = threading.Thread(target=sweep)
        sweeper.start()
        # Drain only once the scenario is *dispatched* (flight open,
        # queue drained): the drain contract finishes busy workers but
        # drops still-queued work with a typed error.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and not (
            daemon._flights and not len(daemon.queue)
        ):
            time.sleep(0.05)
        daemon.guard.request_drain()
        sweeper.join(120.0)
        thread.join(120.0)
        assert not thread.is_alive()
        assert daemon._stopped.is_set()
        assert daemon._fatal is None
        assert daemon.store.get(fingerprint) is not None
        (reports,) = outcomes
        assert reports[0].ok

        with pytest.raises(DaemonUnavailable):
            SweepClient(
                session=_session(tmp_path, "late_client"),
                daemon=url, tenant="late",
            ).sweep([spec])
