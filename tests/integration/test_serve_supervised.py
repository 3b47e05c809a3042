"""Integration tests: the supervised shard pool under injected chaos.

Every test drives the real multiprocessing pool through the public
SweepClient surface with a deterministic ChaosConfig trigger, and then
asserts the service contract: injected failures cost retries and wall
time, never results — each committed record is bit-identical to an
undisturbed run.  A deterministic failure is tried once and surfaces as
its own exception; only retryable failures are retried.
"""

import dataclasses

import pytest

from repro.api import ScenarioSpec, Session
from repro.errors import ReferenceBudgetExceeded, WorkerCrashed
from repro.serve import SweepClient
from repro.serve.chaos import ChaosConfig, run_soak
from repro.serve.supervise import ShutdownGuard, SupervisionPolicy
from repro.sim.config import paper_mtlb, paper_no_mtlb

TINY = {"em3d": 0.02, "radix": 0.02}

#: Fast-but-real supervision for tests: short backoff, short deadline
#: headroom, no minutes-long defaults.
FAST = SupervisionPolicy(
    deadline_seconds=60.0,
    grace_seconds=2.0,
    backoff_base_seconds=0.05,
    backoff_cap_seconds=0.2,
)


def _specs():
    return [
        ScenarioSpec(w, config)
        for w in ("em3d", "radix")
        for config in (paper_no_mtlb(96), paper_mtlb(96))
    ]


def _client(tmp_path, name, chaos=None, policy=FAST, shutdown=None):
    session = Session(
        quick=True, scales=dict(TINY),
        cache_dir=tmp_path / "cache", store=tmp_path / name, jobs=2,
    )
    return SweepClient(
        session=session, jobs=2, policy=policy, chaos=chaos,
        shutdown=shutdown,
    )


def _record_bytes(store):
    return {
        fp: store.record_path(fp).read_bytes() for fp in store.keys()
    }


@pytest.fixture(scope="module")
def clean_records(tmp_path_factory):
    """One undisturbed supervised sweep; the bit-identity baseline."""
    tmp = tmp_path_factory.mktemp("clean")
    client = _client(tmp, "store")
    reports = client.sweep(_specs())
    assert all(r.ok for r in reports)
    return _record_bytes(client.store)


class TestKillRetry:
    def test_blast_radius_is_one_scenario(
        self, tmp_path, clean_records
    ):
        """A SIGKILLed worker costs exactly one retry of exactly the
        killed scenario; every other scenario runs once and every
        stored record matches the undisturbed baseline."""
        chaos = ChaosConfig(triggers=(("worker_kill", 2),))
        client = _client(tmp_path, "store", chaos=chaos)
        reports = client.sweep(_specs())
        assert all(r.ok for r in reports)
        supervision = client.last_supervision
        assert supervision.worker_crashes == 1
        assert supervision.retries == 1
        assert supervision.worker_respawns == 1
        assert supervision.completed == len(_specs())
        assert not supervision.poison
        assert _record_bytes(client.store) == clean_records


class TestDeadlineWatchdog:
    def test_stalled_worker_killed_within_grace(
        self, tmp_path, clean_records
    ):
        """A stalled worker is hard-killed within deadline + grace and
        the scenario retried; results still match the baseline."""
        policy = dataclasses.replace(
            FAST, deadline_seconds=3.0, grace_seconds=1.0
        )
        chaos = ChaosConfig(triggers=(("worker_stall", 1),))
        client = _client(tmp_path, "store", chaos=chaos, policy=policy)
        reports = client.sweep(_specs())
        assert all(r.ok for r in reports)
        supervision = client.last_supervision
        assert supervision.deadline_kills == 1
        assert supervision.retries >= 1
        assert supervision.kill_overshoots
        # Overshoot = elapsed - deadline; must stay near the grace
        # window (margin covers a loaded CI machine's watchdog lag).
        assert max(supervision.kill_overshoots) <= (
            policy.grace_seconds + 2.0
        )
        assert _record_bytes(client.store) == clean_records

    def test_per_spec_deadline_overrides_policy(self, tmp_path):
        """ScenarioSpec.deadline_seconds wins over the sweep policy:
        a generous per-spec deadline keeps a slow-but-healthy scenario
        alive under a tight policy default."""
        policy = dataclasses.replace(FAST, deadline_seconds=120.0)
        specs = [
            dataclasses.replace(spec, deadline_seconds=90.0)
            for spec in _specs()
        ]
        client = _client(tmp_path, "store", policy=policy)
        reports = client.sweep(specs)
        assert all(r.ok for r in reports)
        assert client.last_supervision.deadline_kills == 0


class TestPoisonQuarantine:
    def test_deterministic_failure_poisons_sweep_completes(
        self, tmp_path
    ):
        """A deterministic failure is tried once, listed as poison in
        the supervision report, and reported as its own exception; the
        rest of the sweep completes."""
        specs = _specs()
        # An impossible reference budget fails deterministically.
        specs[1] = dataclasses.replace(specs[1], max_references=10)
        client = _client(tmp_path, "store")
        reports = client.sweep(specs, raise_errors=False)
        assert [r.ok for r in reports] == [True, False, True, True]
        error = reports[1].error
        assert isinstance(error, ReferenceBudgetExceeded)
        assert error.budget == 10
        supervision = client.last_supervision
        assert supervision.retries == 0
        assert client.registry.value("serve.retries") == 0
        assert len(supervision.poison) == 1
        record = supervision.poison[0]
        assert record.attempts == 1
        assert record.classification == "deterministic"
        assert record.label == specs[1].label

    def test_poisoned_raises_under_raise_errors(self, tmp_path):
        """Under raise_errors the sweep re-raises the scenario's own
        exception, exactly as the serial path does."""
        specs = _specs()
        specs[0] = dataclasses.replace(specs[0], max_references=10)
        client = _client(tmp_path, "store")
        with pytest.raises(ReferenceBudgetExceeded) as raised:
            client.sweep(specs)
        assert raised.value.budget == 10
        assert client.last_supervision.retries == 0


class TestRetriesExhausted:
    """Retryable failures are retried up to ``max_attempts``, then
    quarantined and reported as the last retryable error itself."""

    CHAOS = ChaosConfig(worker_kill_rate=1.0)

    def _killed_specs(self):
        # The pool runs batches of two or more scenarios; every
        # dispatch of both is killed.
        return [
            dataclasses.replace(spec, max_attempts=2)
            for spec in _specs()[:2]
        ]

    def test_reported_without_raise(self, tmp_path):
        client = _client(tmp_path, "store", chaos=self.CHAOS)
        reports = client.sweep(self._killed_specs(), raise_errors=False)
        assert all(isinstance(r.error, WorkerCrashed) for r in reports)
        supervision = client.last_supervision
        assert sorted(r.label for r in supervision.poison) == sorted(
            spec.label for spec in self._killed_specs()
        )
        for record in supervision.poison:
            assert record.classification == "retries_exhausted"
            assert record.attempts == 2
        assert supervision.retries == 2

    def test_raised_under_raise_errors(self, tmp_path):
        client = _client(tmp_path, "store", chaos=self.CHAOS)
        with pytest.raises(WorkerCrashed):
            client.sweep(self._killed_specs())


class TestCommitChaos:
    def test_commit_faults_retried_and_verified(
        self, tmp_path, clean_records
    ):
        """ENOSPC/EIO on commit retry with backoff; corruption-on-write
        is caught by read-back verification and rewritten — the store
        still converges bit-identically."""
        chaos = ChaosConfig(
            triggers=(
                ("store_enospc", 1),
                ("store_eio", 2),
                ("store_corrupt", 3),
            )
        )
        client = _client(tmp_path, "store", chaos=chaos)
        reports = client.sweep(_specs())
        assert all(r.ok for r in reports)
        assert client.registry.value("serve.commit_retries") >= 3
        assert _record_bytes(client.store) == clean_records


class TestGracefulDrain:
    def test_programmatic_drain_commits_in_flight(self, tmp_path):
        """Requesting a drain mid-sweep stops dispatch, commits what
        was in flight, and marks the sweep interrupted; committed
        entries serve a resumed sweep from the store."""
        guard = ShutdownGuard()
        client = _client(tmp_path, "store", shutdown=guard)

        def drain_after_first(index, report):
            guard.request_drain()

        reports = client.sweep(
            _specs(),
            on_result=drain_after_first,
            raise_errors=False,
        )
        finished = [r for r in reports if r.ok]
        unfinished = [r for r in reports if not r.ok]
        assert finished and unfinished  # partial progress, explicit
        supervision = client.last_supervision
        assert supervision.interrupted
        assert supervision.pending == len(unfinished)
        # Resume: a fresh sweep over the same store picks up the
        # committed work as cache hits and finishes the rest.
        resumed = _client(tmp_path, "store")
        reports = resumed.sweep(_specs())
        assert all(r.ok for r in reports)
        assert sum(r.cache_hit for r in reports) >= len(finished)

    def test_serve_drain_counts_unpolled_intake(self, tmp_path):
        """Serve-mode drain: tasks still sitting in the intake queue
        are dropped work, and the report's ``pending`` says so instead
        of silently undercounting."""
        from repro.serve.queue import FairQueue
        from repro.serve.supervise import ScenarioTask, ShardSupervisor

        guard = ShutdownGuard()
        guard.request_drain()
        queue = FairQueue()
        for index, spec in enumerate(_specs()[:3]):
            queue.push(
                "tenant",
                ScenarioTask(index=index, spec=spec, label=spec.label),
            )
        supervisor = ShardSupervisor(
            {
                "quick": True, "scales": dict(TINY),
                "cache_dir": tmp_path / "cache", "seed": 1998,
                "max_references": None, "engine": None,
                "sanitize": False,
            },
            jobs=1, policy=FAST, shutdown=guard,
        )
        report = supervisor.serve(queue, lambda outcome: None)
        assert report.interrupted
        assert report.pending == 3


class TestSoakHarness:
    def test_small_soak_converges(self, tmp_path):
        """run_soak: chaos-seeded sweeps converge bit-identically to
        the clean baseline (the `repro chaos soak` engine)."""
        report = run_soak(
            _specs(),
            tmp_path / "soak",
            seeds=[11],
            jobs=2,
            quick=True,
            scales=dict(TINY),
            cache_dir=tmp_path / "cache",
            policy=FAST,
        )
        assert report.clean_entries == len(_specs())
        assert report.ok, report.render()
        outcome = report.outcomes[0]
        assert outcome.matched == outcome.entries
        assert "serve.submitted" in outcome.counters
