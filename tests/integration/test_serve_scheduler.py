"""Integration tests for the scenario service (repro.serve).

Pins the service's contract end to end: the facade is bit-identical to
``System(config).run(trace)``, ``Session.run`` commits exactly what a
sweep commits, the scheduler dedupes within a batch and against the
store, a killed matrix resumes as store cache hits, and the CLI front
(``repro serve sweep``/``status``) round-trips through ``repro metrics
diff --require-identical``.
"""

import asyncio
import dataclasses
import errno
import json
import os

import pytest

from repro.api import ScenarioSpec, Session, validate_spec
from repro.bench.runner import BenchContext
from repro.cli import repro_main
from repro.errors import (
    DaemonUnavailable,
    ReferenceBudgetExceeded,
    SnapshotSchemaError,
    SpecValidationError,
)
from repro.obs.snapshot import SCHEMA_VERSION, load_snapshot, write_snapshot
from repro.serve import ResultStore, SweepClient, SweepScheduler
from repro.sim.config import paper_mtlb, paper_no_mtlb
from repro.sim.system import System
from repro.workloads import PAPER_SUITE, build_workload

TINY = {name: 0.02 for name in PAPER_SUITE}


@pytest.fixture
def session(tmp_path):
    return Session(
        quick=True, scales=dict(TINY), cache_dir=tmp_path / "cache",
        store=tmp_path / "store",
    )


class TestFacadeEquivalence:
    def test_bit_identical_to_simulate_all_workloads(self, session):
        """repro.api.run(spec) == System(config).run(trace) on every
        workload (same trace path, same machine, full RunStats
        equality)."""
        config = paper_mtlb(96)
        for workload in PAPER_SUITE:
            report = session.run(ScenarioSpec(workload, config))
            trace = build_workload(
                workload, scale=TINY[workload],
                seed=session.context.seed,
            )
            direct = System(config).run(trace)
            assert dataclasses.asdict(report.stats) == (
                dataclasses.asdict(direct.stats)
            ), workload

    def test_engine_override_is_cache_compatible(self, session):
        """A stored scalar result serves a vector-spec request: engine
        is excluded from the fingerprint because engines are
        bit-identical."""
        scalar = session.run(
            ScenarioSpec("em3d", paper_mtlb(96), engine="scalar")
        )
        vector = session.run(
            ScenarioSpec("em3d", paper_mtlb(96), engine="vector")
        )
        assert vector.cache_hit
        assert vector.fingerprint == scalar.fingerprint
        assert vector.stats == scalar.stats


class TestOneEntryPoint:
    """Session.run and SweepClient.run serve and commit a scenario
    exactly as a sweep does."""

    def _session(self, tmp_path, name):
        return Session(
            quick=True, scales=dict(TINY), cache_dir=tmp_path / "cache",
            store=tmp_path / name,
        )

    def test_run_commits_the_record_a_sweep_commits(self, tmp_path):
        spec = ScenarioSpec("em3d", paper_mtlb(96))
        single = self._session(tmp_path, "single")
        batch = self._session(tmp_path, "batch")
        report = single.run(spec)
        [swept] = batch.sweep([spec])
        assert report.fingerprint == swept.fingerprint
        assert list(single.store.keys()) == [report.fingerprint]
        assert (
            single.store.record_path(report.fingerprint).read_bytes()
            == batch.store.record_path(swept.fingerprint).read_bytes()
        )
        again = single.run(spec)
        assert again.cache_hit and again.stats == report.stats

    def test_local_client_run_counts_like_a_sweep(self, session):
        """Without a daemon, each SweepClient.run lands in the client's
        counters as a one-spec sweep would: simulated, then a hit."""
        client = SweepClient(session=session)
        spec = ScenarioSpec("em3d", paper_mtlb(96))
        assert [client.run(spec).cache_hit for _ in range(2)] == [
            False, True,
        ]
        status = client.status()
        assert (
            status["submitted"], status["store_hits"], status["simulated"]
        ) == (2, 1, 1)
        assert client.cache_hit_rate == 0.5

    def test_client_run_goes_to_the_daemon(self, session):
        client = SweepClient(session=session, daemon="http://127.0.0.1:9")
        with pytest.raises(DaemonUnavailable):
            client.run(ScenarioSpec("em3d", paper_mtlb(96)))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_entry_points_inside_a_running_event_loop(self, session, jobs):
        """Every entry point is one synchronous sweep, so a caller that
        is already inside an event loop (a notebook) can use each of
        them, serial or pooled."""

        def specs(seed):
            return [
                ScenarioSpec("em3d", config, seed=seed)
                for config in (paper_no_mtlb(96), paper_mtlb(96))
            ]

        client = SweepClient(session=session, jobs=jobs)

        async def in_loop():
            return (
                [session.run(specs(61)[0])],
                session.sweep(specs(62), jobs=jobs),
                client.sweep(specs(63)),
            )

        for reports in asyncio.run(in_loop()):
            assert all(r.ok and not r.cache_hit for r in reports)
            assert all(r.stats.references > 0 for r in reports)


class TestSchedulerDedupe:
    def test_same_spec_twice_simulates_once(self, session):
        """In-batch dedupe: duplicate fingerprints collapse onto one
        execution; both reports carry the same stats."""
        spec = ScenarioSpec("em3d", paper_mtlb(96))
        scheduler = session.scheduler()
        reports = scheduler.sweep([spec, spec])
        assert scheduler.simulated.value == 1
        assert scheduler.deduped.value == 1
        assert reports[0].stats == reports[1].stats
        assert not reports[0].cache_hit and reports[1].cache_hit

    def test_warm_sweep_hits_store(self, session):
        specs = [
            ScenarioSpec(w, cfg)
            for w in ("em3d", "gcc")
            for cfg in (paper_no_mtlb(96), paper_mtlb(96))
        ]
        cold = session.scheduler()
        cold_reports = cold.sweep(specs)
        assert cold.simulated.value == 4
        warm = session.scheduler()
        warm_reports = warm.sweep(specs)
        assert warm.simulated.value == 0
        assert warm.store_hits.value == 4
        assert warm.cache_hit_rate >= 0.9
        for a, b in zip(cold_reports, warm_reports):
            assert a.stats == b.stats

    def test_parallel_sweep_matches_serial(self, session):
        specs = [
            ScenarioSpec(w, cfg)
            for w in ("em3d", "radix")
            for cfg in (paper_no_mtlb(96), paper_mtlb(96))
        ]
        serial = session.scheduler().sweep(specs)
        # A fresh store so the parallel path actually simulates.
        parallel = SweepScheduler(
            context=session.context, store=None, jobs=2
        ).sweep(specs)
        for a, b in zip(serial, parallel):
            assert dataclasses.asdict(a.stats) == (
                dataclasses.asdict(b.stats)
            )

    def test_completion_events_stream_in_order(self, session):
        events = []
        specs = [
            ScenarioSpec("em3d", paper_no_mtlb(96)),
            ScenarioSpec("em3d", paper_mtlb(96)),
        ]
        session.scheduler().sweep(
            specs, on_result=lambda i, r: events.append((i, r.cache_hit))
        )
        assert events == [(0, False), (1, False)]

    def test_obs_instruments_populated(self, session):
        scheduler = session.scheduler()
        scheduler.sweep([ScenarioSpec("em3d", paper_mtlb(96))])
        metrics = scheduler.registry.collect()
        assert metrics["serve.submitted"] == 1
        assert metrics["serve.queue_depth"] == 0

    def test_invalid_spec_fails_before_any_work(self, session):
        scheduler = session.scheduler()
        with pytest.raises(SpecValidationError, match="unknown workload"):
            scheduler.sweep(
                [ScenarioSpec("em3d", paper_mtlb(96)),
                 ScenarioSpec("nonesuch")]
            )
        assert scheduler.submitted.value == 0  # nothing started

    @pytest.mark.parametrize(
        "workload", ["em3d", ("em3d", "radix")], ids=["single", "mix"]
    )
    def test_failed_scenario_reported_not_raised(self, session, workload):
        session.context.max_references = 10
        reports = session.scheduler().sweep(
            [ScenarioSpec(workload, paper_mtlb(96))], raise_errors=False
        )
        assert not reports[0].ok
        assert reports[0].stats is None
        assert isinstance(reports[0].error, ReferenceBudgetExceeded)


class TestCommitDiskErrors:
    """Only a read-only store runs uncached: any other disk error on
    the record write reaches the commit guard, which retries it."""

    @staticmethod
    def _faulty_writes(monkeypatch, failures):
        """Make the store's first *failures* record writes raise the
        given errnos; returns the list of attempted writes."""
        import repro.serve.store as store_mod

        write = store_mod.atomic_write_bytes
        attempts = []

        def faulty(path, blob):
            attempts.append(path)
            if len(attempts) <= len(failures):
                code = failures[len(attempts) - 1]
                raise OSError(code, os.strerror(code))
            write(path, blob)

        monkeypatch.setattr(store_mod, "atomic_write_bytes", faulty)
        return attempts

    def test_enospc_retried_then_committed(self, session, monkeypatch):
        attempts = self._faulty_writes(monkeypatch, [errno.ENOSPC])
        scheduler = session.scheduler(jobs=1)
        (report,) = scheduler.sweep([ScenarioSpec("em3d", paper_mtlb(96))])
        assert report.ok
        assert len(attempts) == 2
        assert scheduler.registry.value("serve.commit_retries") == 1
        assert session.store.get(report.fingerprint).stats == (
            dataclasses.asdict(report.stats)
        )

    def test_persistent_enospc_raises_after_retries(
        self, session, monkeypatch
    ):
        """A disk that stays full exhausts the commit guard's attempts
        and surfaces as the disk error; nothing is committed."""
        from repro.serve.scheduler import MAX_COMMIT_ATTEMPTS

        attempts = self._faulty_writes(
            monkeypatch, [errno.ENOSPC] * MAX_COMMIT_ATTEMPTS
        )
        scheduler = session.scheduler(jobs=1)
        with pytest.raises(OSError) as info:
            scheduler.sweep([ScenarioSpec("em3d", paper_mtlb(96))])
        assert info.value.errno == errno.ENOSPC
        assert len(attempts) == MAX_COMMIT_ATTEMPTS
        assert scheduler.registry.value("serve.commit_retries") == (
            MAX_COMMIT_ATTEMPTS - 1
        )
        assert list(session.store.keys()) == []

    @pytest.mark.parametrize(
        "code", [errno.EROFS, errno.EACCES, errno.EPERM],
        ids=["EROFS", "EACCES", "EPERM"],
    )
    def test_read_only_store_runs_uncached(
        self, session, monkeypatch, code
    ):
        attempts = self._faulty_writes(monkeypatch, [code])
        scheduler = session.scheduler(jobs=1)
        (report,) = scheduler.sweep([ScenarioSpec("em3d", paper_mtlb(96))])
        assert report.ok
        assert len(attempts) == 1
        assert scheduler.registry.value("serve.commit_retries") == 0
        assert list(session.store.keys()) == []

    def test_read_only_store_keeps_an_old_schema_record(
        self, session, monkeypatch
    ):
        """An old-schema record is a miss; on a read-only store the
        rerun's commit writes nothing and leaves the record as it was,
        instead of failing read-back verification."""
        spec = ScenarioSpec("em3d", paper_mtlb(96))
        fingerprint = session.run(spec).fingerprint
        path = session.store.record_path(fingerprint)
        record = json.loads(path.read_text())
        record["schema"], record["schema_version"] = "repro-results/1", 1
        path.write_text(json.dumps(record))
        old = path.read_bytes()
        attempts = self._faulty_writes(monkeypatch, [errno.EROFS])
        scheduler = session.scheduler(jobs=1)
        with pytest.warns(RuntimeWarning, match="schema version"):
            (report,) = scheduler.sweep([spec])
        assert report.ok and not report.cache_hit
        assert len(attempts) == 1
        assert scheduler.registry.value("serve.commit_retries") == 0
        assert path.read_bytes() == old


class TestScaleHygiene:
    def test_explicit_scale_never_leaks_into_later_specs(self, session):
        """A spec's explicit scale override is pinned to that spec
        alone: a default-scale spec in the same serial batch still
        resolves, executes, and commits at the session default, and
        the session's own scale table comes back untouched."""
        from repro.serve import spec_fingerprint

        baseline = dict(session.context.scales)
        config = paper_mtlb(96)
        override = ScenarioSpec("em3d", config, scale=0.01, seed=71)
        default = ScenarioSpec("em3d", config, seed=72)
        expected = spec_fingerprint(default, session.context)

        reports = session.sweep([override, default])
        assert all(r.ok for r in reports)
        assert reports[1].fingerprint == expected
        assert session.context.scales == baseline
        assert session.store.get(
            reports[0].fingerprint
        ).meta["scale"] == 0.01
        assert session.store.get(expected).meta["scale"] == (
            baseline["em3d"]
        )

    def test_parallel_workers_pin_the_resolved_scales(self, session):
        """The pool path ships each scenario's resolved scales to the
        workers: mixed override/default batches over 2 workers commit
        every record at exactly the scale its fingerprint claims."""
        baseline = dict(session.context.scales)
        config = paper_mtlb(96)
        specs = [
            ScenarioSpec("em3d", config, scale=0.01, seed=81),
            ScenarioSpec("em3d", config, seed=82),
            ScenarioSpec("radix", config, scale=0.01, seed=83),
            ScenarioSpec("radix", config, seed=84),
        ]
        scheduler = SweepScheduler(
            context=session.context, store=session.store, jobs=2
        )
        reports = scheduler.sweep(specs)
        assert all(r.ok for r in reports)
        assert session.context.scales == baseline
        for spec, report in zip(specs, reports):
            record = session.store.get(report.fingerprint)
            want = (
                spec.scale if spec.scale is not None
                else baseline[spec.workload]
            )
            assert record.meta["scale"] == want, spec


class TestResumeAsCacheHit:
    CONFIGS = staticmethod(
        lambda: {
            "tlb96": paper_no_mtlb(96),
            "tlb96+mtlb1282w": paper_mtlb(96),
        }
    )

    def test_matrix_resumes_from_store(self, tmp_path):
        """With a store attached, a rerun of a finished matrix costs no
        simulation: every cell is a store cache hit."""
        store = ResultStore(tmp_path / "store")
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02},
            cache_dir=tmp_path / "cache", store=store,
        )
        full = ctx.run_matrix(["em3d"], self.CONFIGS(), "tlb96")
        # Rerun: the store serves both cells without touching the
        # simulator.
        fresh = BenchContext(
            quick=True, scales={"em3d": 0.02},
            cache_dir=tmp_path / "cache", store=store,
        )

        def boom(workload, config, *args):  # noqa: ARG001
            raise AssertionError("cell was re-simulated")

        fresh.run = boom
        again = fresh.run_matrix(["em3d"], self.CONFIGS(), "tlb96")
        for label in self.CONFIGS():
            assert (
                again.get("em3d", label).total_cycles
                == full.get("em3d", label).total_cycles
            )


class TestServeCli:
    def test_sweep_cold_then_warm_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        args = [
            "serve", "sweep", "fig4", "--quick",
            "--store", str(tmp_path / "store"),
        ]
        assert repro_main(args + ["-o", "cold.json"]) == 0
        assert repro_main(args + ["-o", "warm.json"]) == 0
        assert repro_main(
            ["metrics", "diff", "cold.json", "warm.json",
             "--require-identical"]
        ) == 0
        # The warm run's store served everything.
        status = ResultStore(tmp_path / "store").status()
        assert status["entries"] == 10

    def test_status_command(self, tmp_path, capsys):
        assert repro_main(
            ["serve", "status", "--store", str(tmp_path / "store")]
        ) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "quarantined" in out

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            repro_main(
                ["serve", "sweep", "fig4", "--quick", "--jobs", "0",
                 "--store", str(tmp_path / "store")]
            )


class TestSnapshotVersioning:
    def test_snapshots_are_stamped(self, session, tmp_path):
        from repro.obs.snapshot import run_snapshot

        report = session.run(ScenarioSpec("em3d", paper_mtlb(96)))
        snap = run_snapshot(report.to_result(), label="t")
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["repro_version"]

    def test_load_refuses_future_schema_clearly(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "schema": "repro-metrics/99",
            "schema_version": 99,
            "label": "x",
            "runs": {},
        }))
        with pytest.raises(SnapshotSchemaError, match="re-generate"):
            load_snapshot(path)

    def test_load_refuses_version_stamp_mismatch(self, tmp_path):
        path = tmp_path / "stamp.json"
        path.write_text(json.dumps({
            "schema": "repro-metrics/1",
            "schema_version": 2,
            "label": "x",
            "runs": {},
        }))
        with pytest.raises(SnapshotSchemaError, match="schema_version"):
            load_snapshot(path)

    def test_unstamped_snapshots_still_load(self, tmp_path):
        """Snapshots written before the stamp are version 1 de facto."""
        path = write_snapshot(
            {"schema": "repro-metrics/1", "label": "x", "runs": {}},
            tmp_path / "old.json",
        )
        assert load_snapshot(path)["runs"] == {}

    def test_metrics_diff_cli_explains_mismatch(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_snapshot(
            {"schema": "repro-metrics/1", "label": "x", "runs": {}}, good
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": "repro-metrics/99", "label": "x", "runs": {},
        }))
        assert repro_main(
            ["metrics", "diff", str(good), str(bad)]
        ) == 2
        err = capsys.readouterr().err
        assert "repro-metrics/99" in err


class TestValidateSpecMixes:
    def test_mix_spec_validates(self):
        validate_spec(
            ScenarioSpec(("em3d", "gcc"), paper_mtlb(96))
        )

    def test_mix_runs_through_session(self, session):
        report = session.run(
            ScenarioSpec(("em3d", "radix"), paper_mtlb(96),
                         quantum_refs=5_000)
        )
        assert report.ok
        again = session.run(
            ScenarioSpec(("em3d", "radix"), paper_mtlb(96),
                         quantum_refs=5_000)
        )
        assert again.cache_hit
        assert again.stats == report.stats
