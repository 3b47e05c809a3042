"""Unit tests: scenario fingerprints and the content-addressed store.

The store's contract: a hit may be served without simulating, so the
fingerprint must separate everything result-relevant and collapse
everything result-irrelevant — and a read must never return bytes it
cannot vouch for (corrupt entries are quarantined and regenerated).
"""

import dataclasses
import json
import time

import pytest

from repro.errors import SpecValidationError
from repro.serve.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_config,
    canonical_scenario,
    scenario_fingerprint,
)
from repro.serve.store import STORE_SCHEMA, ResultStore, StoreRecord
from repro.sim.config import paper_base, paper_mtlb, paper_no_mtlb
from repro.sim.stats import RunStats


class TestFingerprint:
    def test_deterministic(self):
        a = scenario_fingerprint("em3d", paper_mtlb(96), 0.25, 1998)
        b = scenario_fingerprint("em3d", paper_mtlb(96), 0.25, 1998)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_result_relevant_fields_separate(self):
        base = scenario_fingerprint("em3d", paper_mtlb(96), 0.25, 1998)
        assert base != scenario_fingerprint(
            "gcc", paper_mtlb(96), 0.25, 1998
        )
        assert base != scenario_fingerprint(
            "em3d", paper_no_mtlb(96), 0.25, 1998
        )
        assert base != scenario_fingerprint(
            "em3d", paper_mtlb(96), 0.5, 1998
        )
        assert base != scenario_fingerprint(
            "em3d", paper_mtlb(96), 0.25, 7
        )

    def test_engine_and_sanitize_are_irrelevant(self):
        """Engines are bit-identical and sanitizers are read-only, so a
        vector/sanitized run must be a cache hit for a scalar rerun."""
        config = paper_mtlb(96)
        base = scenario_fingerprint("em3d", config, 0.25, 1998)
        for variant in (
            dataclasses.replace(config, engine="vector"),
            dataclasses.replace(config, engine="scalar"),
            dataclasses.replace(config, sanitize=True),
        ):
            assert scenario_fingerprint(
                "em3d", variant, 0.25, 1998
            ) == base

    def test_canonical_config_strips_irrelevant(self):
        tree = canonical_config(paper_base())
        assert "engine" not in tree
        assert "sanitize" not in tree
        assert "obs" not in tree
        assert "tlb" in tree

    def test_mix_includes_schedule_shape(self):
        mix = ("em3d", "gcc")
        a = scenario_fingerprint(
            mix, paper_mtlb(96), [0.25, 1.0], 1998,
            quantum_refs=100_000, switch_cost=3_000,
        )
        b = scenario_fingerprint(
            mix, paper_mtlb(96), [0.25, 1.0], 1998,
            quantum_refs=50_000, switch_cost=3_000,
        )
        assert a != b

    def test_version_salts_the_hash(self):
        doc = canonical_scenario("em3d", paper_mtlb(96), 0.25, 1998)
        assert doc["fingerprint_version"] == FINGERPRINT_VERSION


def _stats(cycles=1000):
    return RunStats(total_cycles=cycles, references=10)


class TestResultStore:
    FP = "ab" + "0" * 62

    def test_round_trip(self, tmp_path):
        """One entry is one self-checksummed file, and a hit serves the
        committed metrics as floats."""
        store = ResultStore(tmp_path / "store")
        stats = _stats()
        store.put(
            self.FP, workload="em3d", config_label="tlb96",
            stats=stats, metrics={"total_cycles": 1000, "cpi": 1.5},
            meta={"seed": 1998},
        )
        record = store.get(self.FP)
        assert isinstance(record, StoreRecord)
        assert record.workload == "em3d"
        assert record.run_stats() == stats
        assert record.metrics == {"cpi": 1.5, "total_cycles": 1000.0}
        assert all(type(v) is float for v in record.metrics.values())
        assert record.meta["seed"] == 1998
        assert self.FP in store
        path = store.record_path(self.FP)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        doc = json.loads(path.read_text())
        assert doc["schema"] == STORE_SCHEMA == "repro-results/2"
        assert list(doc["metrics"]) == ["cpi", "total_cycles"]

    def test_no_metrics_stored_as_null(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats(), metrics={})
        doc = json.loads(store.record_path(self.FP).read_text())
        assert doc["metrics"] is None
        assert store.get(self.FP).metrics is None

    def test_miss_on_absent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("00" * 32) is None

    def test_corrupt_record_quarantined_and_regenerable(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        path = store.record_path(self.FP)
        record = json.loads(path.read_text())
        record["stats"]["total_cycles"] = 999999  # bit-rot
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert store.get(self.FP) is None  # miss, not bad data
        assert not path.exists()  # moved aside
        assert (store.quarantine_dir / path.name).exists()
        # The scheduler would now regenerate: a fresh put must succeed
        # and verify again.
        store.put(self.FP, "em3d", "tlb96", _stats(2000))
        assert store.get(self.FP).stats["total_cycles"] == 2000

    def test_uncreatable_shard_runs_uncached(self, tmp_path):
        """A store whose shard directory cannot be created is read-only:
        ``put`` writes nothing and returns None instead of raising."""
        root = tmp_path / "store"
        root.write_text("not a directory")
        store = ResultStore(root)
        assert store.put(self.FP, "em3d", "tlb96", _stats()) is None
        assert root.read_text() == "not a directory"

    def test_corrupt_metrics_quarantined(self, tmp_path):
        """The record's one checksum covers its metrics too."""
        store = ResultStore(tmp_path / "store")
        store.put(
            self.FP, "em3d", "tlb96", _stats(),
            metrics={"cpi": 1.5},
        )
        path = store.record_path(self.FP)
        record = json.loads(path.read_text())
        record["metrics"]["cpi"] = 2.5  # bit-rot
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert store.get(self.FP) is None
        assert (store.quarantine_dir / path.name).exists()

    def test_non_numeric_metrics_quarantined(self, tmp_path):
        """A record whose checksum holds but whose metrics are not all
        numbers is malformed, not servable."""
        from repro.serve.store import _record_checksum

        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats(), metrics={"cpi": 1.5})
        path = store.record_path(self.FP)
        record = json.loads(path.read_text())
        record["metrics"]["cpi"] = "fast"
        record["checksum"] = _record_checksum(record)
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="metrics"):
            assert store.get(self.FP) is None
        assert (store.quarantine_dir / path.name).exists()

    def test_truncated_record_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        path = store.record_path(self.FP)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning):
            assert store.get(self.FP) is None

    @pytest.mark.parametrize("version", [1, 99])
    def test_schema_version_mismatch_is_soft_miss(self, tmp_path, version):
        """A past (the two-file layout) or future schema is not
        corruption: warn and miss, leave the entry in place, and let
        the next commit of the fingerprint overwrite it."""
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        path = store.record_path(self.FP)
        record = json.loads(path.read_text())
        record["schema"] = f"repro-results/{version}"
        record["schema_version"] = version
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="schema version"):
            assert store.get(self.FP) is None
        assert path.exists()  # not quarantined
        store.put(self.FP, "em3d", "tlb96", _stats(2000))
        assert store.get(self.FP).stats["total_cycles"] == 2000

    def test_unknown_stats_fields_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(
            self.FP, "em3d", "tlb96",
            {"total_cycles": 1, "not_a_runstats_field": 2},
        )
        with pytest.warns(RuntimeWarning, match="RunStats"):
            assert store.get(self.FP) is None

    def test_status_inventory(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.status()["entries"] == 0
        store.put(self.FP, "em3d", "tlb96", _stats())
        status = store.status()
        assert status["entries"] == 1
        assert status["schema"] == STORE_SCHEMA
        assert status["bytes"] > 0
        assert list(store.keys()) == [self.FP]

    def test_inventory_reads_shards_only(self, tmp_path):
        """Quarantined files and a leftover ``poison/`` directory from
        older releases are neither entries nor keys."""
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        for name in ("quarantine/dead.json", "poison/ee.poison.json"):
            (store.root / name).parent.mkdir()
            (store.root / name).write_text("{}")
        assert list(store.keys()) == [self.FP]
        assert store.status()["entries"] == 1
        assert store.status()["quarantined"] == 1


class TestDurability:
    """Crash-simulation tests: a torn write must never produce a
    silently-corrupt store entry — the worst case is a quarantined
    record that the next sweep regenerates."""

    FP = "cd" + "1" * 62

    def test_atomic_write_bytes_round_trip(self, tmp_path):
        from repro.serve.store import atomic_write_bytes

        path = tmp_path / "deep" / "nested" / "blob.json"
        atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"

    def test_no_tmp_files_survive_a_put(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(
            self.FP, "em3d", "tlb96", _stats(),
            metrics={"cpi": 1.5},
        )
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []

    def test_crash_before_rename_leaves_store_clean(self, tmp_path):
        """A crash between tmp-write and rename leaves only the tmp
        file; the entry is a plain miss and the orphan is invisible to
        keys()/status()."""
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        path = store.record_path(self.FP)
        # Simulate the torn rewrite: tmp written, rename never happened.
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text('{"half": "a record')
        path.unlink()
        assert store.get(self.FP) is None  # miss, no exception
        assert list(store.keys()) == []
        assert store.status()["entries"] == 0

    def test_torn_record_write_quarantines_not_corrupts(self, tmp_path):
        """The other crash window: rename happened but the record bytes
        are truncated (e.g. power loss without the fsync).  The CRC
        check must quarantine the entry — never serve partial JSON."""
        store = ResultStore(tmp_path / "store")
        store.put(self.FP, "em3d", "tlb96", _stats())
        path = store.record_path(self.FP)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.warns(RuntimeWarning):
            assert store.get(self.FP) is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        # Regeneration heals the entry completely.
        store.put(self.FP, "em3d", "tlb96", _stats(4242))
        assert store.get(self.FP).stats["total_cycles"] == 4242


class TestSpecValidation:
    def test_unknown_workload(self):
        from repro.api import ScenarioSpec, validate_spec

        with pytest.raises(SpecValidationError, match="unknown workload"):
            validate_spec(ScenarioSpec("nonesuch"))

    def test_bad_engine_rejected_at_construction(self):
        from repro.api import ScenarioSpec

        with pytest.raises(SpecValidationError, match="engine"):
            ScenarioSpec("em3d", engine="warp")

    def test_auto_is_not_an_engine(self):
        """``vector`` is the default engine and has no other spelling."""
        from repro.api import ScenarioSpec
        from repro.sim.config import SystemConfig

        assert SystemConfig().engine == "vector"
        with pytest.raises(ValueError, match="engine"):
            SystemConfig(engine="auto")
        with pytest.raises(SpecValidationError, match="engine"):
            ScenarioSpec("em3d", engine="auto")

    def test_vector_with_fault_plan_validates(self):
        """PR-8 lift: fault plans batch, so a vector spec carrying one
        passes the pre-spawn probe instead of failing fast."""
        from repro.api import ScenarioSpec, validate_spec
        from repro.faults import FaultConfig

        config = dataclasses.replace(
            paper_mtlb(96),
            faults=FaultConfig(mtlb_parity_rate=0.01),
        )
        validate_spec(ScenarioSpec("em3d", config, engine="vector"))

    def test_nonpositive_scale_rejected(self):
        from repro.api import ScenarioSpec

        with pytest.raises(SpecValidationError, match="scale"):
            ScenarioSpec("em3d", scale=0.0)


class TestConcurrentWriters:
    """Satellite hardening: many processes committing one fingerprint."""

    FP = "cd" + "1" * 62

    def test_parallel_same_fingerprint_writers(self, tmp_path):
        """N processes hammering the same entry must leave one valid,
        servable record — no torn bytes, no quarantine, no .tmp litter.

        Before the private-tmp-name fix, two writers staged through the
        same ``<name>.tmp`` file: the second open truncated the first
        writer's bytes mid-write, so a rename could commit a partial
        file.
        """
        import multiprocessing

        root = tmp_path / "store"
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_hammer_store, args=(str(root), self.FP, 25)
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        store = ResultStore(root)
        record = store.get(self.FP)  # full checksum verification
        assert record is not None
        assert record.run_stats().total_cycles == 4242
        assert record.metrics == {"total_cycles": 4242.0}
        assert not store.quarantine_dir.exists()
        assert list(root.rglob("*.tmp")) == []

    def test_tmp_stage_names_are_private(self, tmp_path):
        from repro.ioutil import unique_tmp_path

        target = tmp_path / "x.json"
        assert unique_tmp_path(target) != unique_tmp_path(target)

    def test_failed_write_cleans_its_stage(self, tmp_path, monkeypatch):
        import repro.serve.store as store_mod

        def boom(src, dst):
            raise OSError("disk says no")

        monkeypatch.setattr(store_mod.os, "replace", boom)
        with pytest.raises(OSError):
            store_mod.atomic_write_bytes(tmp_path / "x.json", b"{}")
        assert list(tmp_path.glob("*.tmp")) == []


def _hammer_store(root, fingerprint, rounds):
    """Worker for test_parallel_same_fingerprint_writers (spawn target
    must be module-level picklable)."""
    from repro.serve.store import ResultStore
    from repro.sim.stats import RunStats

    store = ResultStore(root)
    for _ in range(rounds):
        store.put(
            fingerprint,
            workload="em3d",
            config_label="tlb96",
            stats=RunStats(total_cycles=4242, references=10),
            metrics={"total_cycles": 4242.0},
            meta={"seed": 1998},
        )


class TestGc:
    """``repro serve gc``: prune litter, never entries."""

    FP = "ef" + "2" * 62

    def _seeded(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(
            self.FP, workload="em3d", config_label="tlb96",
            stats=_stats(), meta={},
        )
        return store

    def test_old_tmp_files_pruned_fresh_kept(self, tmp_path):
        import os

        store = self._seeded(tmp_path)
        shard = store.record_path(self.FP).parent
        old = shard / "dead.json.12345.0.tmp"
        old.write_bytes(b"partial")
        ancient = time.time() - 3600
        os.utime(old, (ancient, ancient))
        fresh = shard / "live.json.12345.1.tmp"
        fresh.write_bytes(b"in-flight")
        summary = store.gc(tmp_grace_seconds=900.0)
        assert summary["tmp_removed"] == 1
        assert not old.exists()
        assert fresh.exists()
        assert store.get(self.FP) is not None  # entries untouched

    def test_dry_run_removes_nothing(self, tmp_path):
        import os

        store = self._seeded(tmp_path)
        shard = store.record_path(self.FP).parent
        old = shard / "dead.json.1.0.tmp"
        old.write_bytes(b"partial")
        ancient = time.time() - 3600
        os.utime(old, (ancient, ancient))
        summary = store.gc(dry_run=True)
        assert summary["dry_run"] is True
        assert summary["tmp_removed"] == 1
        assert old.exists()

    def test_quarantine_is_never_garbage(self, tmp_path):
        store = self._seeded(tmp_path)
        store.quarantine_dir.mkdir(parents=True)
        evidence = store.quarantine_dir / "bad.json"
        evidence.write_text("{}")
        store.gc(tmp_grace_seconds=0.0)
        assert evidence.exists()
