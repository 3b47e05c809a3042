"""Backend-equivalence suite (DESIGN.md §16).

The load-bearing guarantee of the TranslationBackend refactor: the
default ``mtlb`` backend is the pre-refactor translation path moved,
not changed.  ``tests/data/backend_baseline.json`` pins full RunStats
and store fingerprints captured at the commit *preceding* the refactor;
every run here must reproduce them bit-for-bit.

The new backends get the complementary treatment: they must run every
paper workload end-to-end — including under the sanitizer, whose
backend hook re-audits their private structures against the live page
tables — and obey their designed invariants (victima never changes the
CPU TLB's miss count; coalescing never adds misses and fires under
contiguous frames).

Every backend runs on both engines, so the new backends also join the
engine gates: scalar-vs-vector RunStats identity on three workloads,
and a lockstep run that digests every segment/event boundary on em3d.
vortex is left to the CI gate: its fixed build phase costs seconds at
any scale.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, Session
from repro.bench.runner import BenchContext
from repro.check.lockstep import run_lockstep
from repro.sim.config import (
    paper_base,
    paper_mtlb,
    paper_promotion,
)
from repro.sim.system import System
from repro.workloads import PAPER_SUITE

BASELINE = json.loads(
    (
        Path(__file__).parent.parent / "data" / "backend_baseline.json"
    ).read_text()
)

FACTORIES = {
    "paper_base": paper_base,
    "paper_mtlb96": lambda: paper_mtlb(96),
    "paper_promotion": paper_promotion,
}

#: The non-paper rows of ``repro-bench backends``, as
#: ``id -> (backend, config)``.
BACKEND_ROWS = {
    "coalesced": ("coalesced", paper_base()),
    "coalesced+contig": (
        "coalesced",
        dataclasses.replace(paper_base(), fragmentation="none"),
    ),
    "victima": ("victima", paper_base()),
}


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    return BenchContext(
        quick=True,
        scales=dict(BASELINE["scales"]),
        cache_dir=tmp_path_factory.mktemp("traces"),
        seed=BASELINE["seed"],
    )


class TestMtlbBitIdentity:
    @pytest.mark.parametrize("workload", sorted(PAPER_SUITE))
    @pytest.mark.parametrize("label", sorted(FACTORIES))
    def test_stats_match_pre_refactor_baseline(
        self, context, workload, label
    ):
        want = BASELINE["stats"].get(f"{workload}|{label}")
        if want is None:
            pytest.skip("combination not pinned in the baseline")
        result = context.run(workload, FACTORIES[label]())
        got = dataclasses.asdict(result.stats)
        assert got == want, (
            f"backend='mtlb' diverged from the pre-refactor stats for "
            f"{workload}|{label}"
        )


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    return BenchContext(
        quick=True,
        scales={name: 0.02 for name in PAPER_SUITE},
        cache_dir=tmp_path_factory.mktemp("tiny_traces"),
    )


def backend_config(row: str, engine: str):
    backend, config = BACKEND_ROWS[row]
    return dataclasses.replace(config, backend=backend, engine=engine)


class TestBackendEngineEquivalence:
    @pytest.mark.parametrize("row", sorted(BACKEND_ROWS))
    @pytest.mark.parametrize("workload", ["compress95", "radix", "gcc"])
    def test_engines_bit_identical(self, tiny_ctx, workload, row):
        trace = tiny_ctx.trace(workload)
        scalar = System(backend_config(row, "scalar")).run(trace)
        vector = System(backend_config(row, "vector")).run(trace)
        assert vector.engine == "vector"
        assert dataclasses.asdict(scalar.stats) == dataclasses.asdict(
            vector.stats
        )

    @pytest.mark.parametrize("row", sorted(BACKEND_ROWS))
    def test_lockstep_identical_on_em3d(self, tiny_ctx, row):
        report = run_lockstep(
            tiny_ctx.trace("em3d"), backend_config(row, "vector")
        )
        assert report.identical, report.render()


class TestNewBackendsEndToEnd:
    @pytest.mark.parametrize("backend", ["coalesced", "victima"])
    def test_sanitized_run_is_green(self, context, backend):
        """The sanitizer's backend hook audits the backend's private
        state (pool/directory lockstep, installed-range freshness)
        at every boundary; a clean run is the deep-check."""
        config = dataclasses.replace(
            paper_base(), backend=backend, sanitize=True
        )
        result = context.run("em3d", config)
        assert result.stats.total_cycles > 0

    def test_sanitized_coalesced_contiguous_run_is_green(self, context):
        config = dataclasses.replace(
            paper_base(),
            backend="coalesced",
            fragmentation="none",
            sanitize=True,
        )
        result = context.run("em3d", config)
        assert result.stats.total_cycles > 0

    def test_victima_never_changes_the_miss_count(self, context):
        """Pool hits must only cheapen refills: the CPU TLB sees the
        same insert sequence either way, so its miss count — and
        everything downstream of it — is bit-identical to the
        conventional baseline."""
        base = context.run("em3d", paper_base()).stats
        vict = context.run(
            "em3d",
            dataclasses.replace(paper_base(), backend="victima"),
        ).stats
        assert vict.tlb_misses == base.tlb_misses
        assert vict.total_cycles <= base.total_cycles

    def test_coalescing_fires_under_contiguous_frames(self, context):
        base = context.run("em3d", paper_base()).stats
        contig = context.run(
            "em3d",
            dataclasses.replace(
                paper_base(), backend="coalesced", fragmentation="none"
            ),
        ).stats
        assert contig.tlb_misses < base.tlb_misses

    @pytest.mark.parametrize("backend", ["coalesced", "victima"])
    def test_reach_reported(self, backend):
        config = dataclasses.replace(paper_base(), backend=backend)
        system = System(config)
        assert system.backend.reach_bytes(system) >= 0
        assert system.backend.name == backend


class TestBackendSweeps:
    def test_backend_specs_sweep_and_cache(self, context, tmp_path):
        """A backend spec through the real scenario service: it must
        execute, commit to the content-addressed store under a
        backend-aware fingerprint, and be served from cache on the
        resweep — without colliding with the mtlb run's address."""
        session = Session(
            quick=True,
            scales=dict(BASELINE["scales"]),
            cache_dir=tmp_path / "cache",
            seed=BASELINE["seed"],
            store=tmp_path / "store",
        )
        specs = [
            ScenarioSpec("em3d", paper_base(), seed=BASELINE["seed"]),
            ScenarioSpec(
                "em3d",
                paper_base(),
                seed=BASELINE["seed"],
                backend="coalesced",
            ),
            ScenarioSpec(
                "em3d",
                paper_base(),
                seed=BASELINE["seed"],
                backend="victima",
            ),
        ]
        reports = session.sweep(specs)
        assert all(r.ok for r in reports)
        fingerprints = [r.fingerprint for r in reports]
        assert len(set(fingerprints)) == 3  # backend is in the address
        assert (
            reports[0].fingerprint
            == BASELINE["fingerprints"]["em3d|paper_base"]
        )
        again = session.sweep(specs)
        assert all(r.cache_hit for r in again)
        for first, second in zip(reports, again):
            assert first.stats == second.stats
