"""Golden equivalence on the configurations PR-8 un-scalar-forced.

Before the restriction lift, the default engine dropped to the scalar
loop on set-associative caches, armed fault plans, and multiprogrammed
mixes.  These tests pin the lift's contract on exactly those surfaces:

* the Figure 4 associativity sweep (2-way/4-way/full MTLBs) is
  bit-identical across engines and runs vector by default;
* an armed schedule for every fault site batches, stays bit-identical,
  and actually injects (a clamp that silently suppressed triggers
  would pass a naive identity check);
* sanitized vector runs audit every boundary without perturbing stats;
* multiprogrammed mixes run vector per-process with exact cycle
  attribution;
* hypothesis-sampled (sets, ways, window, backend) geometry,
  including a manually skewed starting window, never changes results.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import BenchContext
from repro.faults import FAULT_SITES, FaultConfig
from repro.obs import stats_metrics
from repro.sim.config import (
    CacheConfig,
    figure4_configs,
    paper_base,
    paper_mtlb,
    paper_no_mtlb,
)
from repro.sim.multiprog import run_job_mix
from repro.sim.system import System
from repro.trace.events import MapRegion
from repro.trace.trace import Trace, make_segment
from repro.workloads import PAPER_SUITE

TINY_SCALES = {name: 0.02 for name in PAPER_SUITE}

#: The Figure 4 sweep's three MTLB associativities at one size — the
#: set-assoc shapes the pre-lift policy refused to batch.
FIG4_LIFTED = ("tlb128+mtlb1282w", "tlb128+mtlb1284w", "tlb128+mtlb128full")


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    return BenchContext(
        quick=True,
        scales=TINY_SCALES,
        cache_dir=tmp_path_factory.mktemp("lifted_traces"),
    )


@pytest.fixture(scope="module")
def em3d_trace(tiny_ctx):
    return tiny_ctx.trace("em3d")


def run_stats(trace, config, engine, window=None):
    """One direct System run (bypasses the context's result cache so we
    can pre-skew predictor state)."""
    system = System(dataclasses.replace(config, engine=engine))
    if window is not None:
        system.engine_state.window = window
    result = system.run(trace)
    assert result.engine == engine
    return system, result.stats


def assert_engines_identical(trace, config, window=None):
    _, scalar = run_stats(trace, config, "scalar")
    system, vector = run_stats(trace, config, "vector", window=window)
    assert dataclasses.asdict(scalar) == dataclasses.asdict(vector)
    assert stats_metrics(scalar) == stats_metrics(vector)
    return system, vector


class TestFigure4Lift:
    @pytest.mark.parametrize("label", FIG4_LIFTED)
    def test_mtlb_assoc_sweep_bit_identical(
        self, em3d_trace, label
    ):
        config = figure4_configs()[label]
        assert_engines_identical(em3d_trace, config)

    @pytest.mark.parametrize("label", FIG4_LIFTED)
    def test_default_engine_is_vector(self, label):
        assert System(figure4_configs()[label]).engine == "vector"

    def test_set_assoc_l1_bit_identical(self, em3d_trace):
        config = dataclasses.replace(
            paper_no_mtlb(96), cache=CacheConfig(associativity=4)
        )
        assert_engines_identical(em3d_trace, config)

    def test_set_assoc_misses_retire_in_numpy(self, em3d_trace):
        """On the MTLB machine a set-associative window's misses retire
        through the cache's LRU schedule and the memory controller's
        batch; the window does not stop at its first miss."""
        config = dataclasses.replace(
            paper_mtlb(96), cache=CacheConfig(associativity=2)
        )
        system, stats = assert_engines_identical(em3d_trace, config)
        counters = system.engine_counters
        assert counters.bulk_windows == counters.windows > 0
        assert stats.cache_misses > counters.windows

    @pytest.mark.parametrize("lines", [2, 3])
    def test_thrashing_set_stays_identical(self, lines):
        """One set cycling through *lines* lines: all hits on two ways,
        all misses on three, either way a schedule round per reference,
        so windows are cut short and the rest runs scalar."""
        base = 0x0200_0000
        stride = 256 << 10  # one set of a 512 KB 2-way cache
        refs = np.arange(20_000)
        trace = Trace(f"thrash-{lines}")
        trace.add(MapRegion(base, 1 << 20, label="thrash"))
        trace.add(make_segment(
            "thrash",
            base + (refs % lines) * stride,
            write_mask=refs % 7 == 0,
            gap=1,
        ))
        config = dataclasses.replace(
            paper_mtlb(96), cache=CacheConfig(associativity=2)
        )
        system, _ = assert_engines_identical(trace, config)
        assert system.engine_counters.bulk_windows > 0


class TestFaultArmedLift:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_armed_site_bit_identical_and_injects(
        self, em3d_trace, site
    ):
        config = dataclasses.replace(
            paper_mtlb(96),
            faults=FaultConfig(triggers=((site, 3), (site, 40))),
        )
        _, stats = assert_engines_identical(em3d_trace, config)
        # Identity alone would also pass if the window clamp silently
        # suppressed every trigger on *both* engines — require that the
        # scheduled faults really landed.
        assert stats.extra.get(f"faults_injected_{site}", 0) >= 1

    def test_auto_picks_vector_when_armed(self):
        config = dataclasses.replace(
            paper_mtlb(96),
            faults=FaultConfig(triggers=(("mtlb_parity", 3),)),
        )
        assert System(config).engine == "vector"


class TestSanitizedLift:
    def test_sanitized_vector_bit_identical(self, em3d_trace):
        config = dataclasses.replace(paper_mtlb(96), sanitize=True)
        system, _ = assert_engines_identical(em3d_trace, config)
        # Every boundary was audited on the vector run, not skipped.
        assert system.sanitizers is not None
        assert system.sanitizers.boundaries_checked > 0

    def test_sanitize_does_not_perturb_vector_stats(self, em3d_trace):
        config = paper_mtlb(96)
        _, plain = run_stats(em3d_trace, config, "vector")
        _, audited = run_stats(
            em3d_trace,
            dataclasses.replace(config, sanitize=True),
            "vector",
        )
        assert dataclasses.asdict(plain) == dataclasses.asdict(audited)


class TestMultiprogLift:
    @pytest.fixture(scope="class")
    def mix(self, tiny_ctx):
        return [tiny_ctx.trace("em3d"), tiny_ctx.trace("gcc")]

    def test_mix_runs_vector_with_exact_attribution(self, mix):
        result = run_job_mix(paper_mtlb(96), mix)
        assert result.engine == "vector"
        assert (
            sum(result.per_process_cycles.values())
            + result.shared_cycles
            == result.total_cycles
        )

    def test_mix_bit_identical_across_engines(self, mix):
        scalar = run_job_mix(
            dataclasses.replace(paper_mtlb(96), engine="scalar"), mix
        )
        vector = run_job_mix(
            dataclasses.replace(paper_mtlb(96), engine="vector"), mix
        )
        assert dataclasses.asdict(
            scalar.result.stats
        ) == dataclasses.asdict(vector.result.stats)
        assert scalar.per_process_cycles == vector.per_process_cycles
        assert scalar.context_switches == vector.context_switches


class TestSampledLiftedGeometries:
    @settings(max_examples=10, deadline=None)
    # Unarmed set-associative samples take the batched LRU schedule,
    # with misses landing mid-window; the skewed windows split it.
    @example(cache_kib=512, ways=2, window=1 << 14, armed=False,
             backend="mtlb")
    @example(cache_kib=64, ways=4, window=64, armed=False,
             backend="victima")
    @given(
        cache_kib=st.sampled_from([64, 256, 512]),
        ways=st.sampled_from([2, 4]),
        window=st.sampled_from([4, 64, 1 << 14]),
        armed=st.booleans(),
        backend=st.sampled_from(["mtlb", "coalesced", "victima"]),
    )
    def test_geometry_never_changes_results(
        self, em3d_trace, cache_kib, ways, window, armed, backend
    ):
        # The MTLB machine arms its parity site; the other backends have
        # no MTLB, so they arm the DRAM path every backend shares.
        if backend == "mtlb":
            base, site = paper_mtlb(96), "mtlb_parity"
        else:
            base, site = paper_base(), "dram_transient"
        faults = (
            FaultConfig(triggers=((site, 5),)) if armed else FaultConfig()
        )
        config = dataclasses.replace(
            base,
            backend=backend,
            cache=CacheConfig(
                size_bytes=cache_kib << 10, associativity=ways
            ),
            faults=faults,
        )
        # A skewed starting window exercises clamp/dense-escape paths
        # at geometry corners; results must not move.
        assert_engines_identical(em3d_trace, config, window=window)
