"""The simulated machine: wiring, the trace-execution hot loop, timing.

One :class:`System` is one machine for one run: CPU TLB + micro-ITLB +
block TLB, data cache, bus, MMC (with optional MTLB), DRAM, and the
MiniKernel.  ``run(trace)`` executes a workload trace from simulated boot
through process exit and returns a :class:`~repro.sim.results.RunResult`.

Performance note: trace execution is delegated to one of the two
engines in :mod:`repro.sim.engine` (DESIGN.md §10).  The scalar engine
is the per-reference loop, inlining the TLB and direct-mapped cache
*hit* paths against component internals; the vector engine additionally
fast-forwards over whole hit runs with numpy and runs every
configuration, on every cache model and translation backend, unless
``SystemConfig.engine`` asks for ``"scalar"``.  Both are bit-identical
in every statistic; misses and every kernel operation go through the
ordinary component APIs either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.addrspace import BASE_PAGE_SHIFT, BASE_PAGE_SIZE, CACHE_LINE_SIZE
from ..core.mtlb import Mtlb, MtlbFault
from ..core.shadow_space import BucketShadowAllocator
from ..core.shadow_table import ShadowPageTable
from ..cpu.block_tlb import BlockTlb
from ..cpu.micro_itlb import MicroItlb
from ..cpu.miss_handler import SoftwareMissHandler
from ..cpu.tlb import Tlb
from ..errors import (
    MtlbParityFault,
    SilentCorruption,
    SimulationError,
    StaleSystemError,
)
from ..faults import MTLB_PARITY, SHADOW_BITFLIP, FAULT_SITES, FaultPlan
from ..mem.bus import Bus
from ..mem.cache import build_cache
from ..mem.dram import Dram
from ..mem.mmc import MemoryController
from ..mem.stream_buffers import StreamBufferUnit
from ..obs import MetricsRegistry, ObsCollector
from ..os_model.kernel import MiniKernel
from ..os_model.process import Process
from ..trace.events import (
    HeapGrow,
    MapConventional,
    MapRegion,
    Phase,
    Remap,
)
from ..trace.trace import Segment, Trace
from ..core.backends import get_backend
from .config import SystemConfig
from .engine import (
    EngineCounters,
    EngineState,
    run_segment_scalar,
    run_segment_vector,
    writeback_lines,
)
from .results import RunResult
from .stats import RunStats


__all__ = ["SimulationError", "System"]

#: Line offsets within one base page, for range flushes.
_PAGE_LINES = np.arange(0, BASE_PAGE_SIZE, CACHE_LINE_SIZE, dtype=np.int64)
#: Pages per ``cache.flush_range`` call: 2 MB of lines keeps the call's
#: arrays near 3 MB, where a 16 MB superpage in one call held 20 MB.
_FLUSH_PAGES = 512


class System:
    """One simulated machine.  Build a fresh instance per run."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        mm = config.memory_map
        self.dram = Dram(config.dram)
        self.bus = Bus(config.bus)

        #: Built only when fault injection is configured: the disabled
        #: path must be a strict no-op (no plan object, no PRNG draws,
        #: bit-identical results).
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan(config.faults) if config.faults.enabled else None
        )

        #: The translation backend (DESIGN.md §16): owns the structures
        #: between a CPU TLB miss and the installed entry, the refill
        #: path, and its own metrics/sanitizer hooks.  System speaks
        #: only the protocol from here on.
        self.backend = get_backend(config.backend)(config)
        parts = self.backend.build_parts(self)
        self.shadow_table: Optional[ShadowPageTable] = parts.shadow_table
        self.mtlb: Optional[Mtlb] = parts.mtlb
        shadow_allocator: Optional[BucketShadowAllocator] = (
            parts.shadow_allocator
        )

        stream_unit = None
        if config.stream_buffers.enabled:
            stream_unit = StreamBufferUnit(config.stream_buffers, self.dram)
        self.stream_buffers = stream_unit
        self.mmc = MemoryController(
            memory_map=mm,
            dram=self.dram,
            timing=config.mmc,
            shadow_table=self.shadow_table,
            mtlb=self.mtlb,
            stream_buffers=stream_unit,
            fault_plan=self.fault_plan,
        )
        self.cache = build_cache(
            config.cache.size_bytes,
            config.cache.associativity,
            config.cache.physically_indexed,
        )
        self.tlb = Tlb(config.tlb.entries)
        self.micro_itlb = MicroItlb()

        self.kernel = MiniKernel(
            memory_map=mm,
            shadow_allocator=shadow_allocator,
            vm_costs=config.vm_costs,
            paging_costs=config.paging_costs,
            costs=config.kernel_costs,
            fragmentation=config.fragmentation,
            seed=config.seed,
            promotion_config=config.promotion,
            all_shadow=config.all_shadow,
            degradation_policy=config.degradation_policy,
        )
        self.kernel.vm.attach_machine(self)
        self.block_tlb = BlockTlb(
            vbase=0, pbase=0, size=self.kernel.layout.reserved_bytes
        )
        self.miss_handler = SoftwareMissHandler(
            self.kernel.hpt, config.handler
        )
        self.backend.attach(self)

        self.stats = RunStats()

        #: The machine's metric surface (DESIGN.md §9).  Components
        #: register snapshot sources here; at harvest the registry is
        #: collected and RunStats is rebuilt as a view over it.
        self.metrics = MetricsRegistry()
        self._register_metric_sources()

        #: Observability bundle (event tracer + phase attribution);
        #: None unless ``config.obs.enabled``.  The disabled path keeps
        #: every component tracer at None — the null-sink fast path.
        self.obs: Optional[ObsCollector] = None
        self._tracer = None
        if config.obs.enabled:
            self.obs = ObsCollector(config.obs)
            tracer = self.obs.tracer
            self._tracer = tracer
            self.tlb.tracer = tracer
            self.mmc.tracer = tracer
            self.kernel.tracer = tracer
            if self.mtlb is not None:
                self.mtlb.tracer = tracer

        #: Correctness tooling (repro.check, DESIGN.md §11).  Both hooks
        #: fire at every boundary — after each trace segment and each
        #: kernel event — and both default to None, so the disabled path
        #: costs exactly one attribute test per boundary.
        #: ``check_hook(system, item)`` is the tool hook the lockstep
        #: differential harness uses to digest machine state;
        #: ``sanitizers`` is the opt-in invariant sanitizer suite
        #: (``config.sanitize``), which raises
        #: :class:`~repro.errors.InvariantViolation` on the first broken
        #: architectural invariant.
        self.check_hook = None
        self.sanitizers = None
        if config.sanitize:
            from ..check.sanitizers import SanitizerSuite

            self.sanitizers = SanitizerSuite(self)

        #: (segment label, cycles attributed to it) in execution order;
        #: used by the init-cost and phase-analysis benches.
        self.segment_cycles: List[Tuple[str, int]] = []
        self._ran = False
        #: Optional hard cap on references simulated (set by the bench
        #: runner); exceeding it raises ReferenceBudgetExceeded.  Kept
        #: off the config so budgeted and unbudgeted runs stay
        #: config-identical.
        self.reference_budget: Optional[int] = None
        #: Oracle translation checker (config.check_translations = N):
        #: every Nth shadow fill is cross-validated.
        self._oracle_every = config.check_translations
        self._oracle_count = 0
        self._ifetch_counter = 0
        self._ifetch_instr_accum = 0
        # Functional data store, sharded per physical frame so a page-out
        # moves a whole frame's words in O(words actually written): real
        # pfn -> {byte offset -> value}, plus swapped-out page contents
        # keyed by shadow page index.
        self._word_store: Dict[int, Dict[int, int]] = {}
        self._swap_data: Dict[int, Dict[int, int]] = {}

        #: Trace-execution engine for this run (DESIGN.md §10), surfaced
        #: via the ``sim.engine_resolved`` metric and ``RunReport.engine``.
        self.engine = config.engine
        #: The vector engine's adaptive-predictor state (window
        #: geometry; pure perf, never results).  ``MultiProgram`` swaps
        #: a per-process instance in at context switches.
        self.engine_state = EngineState()
        #: Registry-only counts of what the engines did (``sim.*``).
        self.engine_counters = EngineCounters()

    # ================================================================== #
    # Machine port used by the OS (costed primitives)
    # ================================================================== #

    def flush_virtual_range(
        self, process: Process, vstart: int, length: int
    ) -> Tuple[int, int]:
        """Flush a virtual range from the cache, writing dirty lines back.

        Translation uses the process's *current* page tables (callers flush
        before changing mappings).  Every line of every base page the range
        touches goes through the vectorised ``cache.flush_range``, at most
        :data:`_FLUSH_PAGES` pages at a time, and the dirty lines are
        written back in line order (:func:`~repro.sim.engine.writeback_lines`).
        Returns ``(cycles, dirty_lines)``.
        """
        table = process.page_table
        pages = np.arange(vstart, vstart + length, BASE_PAGE_SIZE)
        deltas = np.empty(len(pages), dtype=np.int64)
        for i, page_vaddr in enumerate(pages.tolist()):
            mapping = table.lookup(page_vaddr)
            if mapping is None:
                raise SimulationError(
                    f"flush of unmapped page {page_vaddr:#010x}"
                )
            deltas[i] = mapping.pbase - mapping.vbase
        dirty_lines = 0
        for lo in range(0, len(pages), _FLUSH_PAGES):
            vaddrs = (
                pages[lo:lo + _FLUSH_PAGES, None] + _PAGE_LINES
            ).ravel()
            paddrs = vaddrs + np.repeat(
                deltas[lo:lo + _FLUSH_PAGES], len(_PAGE_LINES)
            )
            dirty = self.cache.flush_range(vaddrs, paddrs)
            writeback_lines(self, dirty)
            dirty_lines += len(dirty)
        cfg = self.config.cache
        cycles = (
            len(pages) * len(_PAGE_LINES) * cfg.flush_line_cycles
            + dirty_lines * cfg.flush_dirty_cycles
        )
        return cycles, dirty_lines

    def shootdown_range(self, vstart: int, length: int) -> int:
        """Purge CPU TLB entries for a virtual range (and the micro-ITLB)."""
        removed = self.tlb.shootdown_range(vstart, length)
        self.micro_itlb.invalidate()
        self.backend.on_shootdown(self, vstart, length)
        return removed

    def uncached_mmc_write(self) -> int:
        """Cycle cost of one uncached control-register write to the MMC."""
        return (
            self.bus.uncached_write_cycles()
            + self.config.mmc.base_occupancy
            * self.config.mmc.cpu_cycles_per_mmc_cycle
        )

    # -- functional data movement used by the pager ---------------------- #

    def page_data_out(self, pfn: int, shadow_index: int) -> None:
        """Move a frame's functional data to the swap slot (page-out).

        The word store is sharded per frame, so this is one dict move
        touching only the offsets that were ever written — not a sweep
        of all 512 word slots of the page.  DRAM cycle accounting is
        unaffected: the pager charges disk/DRAM time itself and this
        path has always been purely functional.
        """
        self._swap_data[shadow_index] = self._word_store.pop(pfn, {})

    def page_data_in(self, pfn: int, shadow_index: int) -> None:
        """Move swapped functional data into a (possibly new) frame."""
        slot = self._swap_data.pop(shadow_index, {})
        if not slot:
            return
        existing = self._word_store.get(pfn)
        if existing is None:
            self._word_store[pfn] = slot
        else:
            existing.update(slot)

    # ================================================================== #
    # Kernel memory accesses (block-TLB mapped, through the data cache)
    # ================================================================== #

    def _kernel_access(self, paddr: int, is_write: bool) -> int:
        """One timed kernel access (e.g. an HPT probe).  Returns cycles."""
        return self._cached_access(paddr, paddr, is_write)

    # ================================================================== #
    # Run orchestration
    # ================================================================== #

    def begin_run(self) -> None:
        """Claim this machine for one run.

        Every way of running a machine (:meth:`run`,
        ``MultiProgram.run``) enters through here rather than poking
        ``_ran`` directly, so a reused machine fails the same way from
        each of them.
        """
        if self._ran:
            raise StaleSystemError(
                "a System instance simulates exactly one run"
            )
        self._ran = True

    def run(self, trace: Trace) -> RunResult:
        """Simulate *trace* from boot through exit; returns the result."""
        self.begin_run()
        stats = self.stats
        kernel = self.kernel

        if self.obs is not None:
            self._obs_sample()
        stats.kernel_cycles += kernel.costs.boot + kernel.costs.fork_exec
        process = kernel.create_process(trace.name)
        if self.obs is not None:
            self._tracer.clock = stats.kernel_cycles
        stats.kernel_cycles += kernel.sys_map(
            process, trace.text_base, trace.text_size
        )
        if self.obs is not None:
            self._obs_sample()
        self._text_page_count = max(1, trace.text_size >> BASE_PAGE_SHIFT)
        self._text_base = trace.text_base

        for item in trace.items:
            if isinstance(item, Segment):
                self._run_segment(item, process)
            else:
                self._exec_event(item, process)

        stats.kernel_cycles += kernel.costs.exit
        subtotal = (
            stats.instruction_cycles
            + stats.memory_stall_cycles
            + stats.tlb_miss_cycles
            + stats.kernel_cycles
        )
        stats.kernel_cycles += kernel.timer_cycles(subtotal)
        stats.total_cycles = (
            stats.instruction_cycles
            + stats.memory_stall_cycles
            + stats.tlb_miss_cycles
            + stats.kernel_cycles
        )

        if self.obs is not None:
            self._tracer.clock = stats.total_cycles
            self._obs_sample()

        self._harvest_component_stats()
        stats.check_consistency()
        return RunResult(
            workload=trace.name,
            config_label=self.config.label,
            stats=stats,
            metrics=self.metrics.collect(),
            obs=self.obs,
            engine=self.engine,
        )

    def _register_metric_sources(self) -> None:
        """Register every component's counter snapshot with the metrics
        registry (DESIGN.md §9).  Sources are pulled only at collect
        time, so registration costs the hot loop nothing."""
        # Late-bound through ``self`` so a component swapped in after
        # construction (tests do this to the cache) is still the one
        # snapshotted at collect time.
        reg = self.metrics
        # Engine-resolution surfacing (registry-only, deliberately NOT
        # a RunStats/extra field: stats must stay bit-identical across
        # engines, while registry metrics ride RunResult.metrics and
        # store records for RunReport/daemon tenants to read).
        # The engine counters ride the same source (DESIGN.md §9.2).
        reg.add_source(
            "sim",
            lambda: {
                "engine_resolved": 1.0 if self.engine == "vector" else 0.0,
                "windows": self.engine_counters.windows,
                "bulk_windows": self.engine_counters.bulk_windows,
                "scalar_refs": self.engine_counters.scalar_refs,
            },
        )
        reg.add_source("tlb", lambda: self.tlb.metrics_snapshot())
        reg.add_source("cache", lambda: self.cache.metrics_snapshot())
        reg.add_source("mmc", lambda: self.mmc.metrics_snapshot())
        reg.add_source(
            "kernel", lambda: self.kernel.stats.metrics_snapshot()
        )
        reg.add_source(
            "promotion",
            lambda: self.kernel.promotion.stats.metrics_snapshot(),
        )
        # Backend-owned sources: the mtlb backend registers the "mtlb"
        # source (when an MTLB exists) exactly as the inline code used
        # to; other backends bring their own counters.
        self.backend.register_metrics(self)
        reg.add_source(
            "vm",
            lambda: {"degraded_remaps": self.kernel.vm.degraded_remap_events},
        )
        plan = self.fault_plan
        if plan is not None:
            reg.add_source(
                "faults",
                lambda: {
                    "injected": plan.stats.total_injected,
                    "recovered": plan.stats.total_recovered,
                },
            )

    def _obs_sample(self) -> None:
        """Record one phase-attribution sample at the current cycle."""
        stats = self.stats
        self.obs.attributor.sample(
            stats.instruction_cycles,
            stats.memory_stall_cycles,
            stats.tlb_miss_cycles,
            stats.kernel_cycles,
        )

    def _harvest_component_stats(self) -> None:
        """Fold component counters into the registry and rebuild RunStats
        as a view over it: the run-loop accumulators are published first,
        then ``collect()`` overlays the authoritative component sources,
        then the dataclass fields are re-read from the registry."""
        stats = self.stats
        reg = self.metrics
        plan = self.fault_plan
        if plan is not None:
            for site in FAULT_SITES:
                if plan.stats.injected[site] or plan.stats.recovered[site]:
                    stats.extra[f"faults_injected_{site}"] = (
                        plan.stats.injected[site]
                    )
                    stats.extra[f"faults_recovered_{site}"] = (
                        plan.stats.recovered[site]
                    )
        stats.publish_to(reg)
        if self.obs is not None:
            self.obs.observe_superpage_sizes(
                reg,
                (
                    record.region.size
                    for record in self.kernel.vm.shadow_superpages.values()
                ),
            )
            self.obs.finalize(reg)
        stats.apply_registry(reg)

    # ================================================================== #
    # Kernel events
    # ================================================================== #

    def _exec_event(self, event, process: Process) -> None:
        stats = self.stats
        kernel = self.kernel
        if self._tracer is not None:
            self._tracer.clock = (
                stats.instruction_cycles
                + stats.memory_stall_cycles
                + stats.tlb_miss_cycles
                + stats.kernel_cycles
            )
        if isinstance(event, MapRegion):
            stats.kernel_cycles += kernel.sys_map(
                process, event.vaddr, event.length
            )
        elif isinstance(event, MapConventional):
            stats.kernel_cycles += (
                kernel.vm.map_region_conventional_superpages(
                    process, event.vaddr, event.length
                )
            )
        elif isinstance(event, Remap):
            if self.config.use_superpages:
                report = kernel.sys_remap(process, event.vaddr, event.length)
                stats.kernel_cycles += report.total_cycles
                stats.remap_pages += report.pages_remapped
                stats.remap_cycles += report.total_cycles
                stats.remap_flush_cycles += report.flush_cycles
        elif isinstance(event, HeapGrow):
            stats.kernel_cycles += kernel.sys_map(
                process, event.vaddr, event.length
            )
            if event.remap and self.config.use_superpages:
                report = kernel.sys_remap(process, event.vaddr, event.length)
                stats.kernel_cycles += report.total_cycles
                stats.remap_pages += report.pages_remapped
                stats.remap_cycles += report.total_cycles
                stats.remap_flush_cycles += report.flush_cycles
        elif isinstance(event, Phase):
            pass
        else:
            raise SimulationError(f"unknown trace event {event!r}")
        if self.obs is not None:
            self._obs_sample()
        if self.check_hook is not None:
            self.check_hook(self, event)
        if self.sanitizers is not None:
            self.sanitizers.run(f"event {type(event).__name__}")

    # ================================================================== #
    # The hot loop
    # ================================================================== #

    def _run_segment(self, seg: Segment, process: Process) -> None:
        """Execute one reference segment with the resolved engine."""
        if self.engine == "vector":
            run_segment_vector(self, seg, process)
        else:
            run_segment_scalar(self, seg, process)
        if self.check_hook is not None:
            self.check_hook(self, seg)
        if self.sanitizers is not None:
            self.sanitizers.run(f"segment {seg.label!r}")

    def _refill_tlb(self, vaddr: int):
        """Software TLB refill; returns (entry, handler cycles).

        Delegates to the translation backend's miss path (DESIGN.md
        §16); both engines call this for every CPU TLB miss.
        """
        return self.backend.refill_tlb(self, vaddr)

    #: Bound on consecutive parity-fault recoveries for one fill; a
    #: correctly scrubbing kernel converges in one pass, so hitting the
    #: bound means recovery itself is broken (or injection rates are so
    #: high every retry re-faults) and the fault should propagate.
    _MAX_PARITY_RECOVERIES = 8

    def _fill_stall(self, paddr: int, op: int) -> int:
        """Cache-fill stall for one miss; services MTLB/parity faults
        inline (page-in for precise MTLB faults, flush-and-refill plus a
        shadow-table scrub for parity faults)."""
        paged_in = False
        parity_recoveries = 0
        while True:
            try:
                fill = self.mmc.cache_fill(paddr, op == 1)
                break
            except MtlbParityFault as fault:
                parity_recoveries += 1
                if parity_recoveries > self._MAX_PARITY_RECOVERIES:
                    raise
                service = self.kernel.handle_parity_fault(fault.shadow_index)
                self.stats.kernel_cycles += service
                if self.fault_plan is not None:
                    site = (
                        MTLB_PARITY
                        if fault.origin == "mtlb"
                        else SHADOW_BITFLIP
                    )
                    self.fault_plan.record_recovery(site)
            except MtlbFault as fault:
                if paged_in:
                    raise
                paged_in = True
                service = self.kernel.handle_mtlb_fault(fault.shadow_index)
                self.stats.kernel_cycles += service
        stall = (
            self.bus.fill_request_cycles()
            + fill.cpu_cycles
            + self.bus.fill_return_cycles()
        )
        self.stats.fills += 1
        self.stats.fill_stall_cycles += stall
        if self._oracle_every and self.mmc.memory_map.is_shadow(paddr):
            self._oracle_count += 1
            if self._oracle_count % self._oracle_every == 0:
                self._oracle_check(paddr, fill.real_paddr)
        return stall

    def _cached_access(self, vaddr: int, paddr: int, is_write: bool) -> int:
        """One access through the data cache; returns its cycles.

        A hit costs 1 cycle; a miss writes its dirty victim back, then
        stalls for the fill (:meth:`_fill_stall`).
        """
        result = self.cache.access(vaddr, paddr, is_write)
        if result.hit:
            return 1
        if result.writeback_paddr is not None:
            self._writeback(result.writeback_paddr)
        return 1 + self._fill_stall(paddr, 1 if is_write else 0)

    def _writeback(self, paddr: int) -> None:
        """Write one dirty line back: the bus transfer, then the MMC."""
        self.bus.writeback_cycles()
        self.mmc.writeback(paddr)

    def _oracle_check(self, paddr: int, real_paddr: int) -> None:
        """Cross-validate one shadow translation against the shadow page
        table and the kernel's superpage records (opt-in differential
        checker; any mismatch is a translation the hardware produced
        that nothing authoritative agrees with)."""
        self.stats.oracle_checks += 1
        mm = self.mmc.memory_map
        shadow_index = (paddr - mm.shadow_base) >> BASE_PAGE_SHIFT
        hw_pfn = real_paddr >> BASE_PAGE_SHIFT
        entry = self.shadow_table.entry(shadow_index)
        if not entry.valid or entry.pfn != hw_pfn:
            raise SilentCorruption(shadow_index, hw_pfn, entry.pfn)
        record = self.kernel.vm.record_for_shadow_index(shadow_index)
        if record is not None:
            expected = record.pfns[shadow_index - record.first_shadow_index]
            if expected is not None and expected != hw_pfn:
                raise SilentCorruption(shadow_index, hw_pfn, expected)

    # ================================================================== #
    # Instruction-side translation model
    # ================================================================== #

    def _model_ifetch(self, seg: Segment) -> None:
        """Charge instruction-page transitions through the TLB hierarchy.

        The instruction cache is perfect (paper Section 3.2) and a
        one-entry micro-ITLB front-ends the main TLB, so only transitions
        between instruction pages cost anything: each does a main-TLB
        lookup, occasionally a software refill.  Transitions rotate over
        the pages of the segment's code footprint.
        """
        interval = self.config.ifetch_page_instructions
        self._ifetch_instr_accum += seg.instructions
        transitions = self._ifetch_instr_accum // interval
        self._ifetch_instr_accum %= interval
        if transitions <= 0:
            return
        pages = min(seg.text_pages, self._text_page_count)
        stats = self.stats
        stats.itlb_transitions += transitions
        tlb = self.tlb
        extra_inst = 0
        miss_cycles = 0
        for _ in range(transitions):
            vaddr = (
                self._text_base
                + (self._ifetch_counter % pages) * BASE_PAGE_SIZE
            )
            self._ifetch_counter += 1
            self.micro_itlb.stats.lookups += 1
            self.micro_itlb.stats.misses += 1
            extra_inst += 1
            entry = tlb.lookup(vaddr)
            if entry is None:
                stats.itlb_main_misses += 1
                entry, cost = self._refill_tlb(vaddr)
                miss_cycles += cost
            self.micro_itlb.refill(entry)
        stats.instruction_cycles += extra_inst
        stats.tlb_miss_cycles += miss_cycles

    def touch(self, process: Process, vaddr: int, is_write: bool = False) -> int:
        """Run one memory reference through the full timed path.

        Exactly what one trace reference does — CPU TLB (with software
        refill on a miss), cache, and on a cache miss the bus + MMC (+
        MTLB) — outside of a trace run.  Returns the cycle cost.  Used
        by examples, microbenchmarks and directed tests.
        """
        cycles = 0
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry, cycles = self._refill_tlb(vaddr)
        return cycles + self._cached_access(
            vaddr, entry.translate(vaddr), is_write
        )

    # ================================================================== #
    # Functional word access (integration-test surface)
    # ================================================================== #

    def store_word(self, process: Process, vaddr: int, value: int) -> None:
        """Functionally store a value through the full translation path."""
        real = self._functional_translate(process, vaddr, is_write=True)
        frame = self._word_store.setdefault(real >> BASE_PAGE_SHIFT, {})
        frame[real & (BASE_PAGE_SIZE - 1)] = value

    def load_word(self, process: Process, vaddr: int) -> Optional[int]:
        """Functionally load a value through the full translation path."""
        real = self._functional_translate(process, vaddr, is_write=False)
        frame = self._word_store.get(real >> BASE_PAGE_SHIFT)
        if frame is None:
            return None
        return frame.get(real & (BASE_PAGE_SIZE - 1))

    def _functional_translate(
        self, process: Process, vaddr: int, is_write: bool
    ) -> int:
        if vaddr % 8:
            raise ValueError("functional accesses must be 8-byte aligned")
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry, _cost = self._refill_tlb(vaddr)
        paddr = entry.translate(vaddr)
        try:
            return self.mmc.resolve(paddr)
        except MtlbFault as fault:
            self.kernel.handle_mtlb_fault(fault.shadow_index)
            return self.mmc.resolve(paddr)
