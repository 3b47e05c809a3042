"""System configuration: every knob of the simulated machine in one tree.

The defaults reproduce the paper's simulation environment (Section 3.2):
a 240 MHz single-issue CPU; a 512 KB direct-mapped VIPT writeback data
cache with 32-byte lines and single-cycle hits; a 120 MHz Runway-style bus
(2:1 clock ratio); an HP-like MMC; a fully associative unified CPU TLB
with NRU replacement, filled by a software handler probing a 16 K-entry
hashed page table; and, when enabled, a 128-entry 2-way NRU MTLB.

Presets:

* :func:`paper_base` — the normalisation baseline: 96-entry CPU TLB, no
  MTLB;
* :func:`paper_no_mtlb` / :func:`paper_mtlb` — the Figure 3 matrix;
* :func:`figure4_configs` — the Figure 4 MTLB size/associativity sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core.addrspace import PhysicalMemoryMap
from ..core.backends import DEFAULT_BACKEND, get_backend
from ..core.backends.coalesced import CoalescedConfig
from ..core.backends.victima import VictimaConfig
from ..cpu.miss_handler import MissHandlerCosts
from ..faults import FaultConfig
from ..mem.bus import BusTiming
from ..mem.dram import DramTiming
from ..mem.mmc import MmcTiming
from ..mem.stream_buffers import StreamBufferConfig
from ..obs import ObsConfig
from ..os_model.kernel import KernelCosts
from ..os_model.paging import PagingCosts
from ..os_model.promotion import PromotionConfig
from ..os_model.vm import VmCosts

#: CPU clock in Hz (240 MHz), for converting cycles to seconds in reports.
CPU_HZ = 240_000_000


@dataclass(frozen=True)
class TlbConfig:
    """CPU TLB parameters."""

    entries: int = 96


@dataclass(frozen=True)
class MtlbConfig:
    """Memory-controller TLB parameters.

    ``associativity=0`` means fully associative.  ``enabled=False`` gives
    the conventional baseline: no shadow window is decoded and no
    per-operation shadow check is charged.
    """

    enabled: bool = False
    entries: int = 128
    associativity: int = 2


@dataclass(frozen=True)
class CacheConfig:
    """Data cache parameters (paper: 512 KB direct-mapped, 32 B lines)."""

    size_bytes: int = 512 << 10
    associativity: int = 1
    #: False = virtually indexed (the paper's PA8000-like cache); True =
    #: physically indexed, which the page-recoloring extension needs.
    physically_indexed: bool = False
    #: Cycles charged per line visited by a flush loop (fdc-style
    #: instruction); calibrated so a 4 KB page flush costs ~1400 cycles
    #: as measured in the paper's Section 3.3.
    flush_line_cycles: int = 10
    #: Extra cycles per dirty line written back during a flush.
    flush_dirty_cycles: int = 4


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated machine."""

    tlb: TlbConfig = TlbConfig()
    mtlb: MtlbConfig = MtlbConfig()
    cache: CacheConfig = CacheConfig()
    bus: BusTiming = BusTiming()
    dram: DramTiming = DramTiming()
    mmc: MmcTiming = MmcTiming()
    handler: MissHandlerCosts = MissHandlerCosts()
    vm_costs: VmCosts = VmCosts()
    kernel_costs: KernelCosts = KernelCosts()
    paging_costs: PagingCosts = PagingCosts()
    memory_map: PhysicalMemoryMap = PhysicalMemoryMap()
    #: Execute Remap/HeapGrow-remap trace events (shadow superpages).
    #: Only meaningful with an enabled MTLB.
    use_superpages: bool = False
    #: Online promotion policy (Section 5 / Romer-style): the kernel
    #: remaps regions to shadow superpages on its own once their TLB
    #: misses cross the threshold.  Usually used with
    #: ``use_superpages=False`` so static remap hints are ignored.
    promotion: PromotionConfig = PromotionConfig()
    #: MMC stream buffers (Section 6 extension): prefetch sequential
    #: miss streams behind the MTLB's retranslation.
    stream_buffers: StreamBufferConfig = StreamBufferConfig()
    #: Section 4's all-shadow mode: every user mapping is named by
    #: shadow addresses, so the MTLB translates *all* traffic (for
    #: machines whose whole physical address space is populated).
    all_shadow: bool = False
    #: Physical frame hand-out order; "shuffled" models a long-running
    #: machine whose free list is scattered.
    fragmentation: str = "shuffled"
    seed: int = 1998
    #: Average instructions per instruction-page transition, for the
    #: micro-ITLB model (one 4 KB page of PA-RISC-ish code is ~1024
    #: instructions; loops re-execute pages, so transitions are rarer).
    ifetch_page_instructions: int = 4096
    #: Deterministic fault injection (DESIGN.md "Fault model and
    #: recovery").  The all-zero default is a strict no-op: no
    #: FaultPlan is built and no PRNG is ever consulted, so results are
    #: bit-identical to a build without the fault layer.
    faults: FaultConfig = FaultConfig()
    #: Oracle translation checker: cross-validate every Nth shadow
    #: translation against the shadow page table and the kernel's
    #: superpage records, raising
    #: :class:`~repro.errors.SilentCorruption` on any escape.  0 (the
    #: default) disables the checker entirely.
    check_translations: int = 0
    #: Shadow-space exhaustion policy: demote failed superpage plans to
    #: smaller shadow superpages / base pages ("demote"), or propagate
    #: ShadowSpaceExhausted ("abort").
    degradation_policy: str = "demote"
    #: Observability (DESIGN.md §9): event tracing and phase-resolved
    #: cycle attribution.  Disabled by default; the disabled path costs
    #: one predictable branch per miss-path event and keeps RunStats
    #: bit-identical to a build without the obs layer.
    obs: ObsConfig = ObsConfig()
    #: Trace-execution engine (DESIGN.md §10).  ``"scalar"`` is the
    #: per-reference loop, kept as the oracle; ``"vector"`` is the
    #: fast-forward engine that retires whole TLB-hit + cache-hit runs
    #: with numpy and is bit-identical to scalar in every
    #: RunStats/metrics value.  It runs every configuration — every
    #: cache model, backend, fault plan and job mix — and is the
    #: default.
    engine: str = "vector"
    #: Translation backend (DESIGN.md §16): which machine owns the path
    #: between a CPU TLB miss and the installed entry.  ``"mtlb"`` is
    #: the paper's design (and covers the conventional baseline when
    #: ``mtlb.enabled`` is False); ``"coalesced"`` and ``"victima"``
    #: are the comparison architectures.  Resolved against the registry
    #: in :mod:`repro.core.backends`; unknown names raise
    #: :class:`~repro.errors.UnknownBackend` here, at config time.
    backend: str = DEFAULT_BACKEND
    #: Knobs of the range-coalescing backend; inert (and excluded from
    #: result fingerprints) unless ``backend="coalesced"``.
    coalesced: CoalescedConfig = CoalescedConfig()
    #: Knobs of the cache-resident entry pool; inert (and excluded from
    #: result fingerprints) unless ``backend="victima"``.
    victima: VictimaConfig = VictimaConfig()
    #: Invariant sanitizers (DESIGN.md §11).  When True, an architectural
    #: invariant suite (``repro.check.sanitizers``) audits the TLB,
    #: cache, shadow page table, MTLB, and frame allocator after every
    #: trace segment and kernel event, raising
    #: :class:`~repro.errors.InvariantViolation` on the first broken
    #: invariant.  The sanitizers only *read* state, so results stay
    #: bit-identical either way; the disabled path costs one attribute
    #: test per boundary.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("scalar", "vector"):
            raise ValueError(
                f"engine must be 'scalar' or 'vector', got {self.engine!r}"
            )
        # Backend resolution is part of construction: unknown names die
        # here (UnknownBackend) and each backend vetoes knob
        # combinations it cannot run (the mtlb backend owns the four
        # historical shadow-machine checks).
        get_backend(self.backend).validate(self)
        if self.check_translations < 0:
            raise ValueError("check_translations must be >= 0")
        if self.degradation_policy not in ("demote", "abort"):
            raise ValueError(
                "degradation_policy must be 'demote' or 'abort', "
                f"got {self.degradation_policy!r}"
            )

    @property
    def label(self) -> str:
        """Short human-readable configuration tag for report rows.

        Non-default backends get an ``@backend`` suffix so cross-backend
        sweeps produce distinct run keys; ``mtlb`` configs keep their
        historical labels.
        """
        if self.mtlb.enabled:
            assoc = (
                "full"
                if self.mtlb.associativity in (0, self.mtlb.entries)
                else f"{self.mtlb.associativity}w"
            )
            label = (
                f"tlb{self.tlb.entries}+mtlb{self.mtlb.entries}{assoc}"
            )
        else:
            label = f"tlb{self.tlb.entries}"
        if self.backend != DEFAULT_BACKEND:
            label += f"@{self.backend}"
        return label


# ---------------------------------------------------------------------- #
# Presets
# ---------------------------------------------------------------------- #


def paper_base() -> SystemConfig:
    """The paper's normalisation base: 96-entry CPU TLB, no MTLB."""
    return SystemConfig(tlb=TlbConfig(entries=96))


def paper_no_mtlb(tlb_entries: int) -> SystemConfig:
    """A conventional system with the given CPU TLB size."""
    return SystemConfig(tlb=TlbConfig(entries=tlb_entries))


def paper_mtlb(
    tlb_entries: int,
    mtlb_entries: int = 128,
    mtlb_associativity: int = 2,
) -> SystemConfig:
    """An MTLB system: shadow superpages enabled, given geometry."""
    return SystemConfig(
        tlb=TlbConfig(entries=tlb_entries),
        mtlb=MtlbConfig(
            enabled=True,
            entries=mtlb_entries,
            associativity=mtlb_associativity,
        ),
        use_superpages=True,
    )


def paper_promotion(
    tlb_entries: int = 96,
    misses_per_page: float = 3.0,
    mtlb_entries: int = 128,
    mtlb_associativity: int = 2,
) -> SystemConfig:
    """An MTLB system with *online* superpage promotion.

    Static remap hints in traces are ignored; the kernel promotes
    regions itself once their misses cross the threshold (extension of
    Section 5's discussion).
    """
    return SystemConfig(
        tlb=TlbConfig(entries=tlb_entries),
        mtlb=MtlbConfig(
            enabled=True,
            entries=mtlb_entries,
            associativity=mtlb_associativity,
        ),
        use_superpages=False,
        promotion=PromotionConfig(
            enabled=True, misses_per_page=misses_per_page
        ),
    )


def figure3_configs() -> Dict[str, SystemConfig]:
    """The Figure 3 matrix: TLB in {64, 96, 128} x {no MTLB, 128e MTLB}."""
    configs: Dict[str, SystemConfig] = {}
    for entries in (64, 96, 128):
        no = paper_no_mtlb(entries)
        yes = paper_mtlb(entries)
        configs[no.label] = no
        configs[yes.label] = yes
    return configs


def figure4_configs() -> Dict[str, SystemConfig]:
    """The Figure 4 sweep: 128-entry TLB, MTLB size x associativity.

    Includes the no-MTLB reference and MTLB entries in {128, 256, 512}
    with associativity in {2, 4, full}.
    """
    configs: Dict[str, SystemConfig] = {"tlb128": paper_no_mtlb(128)}
    for entries in (128, 256, 512):
        for assoc in (2, 4, 0):
            cfg = paper_mtlb(128, entries, assoc)
            configs[cfg.label] = cfg
    return configs


def with_check_penalty(config: SystemConfig, mmc_cycles: int) -> SystemConfig:
    """Return *config* with a different per-operation shadow-check cost.

    Used by ablation A3 (the paper calls its 1-cycle assumption "likely
    overly conservative").
    """
    return replace(config, mmc=replace(config.mmc, shadow_check=mmc_cycles))
