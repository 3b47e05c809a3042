"""Service-layer chaos: deterministic failure injection for sweeps.

PR 1 proved the *simulated hardware's* recovery paths with seeded
:class:`~repro.faults.FaultPlan` injection; this module does the same
for the *scenario service* (DESIGN.md §13).  A :class:`ChaosPlan` is
seeded exactly like a fault plan — each named site owns a private PRNG
seeded from ``(seed, site)`` plus a consultation counter, via the
shared :class:`~repro.faults.schedule.SiteSchedule` machinery — and is
consulted by the supervisor at two kinds of sites:

**dispatch sites** (consulted once per scenario dispatch, the decision
ships to the worker as a :class:`ChaosDirective`):

* ``worker_kill`` — the worker SIGKILLs itself before touching the
  scenario (models an OOM kill / segfault; the supervisor must respawn
  and retry exactly that scenario);
* ``worker_stall`` — the worker sleeps far past any deadline (models a
  hang; the watchdog must hard-kill it within deadline + grace);
* ``slow_shard`` — the worker sleeps a small latency before running
  (models a loaded machine; nothing should fail, results identical);

**commit sites** (consulted once per store commit, applied in the
supervising process):

* ``store_corrupt`` — a byte of the just-written record is flipped
  (the commit verifier must catch it via the store's CRC and rewrite);
* ``store_enospc`` / ``store_eio`` — the commit raises ``OSError``
  (``ENOSPC``/``EIO``) before any byte is written (the supervisor must
  retry the commit with backoff).

The contract under test (``repro chaos soak``): under any chaos seed,
every non-poisoned scenario's stored result is **bit-identical** to a
chaos-free run — injection may cost retries and wall time, never
results.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.schedule import SiteSchedule, validate_sites

__all__ = [
    "CHAOS_SITES",
    "ChaosConfig",
    "ChaosDirective",
    "ChaosPlan",
    "SoakReport",
    "SoakSeedOutcome",
    "default_chaos",
    "run_soak",
]

#: The named service-layer injection sites, in documentation order.
WORKER_KILL = "worker_kill"
WORKER_STALL = "worker_stall"
SLOW_SHARD = "slow_shard"
STORE_CORRUPT = "store_corrupt"
STORE_ENOSPC = "store_enospc"
STORE_EIO = "store_eio"

CHAOS_SITES: Tuple[str, ...] = (
    WORKER_KILL,
    WORKER_STALL,
    SLOW_SHARD,
    STORE_CORRUPT,
    STORE_ENOSPC,
    STORE_EIO,
)

#: Dispatch-time sites (decided in the parent, executed in the worker).
DISPATCH_SITES: Tuple[str, ...] = (WORKER_KILL, WORKER_STALL, SLOW_SHARD)

#: Commit-time sites (decided and applied in the supervising process).
COMMIT_SITES: Tuple[str, ...] = (STORE_CORRUPT, STORE_ENOSPC, STORE_EIO)


@dataclass(frozen=True)
class ChaosConfig:
    """Chaos-injection knobs; the all-zero default is a strict no-op.

    Rates are per-consultation probabilities in ``[0, 1]``;
    ``triggers`` pins injections to exact consultation counts (1-based,
    per site) — the form directed tests use.  ``stall_seconds`` is how
    long a stalled worker sleeps (far past any sane deadline, so the
    watchdog *must* kill it); ``slow_seconds`` is the slow-shard
    latency.
    """

    seed: int = 2024
    worker_kill_rate: float = 0.0
    worker_stall_rate: float = 0.0
    slow_shard_rate: float = 0.0
    store_corrupt_rate: float = 0.0
    store_enospc_rate: float = 0.0
    store_eio_rate: float = 0.0
    #: Exact-fire points: ((site, consultation_number), ...), 1-based.
    triggers: Tuple[Tuple[str, int], ...] = ()
    stall_seconds: float = 3600.0
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        validate_sites(
            CHAOS_SITES,
            {site: self.rate_of(site) for site in CHAOS_SITES},
            self.triggers,
        )
        if self.stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be non-negative")

    def rate_of(self, site: str) -> float:
        """Return the probabilistic rate configured for *site*."""
        return getattr(self, f"{site}_rate")

    @property
    def enabled(self) -> bool:
        """True if any injection can ever fire (rates or triggers)."""
        return bool(self.triggers) or any(
            self.rate_of(site) > 0.0 for site in CHAOS_SITES
        )


def default_chaos(seed: int) -> ChaosConfig:
    """The ``--chaos``/soak rate mix: every site exercised, sweep still
    expected to complete (every injection is retryable: killed or
    stalled workers and disk errors are retried with backoff)."""
    return ChaosConfig(
        seed=seed,
        worker_kill_rate=0.06,
        worker_stall_rate=0.03,
        slow_shard_rate=0.10,
        store_corrupt_rate=0.06,
        store_enospc_rate=0.04,
        store_eio_rate=0.03,
    )


@dataclass(frozen=True)
class ChaosDirective:
    """The dispatch-site decisions for one scenario, shipped to its
    worker alongside the spec (picklable, inert when all-default)."""

    kill: bool = False
    stall_seconds: Optional[float] = None
    slow_seconds: Optional[float] = None

    @property
    def active(self) -> bool:
        return bool(
            self.kill
            or self.stall_seconds is not None
            or self.slow_seconds is not None
        )


class ChaosPlan:
    """The seeded, per-site chaos schedule for one sweep.

    The supervisor consults :meth:`dispatch_directive` once per
    scenario dispatch and :meth:`commit_fault` /
    :meth:`corrupts_commit` once per store commit.  Decisions are a
    pure function of ``(config, consultation order)``; the fired
    schedule is kept so tests can assert determinism.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self._sched = SiteSchedule(
            config.seed,
            CHAOS_SITES,
            {site: config.rate_of(site) for site in CHAOS_SITES},
            config.triggers,
        )
        #: Injections fired, per site.
        self.injected: Dict[str, int] = {site: 0 for site in CHAOS_SITES}

    @property
    def schedule(self) -> List[Tuple[str, int]]:
        """Every fired injection as (site, consultation_number)."""
        return self._sched.schedule

    def fires(self, site: str) -> bool:
        """Consult one site; True means inject now."""
        fired = self._sched.fires(site)
        if fired:
            self.injected[site] += 1
        return fired

    def consultations(self, site: str) -> int:
        return self._sched.consultations(site)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- site groups ----------------------------------------------------- #

    def dispatch_directive(self) -> ChaosDirective:
        """Consult the dispatch sites for one scenario dispatch."""
        kill = self.fires(WORKER_KILL)
        stall = self.fires(WORKER_STALL)
        slow = self.fires(SLOW_SHARD)
        return ChaosDirective(
            kill=kill,
            stall_seconds=self.config.stall_seconds if stall else None,
            slow_seconds=self.config.slow_seconds if slow else None,
        )

    def commit_fault(self) -> Optional[OSError]:
        """Consult the disk-fault commit sites; an OSError to raise
        *instead of* writing, or None to let the commit proceed."""
        if self.fires(STORE_ENOSPC):
            return OSError(
                errno.ENOSPC, "injected chaos: no space left on device"
            )
        if self.fires(STORE_EIO):
            return OSError(errno.EIO, "injected chaos: input/output error")
        return None

    def corrupts_commit(self) -> bool:
        """Consult the corruption-on-write site for one commit."""
        return self.fires(STORE_CORRUPT)


def corrupt_record_file(path: Path) -> bool:
    """Flip one byte of a just-written record (the corruption-on-write
    injection's disk effect).  Returns False when the file is absent
    (e.g. the commit itself was skipped on a read-only store)."""
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return False
    if not blob:
        return False
    blob[len(blob) // 2] ^= 0xFF
    try:
        path.write_bytes(bytes(blob))
    except OSError:
        return False
    return True


# ====================================================================== #
# Chaos soak: sweeps under randomized chaos must match a clean run
# ====================================================================== #


@dataclass
class SoakSeedOutcome:
    """One chaos seed's verdict against the clean baseline."""

    seed: int
    ok: bool
    entries: int = 0
    matched: int = 0
    poisoned: List[str] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    max_kill_overshoot: float = 0.0
    problems: List[str] = field(default_factory=list)


@dataclass
class SoakReport:
    """The full soak verdict: every seed vs the chaos-free baseline."""

    clean_entries: int
    outcomes: List[SoakSeedOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def render(self) -> str:
        lines = [
            f"chaos soak: {len(self.outcomes)} seed(s) vs a clean run "
            f"of {self.clean_entries} stored result(s)"
        ]
        for o in self.outcomes:
            verdict = "ok" if o.ok else "FAIL"
            injected = sum(o.injected.values())
            lines.append(
                f"  seed {o.seed}: [{verdict}] {o.matched}/{o.entries} "
                f"bit-identical, {len(o.poisoned)} poisoned, "
                f"{injected} injection(s), max kill overshoot "
                f"{o.max_kill_overshoot:.2f}s"
            )
            for label in o.poisoned:
                lines.append(f"    poisoned: {label}")
            for problem in o.problems:
                lines.append(f"    problem: {problem}")
        return "\n".join(lines)


def _store_records(store) -> Dict[str, bytes]:
    """Every committed record's raw bytes by fingerprint (one file per
    entry holds its stats and metrics)."""
    return {
        fp: store.record_path(fp).read_bytes() for fp in store.keys()
    }


def run_soak(
    specs: Sequence[object],
    store_root: Path,
    seeds: Sequence[int],
    jobs: int = 2,
    quick: Optional[bool] = None,
    scales: Optional[Dict[str, float]] = None,
    cache_dir: Optional[Path] = None,
    policy: Optional[object] = None,
    chaos_rates: Optional[ChaosConfig] = None,
    overshoot_margin: float = 2.0,
    progress=None,
) -> SoakReport:
    """Drive one clean sweep, then the same sweep under each chaos
    seed, and verify store bit-identity minus the scenarios that
    failed (the sweep's in-memory poison report).

    *chaos_rates* (default :func:`default_chaos`) supplies the rate mix;
    its ``seed`` field is replaced by each soak seed in turn.  Every
    sweep runs with *policy* supervision (default
    :class:`~repro.serve.supervise.SupervisionPolicy` soak defaults) on
    *jobs* workers against a fresh store under *store_root*.
    """
    import dataclasses as _dc

    from ..api import Session
    from .client import SweepClient
    from .supervise import SupervisionPolicy

    if policy is None:
        policy = SupervisionPolicy(
            deadline_seconds=30.0, grace_seconds=2.0
        )
    store_root = Path(store_root)

    def _log(message: str) -> None:
        if progress is not None:
            progress(message)

    def _sweep(name: str, chaos: Optional[ChaosConfig]):
        session = Session(
            quick=quick, scales=scales, cache_dir=cache_dir,
            store=store_root / name, jobs=jobs,
        )
        client = SweepClient(
            session=session, jobs=jobs, policy=policy, chaos=chaos,
        )
        client.sweep(list(specs), raise_errors=False)
        return client

    _log(f"clean sweep: {len(specs)} scenario(s) on {jobs} worker(s)...")
    clean = _sweep("clean", None)
    clean_records = _store_records(clean.store)
    report = SoakReport(clean_entries=len(clean_records))

    base_rates = chaos_rates if chaos_rates is not None else default_chaos(0)
    for seed in seeds:
        chaos = _dc.replace(base_rates, seed=seed)
        _log(f"chaos sweep: seed {seed}...")
        client = _sweep(f"chaos{seed}", chaos)
        supervision = client.last_supervision
        outcome = SoakSeedOutcome(seed=seed, ok=True)
        if supervision is not None:
            outcome.poisoned = [
                record.label for record in supervision.poison
            ]
            outcome.max_kill_overshoot = max(
                supervision.kill_overshoots, default=0.0
            )
            if supervision.kill_overshoots and (
                outcome.max_kill_overshoot
                > policy.grace_seconds + overshoot_margin
            ):
                outcome.ok = False
                outcome.problems.append(
                    f"watchdog kill overshot deadline+grace by "
                    f"{outcome.max_kill_overshoot:.2f}s "
                    f"(grace {policy.grace_seconds:g}s "
                    f"+ margin {overshoot_margin:g}s)"
                )
        poisoned_fps = set()
        if supervision is not None:
            poisoned_fps = {
                record.fingerprint
                for record in supervision.poison
                if record.fingerprint
            }
        outcome.injected = dict(
            client.scheduler.chaos_plan.injected
            if client.scheduler.chaos_plan is not None else {}
        )
        outcome.counters = {
            name: value
            for name, value in client.registry.collect().items()
            if name.startswith("serve.")
        }
        chaos_records = _store_records(client.store)
        expected = {
            fp: blob for fp, blob in clean_records.items()
            if fp not in poisoned_fps
        }
        outcome.entries = len(expected)
        for fp, blob in expected.items():
            got = chaos_records.get(fp)
            if got is None:
                outcome.ok = False
                outcome.problems.append(
                    f"entry {fp[:12]}… missing from the chaos store"
                )
            elif got != blob:
                outcome.ok = False
                outcome.problems.append(
                    f"entry {fp[:12]}… differs from the clean run"
                )
            else:
                outcome.matched += 1
        extra = set(chaos_records) - set(clean_records)
        if extra:
            outcome.ok = False
            outcome.problems.append(
                f"{len(extra)} entr(ies) present only under chaos"
            )
        report.outcomes.append(outcome)
        _log(
            f"  seed {seed}: {outcome.matched}/{outcome.entries} "
            f"bit-identical, {len(outcome.poisoned)} poisoned"
        )
    return report
