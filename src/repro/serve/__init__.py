"""repro.serve — the scenario service (DESIGN.md §12–14).

Seven layers, bottom-up:

* :mod:`~repro.serve.fingerprint` — canonical scenario fingerprints,
  the content address of one simulation outcome;
* :mod:`~repro.serve.store` — the content-addressed, CRC-checked
  :class:`ResultStore` of completed runs, one self-checksummed JSON
  file per entry (corrupt entries quarantined, never served; writes
  fsync'd for crash durability; ``gc()`` prunes orphaned write
  stages);
* :mod:`~repro.serve.supervise` — the supervised shard pool: deadlines
  with a hard-kill watchdog, retry-with-backoff (the one retry rule the
  serial loop follows too), poison reporting, graceful SIGINT/SIGTERM
  draining — in batch mode (:meth:`ShardSupervisor.run`) or resident
  mode (:meth:`ShardSupervisor.serve`);
* :mod:`~repro.serve.chaos` — deterministic service-layer failure
  injection (seeded like :mod:`repro.faults`) and the ``repro chaos
  soak`` bit-identity harness;
* :mod:`~repro.serve.scheduler` / :mod:`~repro.serve.client` — the
  synchronous :class:`SweepScheduler` (one ``sweep()`` for every entry
  point: an in-process loop or supervised workers, every outcome
  settled and committed by one step, obs-instrumented) and its
  :class:`SweepClient` front door (local scheduler or ``daemon=`` HTTP
  transport);
* :mod:`~repro.serve.queue` / :mod:`~repro.serve.http` /
  :mod:`~repro.serve.daemon` — the resident scenario daemon: a
  priority + weighted-fair tenant queue multiplexing many HTTP clients
  onto one warm pool, streaming NDJSON results and Prometheus metrics.

``repro serve sweep``, ``repro serve daemon``, ``repro serve status``,
``repro serve gc``, and ``repro chaos soak`` are the CLI over this
package; :meth:`repro.bench.runner.BenchContext.run_matrix` is its
oldest client.
"""

from .chaos import (
    CHAOS_SITES,
    ChaosConfig,
    ChaosPlan,
    SoakReport,
    default_chaos,
    run_soak,
)
from .client import SweepClient
from .daemon import ScenarioDaemon
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_scenario,
    scenario_fingerprint,
)
from .queue import FairQueue, QueueClosed
from .scheduler import (
    SweepScheduler,
    execute_spec,
    guarded_commit,
    resolve_scales,
    spec_fingerprint,
    spec_scale,
)
from .store import (
    STORE_SCHEMA,
    ResultStore,
    StoreRecord,
    atomic_write_bytes,
    default_store_root,
)
from .supervise import (
    EXIT_ABORTED,
    EXIT_INTERRUPTED,
    PoisonRecord,
    ShardSupervisor,
    ShutdownGuard,
    SupervisionPolicy,
    SupervisionReport,
    TaskIntake,
)

__all__ = [
    "CHAOS_SITES",
    "ChaosConfig",
    "ChaosPlan",
    "EXIT_ABORTED",
    "EXIT_INTERRUPTED",
    "FINGERPRINT_VERSION",
    "FairQueue",
    "PoisonRecord",
    "QueueClosed",
    "STORE_SCHEMA",
    "ResultStore",
    "ScenarioDaemon",
    "ShardSupervisor",
    "ShutdownGuard",
    "SoakReport",
    "StoreRecord",
    "SupervisionPolicy",
    "SupervisionReport",
    "SweepClient",
    "SweepScheduler",
    "TaskIntake",
    "atomic_write_bytes",
    "canonical_scenario",
    "default_chaos",
    "default_store_root",
    "execute_spec",
    "guarded_commit",
    "resolve_scales",
    "run_soak",
    "scenario_fingerprint",
    "spec_fingerprint",
    "spec_scale",
]
