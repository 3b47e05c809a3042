"""Content-addressed result store: completed scenarios, never resimulated.

One *entry* per scenario fingerprint (:mod:`repro.serve.fingerprint`):
one file, ``<root>/<fp[:2]>/<fp>.json``, a schema-versioned record
holding the workload/config identity, the scenario's canonical document
(so a human can audit why it hashed where it did), the full
``RunStats`` field mapping, the run's metrics-registry mapping (keys
sorted, every value a float; ``null`` when the run has none), and
provenance meta.  One CRC32 ``checksum`` over the record's own
canonical JSON (as trace-store manifests do, :mod:`repro.trace.store`)
covers all of it.

Reads verify the checksum and the record's shape.  A corrupt entry is
**quarantined** — the file is moved into ``<root>/quarantine/`` with a
RuntimeWarning — and reported as a miss, so the scheduler regenerates
the result; the store never serves bytes it cannot vouch for.  A record
of another schema version is not corruption: it reads as a miss with a
warning, stays in place, and the next commit of its fingerprint
overwrites it.  Writes are atomic *and durable*: tmp file, fsync the
file, ``os.replace``, fsync the directory — so a killed or power-lost
writer leaves either the old entry or none, never a truncated one (and
a truncated record that does sneak in is caught by the checksum and
quarantined, not served).  Only a read-only store runs uncached; any
other disk error reaches the caller.

The store is safe for concurrent readers plus one writer per entry:
entries are immutable once written (content-addressed), and a racing
double-write of the same fingerprint writes identical bytes.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from .._version import __version__
from ..errors import ResultStoreCorrupt
from ..ioutil import atomic_write_bytes
from ..sim.stats import RunStats

#: The store's record schema; version-bumped on layout changes.
STORE_SCHEMA = "repro-results/2"
STORE_SCHEMA_VERSION = 2

#: Write errors that mean the store is read-only, so the run goes
#: uncached; any other error on the record write reaches the caller.
_READ_ONLY_ERRNOS = frozenset((errno.EROFS, errno.EACCES, errno.EPERM))

#: Default store root (overridable per store and via the CLI).
DEFAULT_STORE_ENV = "REPRO_RESULT_STORE"
DEFAULT_STORE_DIR = ".result_store"


def default_store_root() -> Path:
    """The store directory the CLI uses: env override or the default."""
    env = os.environ.get(DEFAULT_STORE_ENV)
    return Path(env) if env else Path(DEFAULT_STORE_DIR)


@dataclass
class StoreRecord:
    """One verified store entry, ready to rebuild a result from."""

    fingerprint: str
    workload: str
    config_label: str
    stats: Dict[str, object]
    metrics: Optional[Dict[str, float]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def run_stats(self) -> RunStats:
        return RunStats(**self.stats)


def _record_checksum(record: Mapping[str, object]) -> int:
    """CRC32 over the record's canonical JSON, ``checksum`` excluded."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ResultStore:
    """Content-addressed, CRC-checked store of completed run results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def record_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def put(
        self,
        fingerprint: str,
        workload: str,
        config_label: str,
        stats: Union[RunStats, Mapping[str, object]],
        metrics: Optional[Mapping[str, float]] = None,
        meta: Optional[Mapping[str, object]] = None,
        scenario: Optional[Mapping[str, object]] = None,
    ) -> Optional[Path]:
        """Persist one completed scenario in one atomic write; returns
        the record path, or None when the store is read-only.

        A read-only store (the shard directory cannot be created, or
        the write fails with ``EROFS``, ``EACCES`` or ``EPERM``) writes
        nothing and the run goes uncached.  Any other ``OSError`` is
        raised, for the caller's commit guard to retry.
        """
        if isinstance(stats, RunStats):
            stats = dataclasses.asdict(stats)
        path = self.record_path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        record: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "schema_version": STORE_SCHEMA_VERSION,
            "repro_version": __version__,
            "fingerprint": fingerprint,
            "workload": workload,
            "config_label": config_label,
            "stats": dict(stats),
            "metrics": (
                {name: float(metrics[name]) for name in sorted(metrics)}
                if metrics else None
            ),
            "meta": dict(meta or {}),
            "scenario": dict(scenario) if scenario is not None else None,
        }
        record["checksum"] = _record_checksum(record)
        try:
            atomic_write_bytes(
                path, json.dumps(record, sort_keys=True).encode("utf-8")
            )
        except OSError as exc:
            if exc.errno not in _READ_ONLY_ERRNOS:
                raise
            return None
        return path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def get(self, fingerprint: str) -> Optional[StoreRecord]:
        """Fetch and verify one entry; None on miss or quarantine."""
        path = self.record_path(fingerprint)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self._quarantine(fingerprint, f"unreadable record ({exc})")
            return None
        if not isinstance(record, dict) or record.get("schema") != (
            STORE_SCHEMA
        ):
            version = (
                record.get("schema_version")
                if isinstance(record, dict) else None
            )
            if isinstance(version, int) and (
                version != STORE_SCHEMA_VERSION
            ):
                # A future/past format, not corruption: leave the file
                # alone; the next commit of this fingerprint replaces it.
                warnings.warn(
                    f"result-store entry {path} has schema version "
                    f"{version}, this build reads "
                    f"{STORE_SCHEMA_VERSION}; treating as a miss",
                    RuntimeWarning,
                )
                return None
            self._quarantine(fingerprint, "unrecognised record schema")
            return None
        if record.get("checksum") != _record_checksum(record):
            self._quarantine(fingerprint, "record checksum mismatch")
            return None
        if record.get("fingerprint") != fingerprint:
            self._quarantine(fingerprint, "fingerprint/path mismatch")
            return None
        stats = record.get("stats")
        known = set(RunStats.__dataclass_fields__)
        if not isinstance(stats, dict) or set(stats) - known:
            self._quarantine(fingerprint, "unknown RunStats fields")
            return None
        metrics = record.get("metrics")
        if metrics is not None and not (
            isinstance(metrics, dict)
            and all(_is_number(value) for value in metrics.values())
        ):
            self._quarantine(fingerprint, "metrics are not all numbers")
            return None
        return StoreRecord(
            fingerprint=fingerprint,
            workload=record.get("workload", ""),
            config_label=record.get("config_label", ""),
            stats=stats,
            metrics=metrics,
            meta=record.get("meta") or {},
        )

    def _quarantine(self, fingerprint: str, reason: str) -> None:
        """Move a bad entry aside (never serve, never silently delete)."""
        path = self.record_path(fingerprint)
        warnings.warn(
            str(ResultStoreCorrupt(path, reason))
            + "; quarantining and regenerating",
            RuntimeWarning,
        )
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Garbage collection (``repro serve gc``)
    # ------------------------------------------------------------------ #

    def gc(
        self,
        tmp_grace_seconds: float = 900.0,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> Dict[str, object]:
        """Prune orphaned ``*.tmp`` write stages; never touches entries.

        A writer killed between open and rename leaves its private tmp
        file behind.  Any tmp file older than *tmp_grace_seconds* is
        dead (live stages exist for milliseconds) and is removed.
        Committed records and quarantined entries are never deleted —
        quarantine is evidence, not garbage.  Returns a summary dict;
        with *dry_run* nothing is unlinked and the summary lists what
        would have been.
        """
        clock = time.time() if now is None else now
        removed: List[str] = []
        if self.root.exists():
            for path in sorted(self.root.rglob("*.tmp")):
                try:
                    if clock - path.stat().st_mtime < tmp_grace_seconds:
                        continue
                    if not dry_run:
                        path.unlink()
                except OSError:
                    continue
                removed.append(str(path))
        return {
            "root": str(self.root),
            "dry_run": dry_run,
            "tmp_removed": len(removed),
            "removed": removed,
        }

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #

    def __contains__(self, fingerprint: str) -> bool:
        return self.record_path(fingerprint).exists()

    def _shards(self) -> Iterator[Path]:
        """The ``<fp[:2]>`` shard directories, in name order."""
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if len(shard.name) == 2 and shard.is_dir():
                yield shard

    def keys(self) -> Iterator[str]:
        """Every stored fingerprint (unverified; ``get`` verifies)."""
        for shard in self._shards():
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def status(self) -> Dict[str, object]:
        """Inventory summary for ``repro serve status``."""
        entries = 0
        total_bytes = 0
        for shard in self._shards():
            for path in shard.iterdir():
                if path.suffix == ".json":
                    entries += 1
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
        quarantined = 0
        if self.quarantine_dir.exists():
            quarantined = sum(
                1 for p in self.quarantine_dir.glob("*.json")
            )
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
        }
