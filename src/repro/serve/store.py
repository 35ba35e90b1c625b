"""Persistent, content-addressed artifact store.

:class:`PersistentStore` layers a disk tier under the in-memory LRU of
:class:`~repro.session.artifacts.ArtifactCache`:

* every ``put`` lands in memory **and** (unless ``persist=False``) is
  spilled to disk as a checksummed pickle, written atomically (temp
  file + ``os.replace``) so readers never observe a half-written
  artifact.  A :class:`~repro.session.session.Session` persists only
  the wire payload nodes of the stage graph — small pickled plain
  data — and keeps every compiler object (AST, IR, forms, reports,
  bytecode) in the memory tier;
* a ``get`` that misses memory tries the disk tier; a load re-warms the
  memory LRU, so hot keys pay the disk cost once per process;
* a file that is truncated, tampered with, or unpicklable is treated
  as a **miss, never an error**: the store unlinks it, counts a
  corruption, and the session recomputes the artifact — corruption
  costs latency, not availability.

Keys already fold in the package version and each stage's option
schema (:mod:`repro.session.artifacts`), so artifacts persisted by an
older release are simply never addressed again — no migration, no
compatibility window, no stale answers.

The disk layout is two-level: ``root/<key[:2]>/<key>.art``, the usual
fan-out trick so no directory grows unboundedly.  File format::

    RPROART1\\n<sha256-hex-of-payload>\\n<pickled payload>

Spill failures (unpicklable value, disk full, permission trouble)
degrade the store to memory-only for that artifact and count an
``errors`` stat — the compile service never fails a request because
the cache could not persist it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from repro.session.artifacts import ArtifactCache

__all__ = ["PersistentStore", "StoreStats"]

_MAGIC = b"RPROART1"


@dataclass
class StoreStats:
    """Disk-tier accounting (the memory tier keeps its own CacheStats)."""

    spills: int = 0
    spill_bytes: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    corruptions: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "spills": self.spills,
            "spill_bytes": self.spill_bytes,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "corruptions": self.corruptions,
            "errors": self.errors,
        }


class PersistentStore(ArtifactCache):
    """An :class:`ArtifactCache` with a content-addressed disk tier.

    Drop-in for ``Session(cache=...)``: the session sees one ``get`` /
    ``put`` surface and one hit/miss accounting; whether a hit was
    served from memory or disk shows up in :attr:`store_stats`.
    """

    def __init__(self, root: str, max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries=max_entries)
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.store_stats = StoreStats()

    # -- layered lookup ------------------------------------------------------

    def get(self, key: str, stage: str) -> Any:
        value = self.peek(key)
        if value is self._MISSING:
            value = self._load(key)
            if value is not self._MISSING:
                self.store_stats.disk_hits += 1
                # Re-warm the memory tier without re-spilling.
                ArtifactCache.put(self, key, value)
            else:
                self.store_stats.disk_misses += 1
        self.record(stage, hit=value is not self._MISSING)
        return value

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        ArtifactCache.put(self, key, value)
        if persist:
            self._spill(key, value)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` unlink the files too."""
        super().clear()
        if disk:
            for path in self._artifact_paths():
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- disk tier -----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.art")

    def _artifact_paths(self) -> list[str]:
        paths = []
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                if name.endswith(".art"):
                    paths.append(os.path.join(dirpath, name))
        return sorted(paths)

    def __contains__(self, key: str) -> bool:
        """True when ``key`` is resident in either tier (no load)."""
        return self.peek(key) is not self._MISSING or os.path.exists(
            self._path(key)
        )

    def persisted_count(self) -> int:
        """Number of artifacts currently on disk."""
        return len(self._artifact_paths())

    def _spill(self, key: str, value: Any) -> None:
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable artifact: memory-only for this key.
            self.store_stats.errors += 1
            return
        path = self._path(key)
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
            digest = hashlib.sha256(payload).hexdigest().encode("ascii")
            # Atomic publish: a reader either sees the complete file or
            # no file — never a prefix.  The temp file lives in the
            # same directory so os.replace stays a same-filesystem
            # rename.
            fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC + b"\n" + digest + b"\n" + payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.store_stats.errors += 1
            return
        self.store_stats.spills += 1
        self.store_stats.spill_bytes += len(payload)

    def _load(self, key: str) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return self._MISSING
        try:
            magic, digest, payload = blob.split(b"\n", 2)
            if magic != _MAGIC:
                raise ValueError("bad magic")
            if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
                raise ValueError("checksum mismatch")
            return pickle.loads(payload)
        except Exception:
            # Corruption → recompute, not crash: unlink the bad file so
            # the next spill rewrites it cleanly.
            self.store_stats.corruptions += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return self._MISSING

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PersistentStore(root={self.root!r}, entries={len(self)}, "
            f"disk={self.persisted_count()})"
        )
