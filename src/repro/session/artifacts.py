"""Content-addressed artifact store for the pipeline stage graph.

Every pipeline stage produces one *artifact* (an AST, an IR program, a
CSSAME form, a diagnostics bundle, ...).  An artifact is addressed by a
key that hashes its complete derivation:

    key(source)          = H("source", text)
    key(stage, options)  = H(stage, key(parent), canonical(options))

so two requests share an artifact exactly when they start from the same
source text *and* ask for the same stage under the same options.  The
chain means no stage ever has to hash its (possibly large, mutable)
input value — provenance identifies content, the way a build system's
action cache keys outputs by the recipe rather than by the bytes it
produced.

Keys are **versioned**: every digest folds in the package version and
(for stages) the stage's declared option schema.  An in-process LRU
never needed that — it dies with the process — but the persistent store
of :mod:`repro.serve.store` keeps artifacts across releases, and a new
release may change what any stage computes or which options
parameterise it.  Folding ``repro.__version__`` and the option-name
tuple into the key means stale on-disk artifacts are simply never
addressed again: they self-invalidate without any migration logic.

The store itself is a bounded LRU map plus hit/miss accounting.  It is
safe to share between threads: lookups and insertions take an internal
lock, while stage *computation* happens outside it (two threads racing
to fill the same key simply compute twice and last-write-wins — results
are deterministic, so both values are equal).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro._version import __version__

__all__ = ["ArtifactCache", "CacheStats", "derive_key", "key_salt", "source_key"]

#: folded into every key; changing the release invalidates every
#: persisted artifact (tests monkeypatch the module-level salt)
_KEY_SALT = f"repro-{__version__}"


def key_salt() -> str:
    """The version salt every artifact key is derived under."""
    return _KEY_SALT


def _canonical(options: Mapping[str, Any]) -> str:
    """Deterministic text form of a stage's option mapping.

    Options are restricted to flat, repr-stable values (bools, ints,
    strings, tuples of strings) — exactly what the pipeline's knobs
    are.  Sorting by name makes keyword order irrelevant.
    """
    return ";".join(f"{k}={options[k]!r}" for k in sorted(options))


def source_key(text: str) -> str:
    """Artifact key of a source text: the root of every derivation."""
    digest = hashlib.sha256()
    digest.update(_KEY_SALT.encode("utf-8"))
    digest.update(b"\x00source\x00")
    digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def derive_key(
    stage: str,
    parent_key: str,
    options: Mapping[str, Any],
    schema: Optional[Sequence[str]] = None,
) -> str:
    """Artifact key of ``stage`` applied to the ``parent_key`` artifact.

    ``schema`` is the stage's declared option-name tuple (defaults to
    the names of ``options``): it is hashed *separately* from the
    option values, so adding an option to a stage — even one whose
    default reproduces the old behaviour — re-keys every artifact the
    stage ever produced.
    """
    if schema is None:
        schema = tuple(sorted(options))
    digest = hashlib.sha256()
    digest.update(_KEY_SALT.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(stage.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(",".join(sorted(schema)).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(parent_key.encode("ascii"))
    digest.update(b"\x00")
    digest.update(_canonical(options).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, total and per stage."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    by_stage: dict = field(default_factory=dict)

    def record(self, stage: str, hit: bool) -> None:
        entry = self.by_stage.setdefault(stage, {"hits": 0, "misses": 0})
        if hit:
            self.hits += 1
            entry["hits"] += 1
        else:
            self.misses += 1
            entry["misses"] += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "by_stage": {
                stage: dict(entry)
                for stage, entry in sorted(self.by_stage.items())
            },
        }


class ArtifactCache:
    """Bounded, thread-safe LRU map from artifact key → artifact.

    ``max_entries=None`` means unbounded (the right default for a
    short-lived CLI process); long-running services should set a bound —
    eviction is least-recently-used and counted in :class:`CacheStats`.
    """

    _MISSING = object()

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, stage: str) -> Any:
        """The artifact under ``key``, or :data:`ArtifactCache.MISSING`.

        Records a hit/miss against ``stage`` and refreshes LRU order.
        """
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self.stats.record(stage, hit=False)
            else:
                self._entries.move_to_end(key)
                self.stats.record(stage, hit=True)
            return value

    def peek(self, key: str) -> Any:
        """Like :meth:`get` (refreshes LRU order) but records no stats.

        Layered stores use this to probe the memory tier before falling
        back to slower tiers, accounting the *combined* outcome once.
        """
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is not self._MISSING:
                self._entries.move_to_end(key)
            return value

    def record(self, stage: str, hit: bool) -> None:
        """Account one lookup against ``stage`` (for layered stores)."""
        with self._lock:
            self.stats.record(stage, hit=hit)

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Insert ``value`` under ``key`` (evicting LRU entries).

        ``persist`` says whether a layered store may also write the
        artifact to a slower tier; the memory tier itself ignores it.
        """
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every artifact (stats are kept — they describe history)."""
        with self._lock:
            self._entries.clear()

    @property
    def MISSING(self) -> Any:
        return self._MISSING

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ArtifactCache(entries={len(self)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )
