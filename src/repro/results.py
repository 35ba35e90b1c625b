"""Typed results — the frozen dataclasses every compile journey returns.

The redesigned facade (:mod:`repro.api`) and the compile service
(:mod:`repro.serve`) share one result vocabulary:

* :class:`CompileResult` — the generic shape: which stage ran, its
  JSON-ready ``artifacts`` payload, any ``diagnostics`` frames, the
  deterministic ``work`` counters the run cost, and the cache
  :class:`Provenance` that produced it.
* :class:`DiagnoseResult` — Section 6 findings (warnings + races) as
  diagnostics frames, with typed accessors.
* :class:`OptimizeResult` — the optimized listing plus pass statistics.

``as_dict()`` of a result **is** the server's wire payload: the
``result`` object of a successful response frame is bit-identical to
what the in-process facade returns, which is what the golden parity
suite in ``tests/serve`` asserts.  :func:`result_from_dict` rebuilds
the typed view on the client side.

Everything inside a result is plain JSON-serializable data (strings,
numbers, lists, dicts) — never live compiler objects.  Callers who
need the real :class:`~repro.cssame.builder.CSSAMEForm` or
:class:`~repro.opt.pipeline.OptimizationReport` hold a
:class:`~repro.session.session.Session` and ask it directly; results
are for transport, comparison, and rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro._version import __version__

__all__ = [
    "CompileResult",
    "DiagnoseResult",
    "OptimizeResult",
    "Provenance",
    "result_from_dict",
]


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: keys, cache traffic, and version.

    ``cache_hits`` / ``cache_misses`` count the stage lookups of *this
    request only* (a warm request is all hits; a cold one all misses),
    so a client can tell a cached answer from a computed one without
    the two differing in payload.
    """

    source_key: str
    stage: str
    #: key of the wire stage's terminal compiler node (the payload
    #: node's parent in the stage graph)
    artifact_key: str
    cache_hits: int
    cache_misses: int
    version: str = __version__

    def as_dict(self) -> dict:
        return {
            "source_key": self.source_key,
            "stage": self.stage,
            "artifact_key": self.artifact_key,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Provenance":
        return cls(
            source_key=data["source_key"],
            stage=data["stage"],
            artifact_key=data["artifact_key"],
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
            version=data.get("version", __version__),
        )


@dataclass(frozen=True)
class CompileResult:
    """One stage's outcome, ready for the wire.

    ``artifacts`` is the stage-specific payload (listings, DOT text,
    form metrics, ...); ``diagnostics`` is a tuple of finding frames
    (each a dict with at least ``kind`` and ``message``); ``work`` maps
    deterministic ``work.*`` counter names to operation counts.
    """

    stage: str
    artifacts: Mapping[str, Any]
    provenance: Provenance
    diagnostics: tuple = ()
    work: Mapping[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The exact ``result`` object of a server response frame.

        A deep copy: editing it (nested frames included) never changes
        this result.
        """
        return {
            "stage": self.stage,
            "artifacts": _plain(self.artifacts),
            "diagnostics": _plain(self.diagnostics),
            "work": dict(self.work),
            "provenance": self.provenance.as_dict(),
        }

    @property
    def total_work(self) -> int:
        return sum(self.work.values())


@dataclass(frozen=True)
class DiagnoseResult(CompileResult):
    """Section 6 diagnostics: every finding is a frame in ``diagnostics``."""

    @property
    def warnings(self) -> list[dict]:
        """Sync-structure warning frames (everything that is not a race)."""
        return [f for f in self.diagnostics if f["kind"] != "race"]

    @property
    def races(self) -> list[dict]:
        return [f for f in self.diagnostics if f["kind"] == "race"]

    @property
    def clean(self) -> bool:
        """True when the program has no findings at all."""
        return not self.diagnostics


@dataclass(frozen=True)
class OptimizeResult(CompileResult):
    """The optimization pipeline's outcome."""

    @property
    def listing(self) -> str:
        return self.artifacts["listing"]

    @property
    def constants(self) -> int:
        return self.artifacts["constants"]

    @property
    def removed(self) -> int:
        return self.artifacts["removed"]

    @property
    def moved(self) -> int:
        return self.artifacts["moved"]


#: wire stage name → typed result class
_RESULT_CLASSES: dict[str, type] = {
    "diagnostics": DiagnoseResult,
    "optimized": OptimizeResult,
}


def result_class_for(stage: str) -> type:
    """The result dataclass a stage's payload decodes into."""
    return _RESULT_CLASSES.get(stage, CompileResult)


def result_from_dict(data: Mapping[str, Any]) -> CompileResult:
    """Rebuild a typed result from its wire payload (client side)."""
    stage = data["stage"]
    return result_class_for(stage)(
        stage=stage,
        artifacts=dict(data["artifacts"]),
        provenance=Provenance.from_dict(data["provenance"]),
        diagnostics=tuple(dict(f) for f in data.get("diagnostics", ())),
        work=dict(data.get("work", {})),
    )


def _plain(value: Any) -> Any:
    """Deep-copy ``value`` into plain dict/list/scalar JSON shapes.

    Payloads hold only dicts, lists, tuples and scalars, so an exact
    type test suffices; testing it before the call skips one call per
    scalar (a diagnostics payload is mostly strings and ints).
    """
    kind = type(value)
    if kind is dict:
        return {k: _plain(v) if type(v) in _CONTAINERS else v for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_plain(v) if type(v) in _CONTAINERS else v for v in value]
    return value


_CONTAINERS = frozenset((dict, list, tuple))
