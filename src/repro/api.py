"""High-level API — typed results over :mod:`repro.session`.

The canonical surface is :func:`compile_source`: name a stage, get back
a frozen typed result (:class:`~repro.results.CompileResult` /
:class:`~repro.results.DiagnoseResult` /
:class:`~repro.results.OptimizeResult`) whose ``as_dict()`` is exactly
the wire payload the ``repro serve`` daemon returns for the same
request.  Three stage-specific helpers wrap it::

    from repro import api

    result = api.diagnose(source)          # DiagnoseResult
    result.clean, result.warnings, result.races

    result = api.optimize(source)          # OptimizeResult
    result.listing, result.removed, result.moved

    result = api.compile_source(source, stage="dot")
    result.artifacts["dot"]

Every call gets an **ephemeral** session by default (results are
recomputed from scratch); pass a long-lived
:class:`~repro.session.session.Session` via ``session=`` to reuse
cached artifacts across calls — the result's ``provenance`` then shows
the cache traffic.  Each wire stage ends in a cached payload node of
:data:`~repro.session.stages.STAGES` (``audit`` included), so a warm
request is one lookup with no compiler work and no re-rendering.

Code that needs live compiler objects (a ``CSSAMEForm``, the
``(warnings, races)`` findings, an ``OptimizationReport``, DOT text)
holds a ``Session`` and calls its journey methods.  :func:`front_end`
and :func:`listing` are the two helpers that are not stages:
structured IR in, text out.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import UnsupportedRequest
from repro.ir.printer import format_ir
from repro.ir.structured import ProgramIR
from repro.obs.prof import WORK_PREFIX
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.results import (
    CompileResult,
    DiagnoseResult,
    OptimizeResult,
    Provenance,
    result_class_for,
)
from repro.session.session import Session
from repro.session.stages import STAGES, payload_stage, wire_schema

__all__ = [
    "SERVE_STAGES",
    "analyze",
    "compile_source",
    "diagnose",
    "front_end",
    "listing",
    "optimize",
    "stage_options",
]

#: stages a compile request may name, and the option schema of each
#: (name → default), derived from the chain above each payload node of
#: :data:`STAGES`.  This table *is* the wire contract: the server
#: validates requests against it and ``docs/API.md`` documents it.
SERVE_STAGES: dict[str, dict[str, Any]] = {
    spec.wire: wire_schema(spec.name) for spec in STAGES.values() if spec.wire
}


def stage_options(stage: str, options: Optional[Mapping[str, Any]] = None) -> dict:
    """Validate and default a request's options against the stage schema.

    Raises :class:`~repro.errors.UnsupportedRequest` (``E_UNSUPPORTED``)
    for an unknown stage or option name — the same typed error a server
    frame carries.
    """
    schema = SERVE_STAGES.get(stage)
    if schema is None:
        raise UnsupportedRequest(
            f"unknown stage {stage!r} (expected one of {sorted(SERVE_STAGES)})"
        )
    merged = dict(schema)
    for name, value in (options or {}).items():
        if name not in schema:
            raise UnsupportedRequest(
                f"stage {stage!r} takes no option {name!r} "
                f"(valid: {sorted(schema) or 'none'})"
            )
        # JSON has no tuples; normalise list-valued options.
        merged[name] = tuple(value) if isinstance(value, list) else value
    return merged


def _session(session: Optional[Session]) -> Session:
    """The session backing one facade call (ephemeral when omitted)."""
    return session if session is not None else Session()


def compile_source(
    source: str,
    stage: str = "diagnostics",
    options: Optional[Mapping[str, Any]] = None,
    session: Optional[Session] = None,
    trace: Optional[Tracer] = None,
) -> CompileResult:
    """Run one stage journey and return its typed result.

    ``stage`` names a wire stage (see :data:`SERVE_STAGES`); ``options``
    is validated against the stage's schema.  The result's ``as_dict()``
    is exactly what ``repro serve`` would answer for the same request.
    """
    opts = stage_options(stage, options)
    sess = _session(session)
    # Always run under a private tracer so the work/cache counters are
    # exact for *this* request, then forward the capture to the caller's
    # tracer (or the ambient --trace one) so nothing is lost to it.
    tracer = Tracer()
    with use_tracer(tracer):
        artifacts, diagnostics = sess.payload(stage, source, opts)
    ambient = trace if trace is not None else get_tracer()
    if getattr(ambient, "enabled", False) and ambient is not tracer:
        ambient.absorb(tracer)
    counters = tracer.metrics.counters
    work = {
        name: counter.value
        for name, counter in sorted(counters.items())
        if name.startswith(WORK_PREFIX)
    }
    # Provenance names the terminal compiler node, not the payload.
    (terminal,) = payload_stage(stage).parents
    provenance = Provenance(
        source_key=_source_key(source),
        stage=stage,
        artifact_key=sess.artifact_key(terminal, source, **opts),
        cache_hits=_counter_value(counters, "session.cache.hit"),
        cache_misses=_counter_value(counters, "session.cache.miss"),
    )
    return result_class_for(stage)(
        stage=stage,
        artifacts=artifacts,
        provenance=provenance,
        diagnostics=diagnostics,
        work=work,
    )


def _source_key(source: str) -> str:
    from repro.session.artifacts import source_key

    return source_key(source)


def _counter_value(counters: Mapping[str, Any], name: str) -> int:
    counter = counters.get(name)
    return counter.value if counter is not None else 0


# -- typed stage helpers -----------------------------------------------------


def analyze(
    source: str,
    prune: bool = True,
    session: Optional[Session] = None,
    trace: Optional[Tracer] = None,
) -> CompileResult:
    """Typed CSSAME/CSSA analysis (listing + form metrics)."""
    return compile_source(
        source, "analyze", {"prune": prune}, session=session, trace=trace
    )


def diagnose(
    source: str,
    session: Optional[Session] = None,
    trace: Optional[Tracer] = None,
) -> DiagnoseResult:
    """Typed Section 6 diagnostics (warnings + races as frames)."""
    result = compile_source(source, "diagnostics", session=session, trace=trace)
    assert isinstance(result, DiagnoseResult)
    return result


def optimize(
    source: str,
    passes: tuple[str, ...] = ("constprop", "pdce", "licm"),
    use_mutex: bool = True,
    fold_output_uses: bool = True,
    session: Optional[Session] = None,
    trace: Optional[Tracer] = None,
) -> OptimizeResult:
    """Typed optimization pipeline result (listing + pass stats)."""
    result = compile_source(
        source,
        "optimized",
        {
            "passes": tuple(passes),
            "use_mutex": use_mutex,
            "fold_output_uses": fold_output_uses,
        },
        session=session,
        trace=trace,
    )
    assert isinstance(result, OptimizeResult)
    return result


# -- helpers that are not stages --------------------------------------------


def front_end(source: str, session: Optional[Session] = None) -> ProgramIR:
    """Parse and lower ``source`` to structured IR (a private copy)."""
    return _session(session).front_end(source)


def listing(program: ProgramIR) -> str:
    """Source-like listing of a program in any form."""
    return format_ir(program)
