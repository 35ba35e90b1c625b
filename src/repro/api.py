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
the cache traffic.  Each graph stage ends in a cached wire-payload node
(:mod:`repro.session.stages`), so a warm request is one lookup with no
compiler work and no re-rendering.

Legacy surface (deprecated since 1.2, kept until 2.0 — see
``docs/API.md``): :func:`analyze_source`, :func:`diagnose_source`,
:func:`optimize_source` and :func:`pfg_dot` return the historical
loose shapes (live ``CSSAMEForm`` / ``(warnings, races)`` tuple /
``OptimizationReport`` / DOT string).  They keep working bit-for-bit
but emit :class:`DeprecationWarning`; new code that needs live
compiler objects should hold a ``Session`` directly, and code that
needs data should take the typed results.  :func:`front_end` and
:func:`listing` are *not* deprecated — structured IR in, text out is
already a typed contract.
"""

from __future__ import annotations

import warnings as _warnings
from typing import Any, Mapping, Optional

from repro.cssame.builder import CSSAMEForm
from repro.errors import UnsupportedRequest
from repro.ir.printer import format_ir
from repro.ir.structured import ProgramIR
from repro.mutex.races import RaceReport
from repro.mutex.warnings import SyncWarning
from repro.obs.prof import WORK_PREFIX
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.opt.pipeline import OptimizationReport
from repro.results import (
    CompileResult,
    DiagnoseResult,
    OptimizeResult,
    Provenance,
    result_class_for,
)
from repro.session.session import Session
from repro.session.stages import payload_stage

__all__ = [
    "SERVE_STAGES",
    "analyze",
    "analyze_source",
    "compile_source",
    "diagnose",
    "diagnose_source",
    "front_end",
    "listing",
    "optimize",
    "optimize_source",
    "pfg_dot",
    "stage_options",
]

#: stages a compile request may name, and the option schema of each
#: (name → default).  This table *is* the wire contract: the server
#: validates requests against it and ``docs/API.md`` documents it.
SERVE_STAGES: dict[str, dict[str, Any]] = {
    "analyze": {"prune": True, "prune_events": True},
    "diagnostics": {},
    "optimized": {
        "passes": ("constprop", "pdce", "licm"),
        "use_mutex": True,
        "fold_output_uses": True,
        "simplify": True,
    },
    "dot": {"title": "PFG", "prune": True},
    "bytecode": {},
    "audit": {
        "runs": 16,
        "seed_base": 0,
        "fuel": 1_000_000,
        "explore": True,
        "max_states": 20_000,
    },
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


# -- the one journey that is not a stage-graph walk ------------------------


def _run_audit(sess: Session, source: str, opts: dict):
    from repro.dynamic.audit import audit_source

    report = audit_source(
        source,
        runs=opts["runs"],
        seed_base=opts["seed_base"],
        fuel=opts["fuel"],
        explore_states=opts["max_states"],
        do_explore=opts["explore"],
        session=sess,
    )
    frames = [
        {"kind": f"race-{f.status}", "message": f.message()}
        for f in report.findings
    ]
    frames += [
        {"kind": "race-dynamic-only", "message": r.message()}
        for r in report.dynamic_only
    ]
    artifacts = {
        "audit": report.as_dict(),
        "sound": report.sound,
        "exit": report.exit_code(strict=False),
        "exit_strict": report.exit_code(strict=True),
    }
    return artifacts, tuple(frames)


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
    payload = payload_stage(stage)
    # Always run under a private tracer so the work/cache counters are
    # exact for *this* request, then forward the capture to the caller's
    # tracer (or the ambient --trace one) so nothing is lost to it.
    tracer = Tracer()
    with use_tracer(tracer):
        if payload is None:
            artifacts, diagnostics = _run_audit(sess, source, opts)
        else:
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
    artifact_key = None
    if payload is not None:
        # Provenance names the terminal compiler node, not the payload.
        artifact_key = sess.artifact_key(payload.parent, source, **opts)
    provenance = Provenance(
        source_key=_source_key(source),
        stage=stage,
        artifact_key=artifact_key,
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


# -- supported non-deprecated helpers ---------------------------------------


def front_end(source: str, session: Optional[Session] = None) -> ProgramIR:
    """Parse and lower ``source`` to structured IR (a private copy)."""
    return _session(session).front_end(source)


def listing(program: ProgramIR) -> str:
    """Source-like listing of a program in any form."""
    return format_ir(program)


# -- deprecated legacy shims (loose returns; removed in 2.0) -----------------


def _deprecated(name: str, replacement: str) -> None:
    _warnings.warn(
        f"repro.api.{name} is deprecated since 1.2 (removal in 2.0); "
        f"use {replacement} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def analyze_source(
    source: str,
    prune: bool = True,
    trace: Optional[Tracer] = None,
    session: Optional[Session] = None,
) -> CSSAMEForm:
    """Deprecated: the live CSSAME form (``prune=False`` → plain CSSA).

    Use :meth:`Session.analyze` for the live form, or :func:`analyze`
    for the typed result.
    """
    _deprecated("analyze_source", "Session.analyze or api.analyze")
    return _session(session).analyze(source, prune=prune, trace=trace)


def optimize_source(
    source: str,
    passes: tuple[str, ...] = ("constprop", "pdce", "licm"),
    use_mutex: bool = True,
    fold_output_uses: bool = True,
    trace: Optional[Tracer] = None,
    session: Optional[Session] = None,
) -> OptimizationReport:
    """Deprecated: the live :class:`OptimizationReport`.

    Use :meth:`Session.optimize` for the live report, or
    :func:`optimize` for the typed result.
    """
    _deprecated("optimize_source", "Session.optimize or api.optimize")
    return _session(session).optimize(
        source,
        passes=passes,
        use_mutex=use_mutex,
        fold_output_uses=fold_output_uses,
        trace=trace,
    )


def diagnose_source(
    source: str,
    trace: Optional[Tracer] = None,
    session: Optional[Session] = None,
) -> tuple[list[SyncWarning], list[RaceReport]]:
    """Deprecated: the loose ``(warnings, races)`` tuple.

    Use :meth:`Session.diagnose` for live findings, or :func:`diagnose`
    for the typed result.
    """
    _deprecated("diagnose_source", "Session.diagnose or api.diagnose")
    return _session(session).diagnose(source, trace=trace)


def pfg_dot(
    source: str,
    title: str = "PFG",
    prune: bool = True,
    trace: Optional[Tracer] = None,
    session: Optional[Session] = None,
) -> str:
    """Deprecated: the DOT text of the PFG.

    Use :meth:`Session.dot`, or ``compile_source(src, "dot")``.
    """
    _deprecated("pfg_dot", "Session.dot or api.compile_source(..., 'dot')")
    return _session(session).dot(source, title=title, prune=prune, trace=trace)
