"""The pipeline stage graph.

The compiler's journeys all walk one DAG::

    source ──> ast ──> ir ──┬─> cssame(prune, prune_events) ──┬─> dot(title)
                            │        (prune=False is CSSA)    └─> diagnostics
                            ├─> optimized(passes, use_mutex,
                            │             fold_output_uses, simplify)
                            └─> bytecode

Each wire stage of the compile service (``analyze``, ``diagnostics``,
``optimized``, ``dot``, ``bytecode``) ends in a **payload node**
(``payload.<wire stage>``) whose parent is the stage's terminal node
(``cssame``, ``diagnostics``, ``optimized``, ``dot``, ``bytecode``) and
whose artifact is the JSON-ready ``(artifacts, diagnostics)`` plain data
the service answers with.  A warm request is one lookup of that node:
no compiler work and no re-rendering.  Payload nodes are also the only
artifacts a layered store persists (:attr:`StageSpec.wire`); the
compiler objects above them live in the memory tier only.

Each node is a :class:`StageSpec`: a name, the parent stage it consumes,
the option names that parameterise it, and a pure-from-the-outside
compute function.  A stage's artifact key is derived from its parent's
key plus its options (see :mod:`repro.session.artifacts`), so the graph
doubles as the cache's addressing scheme: asking for ``diagnostics``
twice walks the same chain of keys and reuses whatever prefix is
already materialised.

Mutation discipline — the single invariant that makes caching sound:
**a compute function must never mutate its input artifact.**  The
front-end stages are naturally pure (parsing and lowering build fresh
objects); the SSA construction and the optimizer, however, rewrite a
``ProgramIR`` *in place*, so their compute functions deep-copy the
cached IR first (:func:`repro.ir.structured.clone_program`) and mutate
the private copy.  That copy-on-write step is what lets one cached
``ir`` artifact feed ``cssame``, ``optimized`` and ``bytecode`` without
any stage corrupting another's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.cfg.dot import to_dot
from repro.cssame.builder import build_cssame
from repro.ir.lower import lower_program
from repro.ir.printer import format_ir
from repro.ir.structured import clone_program
from repro.lang.parser import parse
from repro.mutex.deadlock import detect_lock_order_cycles
from repro.mutex.races import detect_races
from repro.mutex.warnings import SyncWarning, check_synchronization
from repro.obs.trace import get_tracer
from repro.opt.pipeline import optimize
from repro.report import measure_form
from repro.vm.compile import compile_program

__all__ = ["STAGES", "StageSpec", "payload_stage", "stage_order"]


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline stage graph."""

    name: str
    #: the stage whose artifact this one consumes (``None`` for the root)
    parent: Optional[str]
    #: option names that parameterise the stage (part of its cache key)
    option_names: Tuple[str, ...]
    #: ``compute(parent_artifact, options) -> artifact``
    compute: Callable[[Any, Mapping[str, Any]], Any]
    #: options of the *parent* chain this stage pins (e.g. diagnostics
    #: always reads the unpruned CSSA form)
    parent_options: Mapping[str, Any] = None  # type: ignore[assignment]
    #: the wire stage whose plain-data payload this node computes
    #: (``None`` for compiler-object nodes); only payload nodes persist
    wire: Optional[str] = None


def _compute_ast(source: str, options: Mapping[str, Any]):
    return parse(source)


def _compute_ir(ast, options: Mapping[str, Any]):
    return lower_program(ast)


def _compute_cssame(ir, options: Mapping[str, Any]):
    # build_cssame rewrites the program in place: work on a private copy
    # so the cached ``ir`` artifact stays pristine (copy-on-write).
    program = clone_program(ir)
    return build_cssame(
        program,
        prune=options["prune"],
        prune_events=options["prune_events"],
    )


def _compute_diagnostics(form, options: Mapping[str, Any]):
    """Section 6 diagnostics over the (unpruned) CSSA form.

    Returns ``(warnings, races)``; the lists are treated as immutable
    once cached — the session hands out shallow copies.
    """
    with get_tracer().span("diagnose") as span:
        warnings = check_synchronization(form.graph, form.structures)
        for risk in detect_lock_order_cycles(form.graph, form.structures):
            blocks = tuple(b for bs in risk.witnesses.values() for b in bs)
            warnings.append(SyncWarning("deadlock-risk", risk.message(), blocks))
        races = detect_races(form.graph, form.structures)
        span.set(warnings=len(warnings), races=len(races))
    return warnings, races


def _compute_optimized(ir, options: Mapping[str, Any]):
    # optimize() rewrites the program in place: copy-on-write again.
    program = clone_program(ir)
    return optimize(
        program,
        passes=options["passes"],
        use_mutex=options["use_mutex"],
        simplify=options["simplify"],
        fold_output_uses=options["fold_output_uses"],
    )


def _compute_dot(form, options: Mapping[str, Any]):
    return to_dot(form.graph, title=options["title"])


def _compute_bytecode(ir, options: Mapping[str, Any]):
    # compile_program only reads, but cloning keeps the invariant
    # obvious and costs microseconds next to everything else.
    return compile_program(clone_program(ir))


# -- payload nodes: terminal artifact -> (artifacts, diagnostics) -----------


def _payload_analyze(form, options: Mapping[str, Any]):
    rewrite = None
    if form.rewrite_stats is not None:
        rewrite = {
            "args_removed": form.rewrite_stats.args_removed,
            "pis_deleted": form.rewrite_stats.pis_deleted,
        }
    artifacts = {
        "listing": format_ir(form.program),
        # A.3 ran exactly when the form was built with prune=True.
        "form": "CSSA" if rewrite is None else "CSSAME",
        "metrics": measure_form(form.program).as_dict(),
        "mutex_bodies": len(form.mutex_bodies()),
        "rewrite": rewrite,
    }
    return artifacts, ()


def _payload_diagnostics(findings, options: Mapping[str, Any]):
    warnings, races = findings
    frames = [
        {"kind": w.kind, "message": w.message, "blocks": list(w.blocks)}
        for w in warnings
    ]
    frames += [
        {"kind": "race", "message": r.message(), "race": r.as_dict()}
        for r in races
    ]
    artifacts = {"warnings": len(warnings), "races": len(races)}
    return artifacts, tuple(frames)


def _payload_optimized(report, options: Mapping[str, Any]):
    artifacts = {
        "listing": report.listings["final"],
        "phases": sorted(report.listings),
        "constants": len(report.constprop.constants) if report.constprop else 0,
        "removed": report.pdce.total_removed if report.pdce else 0,
        "moved": report.licm.total_moved if report.licm else 0,
        "statements": report.statement_count(),
        "metrics": measure_form(report.program).as_dict(),
    }
    return artifacts, ()


def _payload_dot(text, options: Mapping[str, Any]):
    return {"dot": text}, ()


def _payload_bytecode(program, options: Mapping[str, Any]):
    artifacts = {
        "listing": program.disassemble(),
        "instructions": len(program),
        "entry": program.entry,
    }
    return artifacts, ()


#: the stage graph, in dependency order
STAGES: dict[str, StageSpec] = {
    spec.name: spec
    for spec in (
        StageSpec("ast", None, (), _compute_ast),
        StageSpec("ir", "ast", (), _compute_ir),
        StageSpec("cssame", "ir", ("prune", "prune_events"), _compute_cssame),
        StageSpec(
            "diagnostics",
            "cssame",
            (),
            _compute_diagnostics,
            parent_options={"prune": False, "prune_events": True},
        ),
        StageSpec(
            "optimized",
            "ir",
            ("passes", "use_mutex", "fold_output_uses", "simplify"),
            _compute_optimized,
        ),
        StageSpec("dot", "cssame", ("title",), _compute_dot),
        StageSpec("bytecode", "ir", (), _compute_bytecode),
        StageSpec(
            "payload.analyze", "cssame", (), _payload_analyze, wire="analyze"
        ),
        StageSpec(
            "payload.diagnostics",
            "diagnostics",
            (),
            _payload_diagnostics,
            wire="diagnostics",
        ),
        StageSpec(
            "payload.optimized",
            "optimized",
            (),
            _payload_optimized,
            wire="optimized",
        ),
        StageSpec("payload.dot", "dot", (), _payload_dot, wire="dot"),
        StageSpec(
            "payload.bytecode", "bytecode", (), _payload_bytecode, wire="bytecode"
        ),
    )
}


def stage_order() -> list[str]:
    """Stage names in topological (definition) order."""
    return list(STAGES)


def payload_stage(wire: str) -> Optional[StageSpec]:
    """The payload node answering wire stage ``wire`` (``None`` if none)."""
    for spec in STAGES.values():
        if spec.wire == wire:
            return spec
    return None
