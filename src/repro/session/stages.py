"""The pipeline stage graph — the one table of stages and their options.

The compiler's journeys all walk one DAG::

    source ──> ast ──> ir ──┬─> cssame(prune, prune_events) ──┬─> dot(title)
                            │        (prune=False is CSSA)    ├─> diagnostics
                            │                                 └─┬─> audit(runs, seed_base,
                            ├─> bytecode ───────────────────────┘     fuel, explore, max_states)
                            └─> optimized(passes, use_mutex,
                                          fold_output_uses, simplify)

Each wire stage of the compile service (``analyze``, ``diagnostics``,
``optimized``, ``dot``, ``bytecode``, ``audit``) ends in a **payload
node** (``payload.<wire stage>``) whose parent is the stage's terminal
node and whose artifact is the JSON-ready ``(artifacts, diagnostics)``
plain data the service answers with.  A warm request is one lookup of
that node: no compiler work and no re-rendering.  Payload nodes are
also the only artifacts a layered store persists (:attr:`StageSpec.wire`);
the compiler objects above them live in the memory tier only.

Each node is a :class:`StageSpec`: a name, the parent stages it
consumes, its options with their defaults, and a pure-from-the-outside
compute function.  :data:`STAGES` is the only place options and
defaults are declared: a wire stage's option schema is derived from the
chain above its payload node (:func:`wire_schema`), and the session
fills every unnamed option from here.  A stage's artifact key is
derived from its parents' keys plus its options (see
:mod:`repro.session.artifacts`), so the graph doubles as the cache's
addressing scheme: asking for ``diagnostics`` twice walks the same
chain of keys and reuses whatever prefix is already materialised.

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

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.cfg.dot import to_dot
from repro.cssame.builder import build_cssame
from repro.dynamic.audit import audit_program
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

__all__ = ["STAGES", "StageSpec", "payload_stage", "wire_schema"]


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline stage graph."""

    name: str
    #: the stages whose artifacts this one consumes (``()`` for the root,
    #: which reads the source text)
    parents: Tuple[str, ...]
    #: the stage's options and their defaults; the names are part of its
    #: cache key
    defaults: Mapping[str, Any]
    #: ``compute(*parent_artifacts, options) -> artifact``
    compute: Callable[..., Any]
    #: options of the *parent* chains this stage pins (e.g. diagnostics
    #: always reads the unpruned CSSA form)
    parent_options: Mapping[str, Any] = field(default_factory=dict)
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


def _compute_audit(form, program, options: Mapping[str, Any]):
    """Section 6 lockset races of the unpruned form vs. traced runs."""
    return audit_program(
        form,
        program,
        runs=options["runs"],
        seed_base=options["seed_base"],
        fuel=options["fuel"],
        explore_states=options["max_states"],
        do_explore=options["explore"],
    )


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


def _payload_audit(report, options: Mapping[str, Any]):
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


#: the unpruned CSSA form Section 6 reads (diagnostics and audit pin it)
_CSSA = {"prune": False, "prune_events": True}

#: wire stage -> (its terminal compiler node, the payload projection)
_PAYLOADS = {
    "analyze": ("cssame", _payload_analyze),
    "diagnostics": ("diagnostics", _payload_diagnostics),
    "optimized": ("optimized", _payload_optimized),
    "dot": ("dot", _payload_dot),
    "bytecode": ("bytecode", _payload_bytecode),
    "audit": ("audit", _payload_audit),
}

#: the stage graph, in dependency order
STAGES: dict[str, StageSpec] = {
    spec.name: spec
    for spec in (
        StageSpec("ast", (), {}, _compute_ast),
        StageSpec("ir", ("ast",), {}, _compute_ir),
        StageSpec(
            "cssame", ("ir",), {"prune": True, "prune_events": True}, _compute_cssame
        ),
        StageSpec(
            "diagnostics", ("cssame",), {}, _compute_diagnostics, parent_options=_CSSA
        ),
        StageSpec(
            "optimized",
            ("ir",),
            {
                "passes": ("constprop", "pdce", "licm"),
                "use_mutex": True,
                "fold_output_uses": True,
                "simplify": True,
            },
            _compute_optimized,
        ),
        StageSpec(
            "dot",
            ("cssame",),
            {"title": "PFG"},
            _compute_dot,
            parent_options={"prune_events": True},
        ),
        StageSpec("bytecode", ("ir",), {}, _compute_bytecode),
        StageSpec(
            "audit",
            ("cssame", "bytecode"),
            {
                "runs": 16,
                "seed_base": 0,
                "fuel": 1_000_000,
                "explore": True,
                "max_states": 20_000,
            },
            _compute_audit,
            parent_options=_CSSA,
        ),
        *(
            StageSpec(f"payload.{wire}", (terminal,), {}, project, wire=wire)
            for wire, (terminal, project) in _PAYLOADS.items()
        ),
    )
}


def payload_stage(wire: str) -> Optional[StageSpec]:
    """The payload node answering wire stage ``wire`` (``None`` if none)."""
    return STAGES.get(f"payload.{wire}")


def wire_schema(stage: str, pinned: frozenset = frozenset()) -> dict[str, Any]:
    """Options (name → default) a request for ``stage`` may set.

    The union of the defaults along the chain above ``stage``, minus
    every name a descendant on the path pins through ``parent_options``.
    """
    spec = STAGES[stage]
    schema = {k: v for k, v in spec.defaults.items() if k not in pinned}
    pinned = pinned | set(spec.parent_options)
    for parent in spec.parents:
        for name, value in wire_schema(parent, pinned).items():
            schema.setdefault(name, value)
    return schema
