"""Algorithm A.3 — rewrite π terms using mutual exclusion.

For every π term located inside a mutex body ``b`` of structure ``M_L``,
each conflict argument ``d`` that comes from *another* body ``b'`` of
the same structure is removed when either sufficient condition holds:

* the protected use is **not upward-exposed** from ``b`` (Theorem 2), or
* ``d`` **does not reach the exit node** of ``b'`` (Theorem 1).

A π term whose conflict arguments all disappear carries only its control
argument; it is deleted and its uses are redirected to the control
argument (``chain(u)``), exactly as A.3 lines 21–25 prescribe.
"""

from __future__ import annotations

from repro.cfg.graph import FlowGraph
from repro.cssame.exposure import BodyDataflow
from repro.errors import AnalysisError
from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Pi, SAssign
from repro.ir.structured import ProgramIR, iter_statements, remove_stmt
from repro.mutex.structures import MutexBody, MutexStructure
from repro.obs.events import (
    REASON_DOES_NOT_REACH_EXIT,
    REASON_NOT_UPWARD_EXPOSED,
    PiArgRemoved,
    PiDeleted,
)
from repro.obs.trace import get_tracer
from repro.ssa.chains import build_term_use_map

__all__ = ["RewriteStats", "rewrite_pi_terms"]


class RewriteStats:
    """What Algorithm A.3 accomplished (consumed by tests and benches)."""

    __slots__ = ("pis_before", "pis_deleted", "args_before", "args_removed")

    def __init__(self) -> None:
        self.pis_before = 0
        self.pis_deleted = 0
        self.args_before = 0
        self.args_removed = 0

    @property
    def pis_after(self) -> int:
        return self.pis_before - self.pis_deleted

    @property
    def args_after(self) -> int:
        return self.args_before - self.args_removed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RewriteStats(pis {self.pis_before}->{self.pis_after}, "
            f"conflict args {self.args_before}->{self.args_after})"
        )


def _collect_pis(program: ProgramIR) -> list[Pi]:
    return [
        stmt for stmt, _ctx in iter_statements(program) if isinstance(stmt, Pi)
    ]


def rewrite_pi_terms(
    program: ProgramIR,
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
) -> RewriteStats:
    """Run Algorithm A.3 in place; returns rewrite statistics."""
    stats = RewriteStats()
    tracer = get_tracer()
    pis = _collect_pis(program)
    stats.pis_before = len(pis)
    stats.args_before = sum(len(pi.conflicts) for pi in pis)

    decide = _Decisions(graph)
    for _lock_name, structure in sorted(structures.items()):
        for body in structure.bodies:
            for block_id in sorted(body.nodes):
                block = graph.blocks[block_id]
                for stmt in block.stmts:
                    if not isinstance(stmt, Pi):
                        continue
                    kept, removed, by_reason = decide(stmt, body, structure)
                    if removed and tracer.enabled:
                        _record_removals(tracer, structure, stmt, removed, by_reason)
                    stats.args_removed += len(removed)
                    stmt.conflicts = kept

    # Delete π terms reduced to their control argument.
    reduced = [pi for pi in pis if not pi.conflicts and pi.parent is not None]
    if reduced:
        usemap = build_term_use_map(program)
        for pi in reduced:
            control = pi.control
            uses = usemap.uses_of(pi)
            for use, _holder in uses:
                use.name = control.name
                use.version = control.version
                use.def_site = control.def_site
            remove_stmt(pi)
            _remove_from_block(graph, pi)
            stats.pis_deleted += 1
            if tracer.enabled:
                tracer.event(
                    PiDeleted(
                        pi.var_name, pi.target, control.ssa_name, len(uses)
                    )
                )
                tracer.counter("cssame.pis_deleted").inc()
        graph.reindex_statements()
    if tracer.enabled:
        from repro.obs.prof import record_work

        record_work(
            "rewrite-pi",
            pi_terms=stats.pis_before,
            conflict_args=stats.args_before,
            args_removed=stats.args_removed,
            pis_deleted=stats.pis_deleted,
            decisions=decide.count,
        )
    return stats


class _Decisions:
    """A.3's verdicts on conflict-argument tuples.

    π terms of one (variable, thread-path class) share one argument
    tuple.  A.3's verdict on a π depends on that tuple, the mutex
    structure, whether the protected use is upward-exposed from the π's
    body (Theorem 2), and on the body itself only through the arguments
    defined inside it, which the theorems leave alone.  A π's body
    rarely holds any (its arguments come from concurrent threads), so
    each distinct (tuple, structure, body if it holds an argument,
    Theorem 2 outcome) is decided once and every π with the same inputs
    gets the same narrowed tuple.  The memo tables hold the tuples
    themselves, so their ``id`` keys stay valid.
    """

    def __init__(self, graph: FlowGraph) -> None:
        self.graph = graph
        self._dataflow: dict[int, BodyDataflow] = {}
        #: (tuple id, structure id) → (tuple, [(arg, def block, def
        #: index, the structure's body holding the def or None)], ids
        #: of those bodies)
        self._located: dict[tuple[int, int], tuple] = {}
        #: (tuple id, structure id, own body id, not exposed) → (tuple,
        #: kept, removed, removals by reason)
        self._verdicts: dict[tuple, tuple] = {}
        #: (body identity, def uid) → does the def reach that body's exit?
        self._reaches: dict[tuple[int, int], bool] = {}
        #: distinct verdicts reached (the pass's inner-loop work measure)
        self.count = 0

    def dataflow(self, body: MutexBody) -> BodyDataflow:
        found = self._dataflow.get(id(body))
        if found is None:
            found = self._dataflow[id(body)] = BodyDataflow(self.graph, body)
        return found

    def __call__(self, pi: Pi, body: MutexBody, structure: MutexStructure) -> tuple:
        """``pi``'s narrowed tuple, its removed (argument name, reason)s
        and their count by reason."""
        args = pi.conflicts
        located, bodies = self._locate(args, structure)
        own = body if id(body) in bodies else None
        if len(bodies) == (own is not None):
            # Unsynchronized definitions, or definitions in the π's own
            # body (possible when the body spans a whole cobegin): the
            # theorems do not apply — keep every argument.
            not_exposed = None
        else:
            use_block, use_index = self.graph.location_of(pi)
            not_exposed = not self.dataflow(body).upward_exposed(
                pi.var_name, use_block, use_index
            )
        key = (id(args), id(structure), id(own), not_exposed)
        verdict = self._verdicts.get(key)
        if verdict is None:
            self.count += 1
            verdict = self._verdicts[key] = (args,) + self._narrow(
                pi.var_name, args, located, own, not_exposed
            )
        return verdict[1:]

    def _locate(self, args: tuple[EVar, ...], structure: MutexStructure) -> tuple:
        key = (id(args), id(structure))
        found = self._located.get(key)
        if found is None:
            located = []
            for arg in args:
                def_site = arg.def_site
                if not isinstance(def_site, SAssign):
                    raise AnalysisError(
                        f"π conflict argument without a real definition: {arg!r}"
                    )
                def_block, def_index = self.graph.location_of(def_site)
                located.append(
                    (arg, def_block, def_index, structure.body_of_block(def_block))
                )
            bodies = {id(entry[3]) for entry in located if entry[3] is not None}
            found = self._located[key] = (args, located, bodies)
        return found[1], found[2]

    def _narrow(
        self,
        var: str,
        args: tuple[EVar, ...],
        located: list[tuple],
        own: MutexBody | None,
        not_exposed: bool | None,
    ) -> tuple:
        removed: list[tuple[str, str]] = []
        by_reason: dict[str, int] = {}
        if not_exposed is None:
            return args, removed, by_reason
        dropped: set[int] = set()
        for arg, def_block, def_index, other_body in located:
            if other_body is None or other_body is own:
                continue
            if not_exposed:
                reason = REASON_NOT_UPWARD_EXPOSED
            else:
                # Theorem 1's condition depends only on the definition
                # and the body it is judged against (a def under nested
                # locks belongs to one body per structure).
                key = (id(other_body), arg.def_site.uid)
                killed = self._reaches.get(key)
                if killed is None:
                    killed = self._reaches[key] = not self.dataflow(
                        other_body
                    ).reaches_exit(var, def_block, def_index)
                if not killed:
                    continue
                reason = REASON_DOES_NOT_REACH_EXIT
            removed.append((arg.ssa_name, reason))
            by_reason[reason] = by_reason.get(reason, 0) + 1
            dropped.add(id(arg))
        if not removed:
            return args, removed, by_reason
        kept = tuple(arg for arg in args if id(arg) not in dropped)
        return kept, removed, by_reason


def _record_removals(
    tracer,
    structure: MutexStructure,
    pi: Pi,
    removed: list[tuple[str, str]],
    by_reason: dict[str, int],
) -> None:
    """Log A.3's conflict-argument removals from one π, with their theorems."""
    for arg_name, reason in removed:
        tracer.event(
            PiArgRemoved(structure.lock_name, pi.var_name, pi.target, arg_name, reason)
        )
    tracer.counter("cssame.args_removed").inc(len(removed))
    for reason, count in by_reason.items():
        tracer.counter(f"cssame.args_removed.{reason}").inc(count)


def _remove_from_block(graph: FlowGraph, stmt: IRStmt) -> None:
    block = graph.block_of(stmt)
    for i, existing in enumerate(block.stmts):
        if existing is stmt:
            block.stmts.pop(i)
            return
    raise AnalysisError(f"{stmt!r} missing from its block")  # pragma: no cover
