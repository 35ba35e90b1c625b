"""Lockset-style data race detection (paper Section 6).

"If modifications to a variable are not always protected by the same
lock, the compiler will warn the user about a potential data race."

For every shared variable we examine each pair of may-happen-in-parallel
accesses with at least one write.  If the locksets held at the two
accesses are disjoint, no common lock serializes them — a potential
race.  (If they share a lock, the pair is serialized by mutual
exclusion.)

Every test involved reads blocks only (MHP, locksets, event ordering),
so accesses are examined as distinct blocks: each block holding a write
against each distinct (block, is-write) access whose thread-path class
may run in parallel with it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cfg.conflicts import (
    access_index,
    is_memory_access,
    shared_variables,
)
from repro.cfg.graph import FlowGraph
from repro.mutex.lockset import compute_locksets
from repro.mutex.structures import MutexStructure

__all__ = ["RaceReport", "detect_races"]


class RaceReport:
    """A potential data race on ``var`` between two concurrent accesses."""

    __slots__ = ("var", "block_a", "block_b", "kind", "locks_a", "locks_b")

    def __init__(
        self,
        var: str,
        block_a: int,
        block_b: int,
        kind: str,
        locks_a: frozenset[str],
        locks_b: frozenset[str],
    ) -> None:
        self.var = var
        self.block_a = block_a
        self.block_b = block_b
        #: "write-write" or "write-read"
        self.kind = kind
        self.locks_a = locks_a
        self.locks_b = locks_b

    def message(self) -> str:
        return (
            f"potential {self.kind} race on '{self.var}': "
            f"B{self.block_a} holds {_lockset(self.locks_a)} while "
            f"B{self.block_b} holds {_lockset(self.locks_b)} (no common lock)"
        )

    def key(self) -> tuple:
        """Stable identity (variable, ordered blocks, kind) — what the
        dynamic audit joins dynamic findings against."""
        a, b = sorted((self.block_a, self.block_b))
        return (self.var, a, b, self.kind)

    def as_dict(self) -> dict:
        """JSON-serializable form (``repro audit --json``)."""
        return {
            "var": self.var,
            "block_a": self.block_a,
            "block_b": self.block_b,
            "kind": self.kind,
            "locks_a": sorted(self.locks_a),
            "locks_b": sorted(self.locks_b),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"RaceReport({self.message()})"


@lru_cache(maxsize=1024)
def _lockset(locks: frozenset[str]) -> str:
    """``{'A', 'B'}``: set notation in sorted order, so a message does
    not depend on the hash seed."""
    return "{" + ", ".join(repr(lock) for lock in sorted(locks)) + "}"


def detect_races(
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
    use_ordering: bool = True,
) -> list[RaceReport]:
    """Report every MHP conflicting access pair with disjoint locksets.

    Works on plain or CSSA-form graphs: SSA merge terms are ignored
    (see :func:`repro.cfg.conflicts.is_memory_access`).  With
    ``use_ordering`` (default), pairs serialized by event or one-shot
    barrier synchronization — the must-happen-before relation of
    :class:`repro.cssame.ordering.EventOrdering` — are not reported.
    """
    locksets = compute_locksets(graph, structures)
    index = access_index(graph)
    shared = shared_variables(graph, index.sites)

    ordering = None
    if use_ordering:
        from repro.cssame.ordering import EventOrdering

        candidate = EventOrdering(graph)
        if candidate.set_nodes or candidate.barrier_nodes:
            ordering = candidate

    reports: list[RaceReport] = []
    seen: set[tuple[str, int, int, str]] = set()
    pairs_examined = 0
    for var in sorted(shared):
        # Distinct write blocks and (block, is-write) accesses, in site
        # order: the order the reports come out in.
        accesses = list(
            dict.fromkeys(
                (s.block_id, s.is_def) for s in index.sites[var] if is_memory_access(s)
            )
        )
        write_blocks = [block for block, is_def in accesses if is_def]
        #: write class → the accesses that may run in parallel with it
        partners: dict[int, list[tuple[int, bool]]] = {}
        for w_block in write_blocks:
            w_class = index.block_class[w_block]
            candidates = partners.get(w_class)
            if candidates is None:
                row = index.mhp[w_class]
                candidates = partners[w_class] = [
                    access for access in accesses if row[index.block_class[access[0]]]
                ]
            w_locks = locksets[w_block]
            for o_block, is_def in candidates:
                pairs_examined += 1
                if w_locks & locksets[o_block]:
                    continue  # serialized by a common lock
                if ordering is not None and (
                    ordering.must_precede(w_block, o_block)
                    or ordering.must_precede(o_block, w_block)
                ):
                    continue  # serialized by events/barriers
                kind = "write-write" if is_def else "write-read"
                a, b = sorted((w_block, o_block))
                key = (var, a, b, kind)
                if key in seen:
                    continue
                seen.add(key)
                reports.append(
                    RaceReport(var, w_block, o_block, kind, w_locks, locksets[o_block])
                )
    from repro.obs.prof import record_work

    record_work("races", pairs_examined=pairs_examined, reports=len(reports))
    return reports
