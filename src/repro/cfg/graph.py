"""The Parallel Flow Graph container.

Holds the block table, the typed non-control edge sets (conflict, mutex,
directed sync) and a statement-location index used by position-sensitive
analyses (mutex-body exposure, LICM).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from repro.errors import CFGError
from repro.cfg.blocks import BasicBlock, NodeKind
from repro.ir.stmts import IRStmt

__all__ = [
    "ConflictEdge",
    "ConflictGroup",
    "ConflictGroups",
    "FlowGraph",
    "MutexEdge",
    "SyncEdge",
]


class ConflictEdge:
    """A directed conflict edge between concurrent accesses (Def. 1).

    ``kind`` labels the memory operations at each end, as in the paper's
    figures: ``"DU"`` (def reaches use), ``"DD"`` (write-write) or
    ``"UD"`` (use before overwrite).
    """

    __slots__ = ("src_block", "dst_block", "var", "kind")

    def __init__(self, src_block: int, dst_block: int, var: str, kind: str) -> None:
        self.src_block = src_block
        self.dst_block = dst_block
        self.var = var
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConflictEdge(B{self.src_block}->B{self.dst_block}, {self.var}, {self.kind})"


class ConflictGroup(NamedTuple):
    """The conflict edges of one variable, unexpanded.

    ``def_blocks`` and ``use_blocks`` are the sorted ids of the blocks
    holding a real definition or a runtime read of ``var``; ``count`` is
    the number of pairwise :class:`ConflictEdge` objects they stand for.
    """

    var: str
    def_blocks: list[int]
    use_blocks: list[int]
    count: int


class ConflictGroups:
    """A graph's conflict edges, stored as per-variable groups.

    MHP is a function of the two blocks' thread-path classes, so a group
    plus the class table (``block_class``: block id → class,
    ``mhp[c1][c2]``) determines every edge.  ``len()`` and
    :meth:`variables` read the groups; iterating expands them to
    :class:`ConflictEdge` objects in the order of the pairwise
    definition: per variable, each def block in id order with its
    ``DU`` edges to the use blocks and then its ``DD`` edges to later
    def blocks.  Only DOT rendering needs that expansion.
    """

    __slots__ = ("groups", "block_class", "mhp", "_count")

    def __init__(
        self,
        groups: Sequence[ConflictGroup] = (),
        block_class: Sequence[int] = (),
        mhp: Sequence[Sequence[bool]] = (),
    ) -> None:
        self.groups = list(groups)
        self.block_class = block_class
        self.mhp = mhp
        self._count = sum(group.count for group in self.groups)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[ConflictEdge]:
        cls = self.block_class
        for group in self.groups:
            var = group.var
            # class → (its concurrent use blocks, its concurrent def blocks)
            partners: dict[int, tuple[list[int], list[int]]] = {}
            for d_id in group.def_blocks:
                c = cls[d_id]
                if c not in partners:
                    row = self.mhp[c]
                    partners[c] = (
                        [u for u in group.use_blocks if row[cls[u]]],
                        [d for d in group.def_blocks if row[cls[d]]],
                    )
                uses, defs = partners[c]
                for u_id in uses:
                    yield ConflictEdge(d_id, u_id, var, "DU")
                for d2_id in defs:
                    if d2_id > d_id:
                        yield ConflictEdge(d_id, d2_id, var, "DD")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ConflictGroups, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def variables(self) -> set[str]:
        """Variables with at least one conflict edge."""
        return {group.var for group in self.groups}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConflictGroups({len(self.groups)} vars, {self._count} edges)"


class MutexEdge:
    """An undirected mutex synchronization edge between a Lock node and
    an Unlock node on the same lock variable in concurrent threads."""

    __slots__ = ("lock_block", "unlock_block", "lock_name")

    def __init__(self, lock_block: int, unlock_block: int, lock_name: str) -> None:
        self.lock_block = lock_block
        self.unlock_block = unlock_block
        self.lock_name = lock_name

    def __repr__(self) -> str:  # pragma: no cover
        return f"MutexEdge(B{self.lock_block}--B{self.unlock_block}, {self.lock_name})"


class SyncEdge:
    """A directed synchronization edge from ``set(e)`` to ``wait(e)``."""

    __slots__ = ("set_block", "wait_block", "event_name")

    def __init__(self, set_block: int, wait_block: int, event_name: str) -> None:
        self.set_block = set_block
        self.wait_block = wait_block
        self.event_name = event_name

    def __repr__(self) -> str:  # pragma: no cover
        return f"SyncEdge(B{self.set_block}->B{self.wait_block}, {self.event_name})"


class FlowGraph:
    """A PFG over shared statement objects.

    ``blocks`` is dense: ``blocks[i].id == i``.  Control flow lives in
    each block's ``preds``/``succs``; the other edge kinds live in the
    ``conflict_edges`` / ``mutex_edges`` / ``sync_edges`` lists.
    """

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.entry_id: int = -1
        self.exit_id: int = -1
        self.conflict_edges = ConflictGroups()
        self.mutex_edges: list[MutexEdge] = []
        self.sync_edges: list[SyncEdge] = []
        #: stmt uid → (block_id, index within block.stmts); φ terms are
        #: indexed with negative positions (-len(phis)..-1) so that any
        #: φ orders before any ordinary statement of the same block.
        self.stmt_locations: dict[int, tuple[int, int]] = {}
        #: branch stmt uid → block id (block whose terminator it is)
        self.branch_blocks: dict[int, int] = {}
        #: cobegin region uid → (cobegin node id, coend node id)
        self.cobegin_nodes: dict[int, tuple[int, int]] = {}

    # -- construction ----------------------------------------------------

    def new_block(self, kind: NodeKind, thread_path: tuple = ()) -> BasicBlock:
        block = BasicBlock(len(self.blocks), kind, thread_path)
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].succs.append(dst)
        self.blocks[dst].preds.append(src)

    # -- queries -----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_id]

    @property
    def exit(self) -> BasicBlock:
        return self.blocks[self.exit_id]

    def block_of(self, stmt: IRStmt) -> BasicBlock:
        loc = self.stmt_locations.get(stmt.uid)
        if loc is None:
            raise CFGError(f"statement not in graph: {stmt!r}")
        return self.blocks[loc[0]]

    def location_of(self, stmt: IRStmt) -> tuple[int, int]:
        loc = self.stmt_locations.get(stmt.uid)
        if loc is None:
            raise CFGError(f"statement not in graph: {stmt!r}")
        return loc

    def contains_stmt(self, stmt: IRStmt) -> bool:
        return stmt.uid in self.stmt_locations

    def iter_blocks(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def nodes_of_kind(self, kind: NodeKind) -> list[BasicBlock]:
        return [b for b in self.blocks if b.kind is kind]

    # -- maintenance -------------------------------------------------------

    def reindex_statements(self) -> None:
        """Rebuild ``stmt_locations`` after statements were inserted or
        removed from blocks."""
        self.stmt_locations.clear()
        for block in self.blocks:
            nphis = len(block.phis)
            for i, phi in enumerate(block.phis):
                self.stmt_locations[phi.uid] = (block.id, i - nphis)
            for i, stmt in enumerate(block.stmts):
                self.stmt_locations[stmt.uid] = (block.id, i)

    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder from the entry (control edges)."""
        seen = [False] * len(self.blocks)
        order: list[int] = []
        # Iterative DFS with an explicit stack (graphs can be deep).
        stack: list[tuple[int, int]] = [(self.entry_id, 0)]
        seen[self.entry_id] = True
        while stack:
            node, child_idx = stack[-1]
            succs = self.blocks[node].succs
            if child_idx < len(succs):
                stack[-1] = (node, child_idx + 1)
                succ = succs[child_idx]
                if not seen[succ]:
                    seen[succ] = True
                    stack.append((succ, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def validate(self) -> None:
        """Internal consistency checks; raises :class:`CFGError`."""
        for block in self.blocks:
            for succ in block.succs:
                if block.id not in self.blocks[succ].preds:
                    raise CFGError(f"edge B{block.id}->B{succ} missing back-link")
            for pred in block.preds:
                if block.id not in self.blocks[pred].succs:
                    raise CFGError(f"edge B{pred}->B{block.id} missing forward-link")
        if self.entry_id < 0 or self.exit_id < 0:
            raise CFGError("graph missing entry or exit")
        if self.entry.preds:
            raise CFGError("entry block has predecessors")
        if self.exit.succs:
            raise CFGError("exit block has successors")
