"""Shared-variable detection and the non-control PFG edge sets.

*Access sites* are statement-position-precise records of every variable
definition and use in the graph.  From them we derive:

* the set of **shared variables** — accessed by two MHP sites, at least
  one a write;
* **conflict edges** (def→use ``DU`` and write-write ``DD``) between
  concurrent blocks, as drawn in the paper's Figure 2;
* **mutex edges** between ``Lock``/``Unlock`` nodes of the same lock in
  concurrent threads;
* **directed sync edges** from ``set(e)`` to ``wait(e)``.

MHP depends only on the two blocks' thread paths, and a graph has a
handful of distinct paths however many blocks it has.  The
:class:`AccessIndex` therefore groups each variable's sites by
*thread-path class* and answers every MHP-filtered question from a
class-pair table, so no analysis walks the def × access product.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.blocks import BasicBlock, NodeKind
from repro.cfg.concurrency import may_happen_in_parallel, thread_paths_diverge
from repro.cfg.graph import ConflictGroup, ConflictGroups, FlowGraph, MutexEdge, SyncEdge
from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Phi, Pi, SAssign

__all__ = [
    "AccessIndex",
    "AccessSite",
    "AccessSites",
    "access_index",
    "add_conflict_edges",
    "add_mutex_edges",
    "add_sync_edges",
    "collect_access_sites",
    "is_memory_access",
    "shared_variables",
]


def is_memory_access(site: "AccessSite") -> bool:
    """True when the site is a *runtime* memory operation.

    φ terms are SSA bookkeeping: they read and write nothing when the
    program runs, and neither does a π's temporary.  A π's control
    argument stands for the original (rewritten) read, in the same
    block.  (π conflict arguments get no site at all; see
    :func:`collect_access_sites`.)  Filtering matters for precision: no
    phantom unprotected reads at join blocks.
    """
    stmt = site.stmt
    if isinstance(stmt, Phi):
        return False
    if isinstance(stmt, Pi):
        return not site.is_def  # π temporaries are thread-local
    return True


class AccessSite:
    """One definition or use of a variable at a precise position.

    ``index`` is the statement's position within its block; φ terms have
    negative indices so they order before ordinary statements.
    ``is_real_def`` distinguishes genuine assignments from φ/π defs —
    π conflict arguments and the theorems of Section 4 only consider
    real definitions.
    """

    __slots__ = ("var", "block_id", "index", "stmt", "is_def", "is_real_def", "evar")

    def __init__(
        self,
        var: str,
        block_id: int,
        index: int,
        stmt: IRStmt,
        is_def: bool,
        is_real_def: bool,
        evar: Optional[EVar],
    ) -> None:
        self.var = var
        self.block_id = block_id
        self.index = index
        self.stmt = stmt
        self.is_def = is_def
        self.is_real_def = is_real_def
        self.evar = evar

    def __repr__(self) -> str:  # pragma: no cover
        role = "def" if self.is_def else "use"
        return f"AccessSite({self.var}, B{self.block_id}@{self.index}, {role})"


class AccessSites(dict):
    """Access sites by base variable name (``dict[str, list[AccessSite]]``).

    Also carries the :class:`AccessIndex` built from it, so every pass
    handed the same collection shares one index.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        super().__init__()
        self.index: Optional[AccessIndex] = None


def collect_access_sites(graph: FlowGraph) -> AccessSites:
    """Every access site in the graph, grouped by base variable name.

    π conflict arguments get no site.  They are no runtime access, and
    each names the π's own variable, whose control-argument site sits
    in the same block: a site of theirs would add no thread-path class
    to any variable, only (π × concurrent def) objects for every
    consumer to drop.
    """
    sites = AccessSites()

    def add(site: AccessSite) -> None:
        sites.setdefault(site.var, []).append(site)

    for block in graph.blocks:
        nphis = len(block.phis)
        for i, phi in enumerate(block.phis):
            index = i - nphis
            add(AccessSite(phi.target, block.id, index, phi, True, False, None))
            for arg in phi.args:
                add(AccessSite(arg.var.name, block.id, index, phi, False, False, arg.var))
        for i, stmt in enumerate(block.stmts):
            target = stmt.def_name()
            if target is not None:
                is_real = isinstance(stmt, SAssign)
                add(AccessSite(target, block.id, i, stmt, True, is_real, None))
            if isinstance(stmt, Pi):
                control = stmt.control
                add(AccessSite(control.name, block.id, i, stmt, False, False, control))
                continue
            for var in stmt.uses():
                add(AccessSite(var.name, block.id, i, stmt, False, False, var))
    return sites


class _MemoryBlocks:
    """One variable's runtime accesses, as block ids per thread-path class."""

    __slots__ = ("def_sites", "defs", "uses", "accesses")

    def __init__(self) -> None:
        #: class → real-definition sites
        self.def_sites: dict[int, list[AccessSite]] = {}
        #: class → block ids holding a real definition
        self.defs: dict[int, set[int]] = {}
        #: class → block ids holding a runtime read
        self.uses: dict[int, set[int]] = {}
        #: classes holding any runtime access
        self.accesses: set[int] = set()


class AccessIndex:
    """The access sites of one graph state, grouped by thread-path class.

    Blocks with equal ``thread_path`` are in one class, and MHP is exact
    on classes: :func:`~repro.cfg.concurrency.may_happen_in_parallel`
    reads nothing but the two paths.  ``mhp[c1][c2]`` is computed once
    per class pair; everything else is a lookup.  ``pair_queries``
    counts those lookups (the index's deterministic work measure).
    """

    def __init__(self, graph: FlowGraph, sites: dict[str, list[AccessSite]]) -> None:
        self.sites = sites
        classes: dict[tuple, int] = {}
        #: block id → thread-path class
        self.block_class = [
            classes.setdefault(block.thread_path, len(classes)) for block in graph.blocks
        ]
        paths = list(classes)
        #: class × class → may happen in parallel
        self.mhp = [[thread_paths_diverge(a, b) for b in paths] for a in paths]
        self.pair_queries = 0
        self._memory: dict[str, _MemoryBlocks] = {}
        self._site_classes: dict[str, dict[int, bool]] = {}
        self._conflict_args: dict[tuple[str, int], tuple[EVar, ...]] = {}

    @property
    def n_classes(self) -> int:
        return len(self.mhp)

    def memory_blocks(self, var: str) -> _MemoryBlocks:
        """``var``'s runtime accesses (:func:`is_memory_access`) by class."""
        found = self._memory.get(var)
        if found is None:
            found = self._memory[var] = _MemoryBlocks()
            for s in self.sites.get(var, ()):
                if not is_memory_access(s):
                    continue
                cls = self.block_class[s.block_id]
                if s.is_real_def:
                    found.def_sites.setdefault(cls, []).append(s)
                    found.defs.setdefault(cls, set()).add(s.block_id)
                elif not s.is_def:
                    found.uses.setdefault(cls, set()).add(s.block_id)
                found.accesses.add(cls)
        return found

    def is_shared(self, var: str) -> bool:
        """Two MHP runtime accesses to ``var``, at least one a real write."""
        memory = self.memory_blocks(var)
        for d_cls in memory.defs:
            row = self.mhp[d_cls]
            for a_cls in memory.accesses:
                self.pair_queries += 1
                if row[a_cls]:
                    return True
        return False

    def conflict_group(self, var: str) -> Optional[ConflictGroup]:
        """``var``'s DU/DD conflict edges, counted from class sizes."""
        memory = self.memory_blocks(var)
        if not memory.defs:
            return None
        count = 0
        for d_cls, defs in memory.defs.items():
            row = self.mhp[d_cls]
            for u_cls, uses in memory.uses.items():
                self.pair_queries += 1
                if row[u_cls]:
                    count += len(defs) * len(uses)
            for d2_cls, defs2 in memory.defs.items():
                if d2_cls < d_cls:
                    continue  # each unordered write-write pair once
                self.pair_queries += 1
                if not row[d2_cls]:
                    continue
                if d2_cls == d_cls:
                    count += len(defs) * (len(defs) - 1) // 2
                else:
                    count += len(defs) * len(defs2)
        if not count:
            return None
        def_blocks = sorted(b for blocks in memory.defs.values() for b in blocks)
        use_blocks = sorted(b for blocks in memory.uses.values() for b in blocks)
        return ConflictGroup(var, def_blocks, use_blocks, count)

    def conflict_args(self, var: str, block: BasicBlock) -> tuple[EVar, ...]:
        """π conflict arguments for a use of ``var`` in ``block``: one
        ``EVar`` per real definition of ``var`` that may run in parallel
        with ``block``, each once, ordered by position.

        Built once per (variable, thread-path class) and shared by every
        π of that class; the tuple and its ``EVar``s are never edited
        (passes narrowing a π replace its tuple).
        """
        cls = self.block_class[block.id]
        key = (var, cls)
        found = self._conflict_args.get(key)
        if found is None:
            row = self.mhp[cls]
            defs = []
            for d_cls, sites in self.memory_blocks(var).def_sites.items():
                self.pair_queries += 1
                if row[d_cls]:
                    defs.extend(sites)
            defs.sort(key=lambda s: (s.block_id, s.index))
            args = []
            seen: set[int] = set()
            for d in defs:
                assert isinstance(d.stmt, SAssign)
                if id(d.stmt) not in seen:
                    seen.add(id(d.stmt))
                    args.append(EVar(var, d.stmt.version, d.stmt))
            found = self._conflict_args[key] = tuple(args)
        return found

    def site_classes(self, var: str) -> dict[int, bool]:
        """Classes holding any site of ``var`` (φ/π bookkeeping included)
        → whether one of them is a real definition."""
        found = self._site_classes.get(var)
        if found is None:
            found = self._site_classes[var] = {}
            for s in self.sites.get(var, ()):
                cls = self.block_class[s.block_id]
                found[cls] = found.get(cls, False) or s.is_real_def
        return found

    def has_concurrent_write(self, var: str, block: BasicBlock) -> bool:
        """Some real definition of ``var`` may run in parallel with ``block``."""
        row = self.mhp[self.block_class[block.id]]
        for cls, has_def in self.site_classes(var).items():
            self.pair_queries += 1
            if has_def and row[cls]:
                return True
        return False

    def has_concurrent_access(self, var: str, block: BasicBlock) -> bool:
        """Some site of ``var`` may run in parallel with ``block``."""
        row = self.mhp[self.block_class[block.id]]
        for cls in self.site_classes(var):
            self.pair_queries += 1
            if row[cls]:
                return True
        return False


def access_index(
    graph: FlowGraph,
    sites: Optional[dict[str, list[AccessSite]]] = None,
) -> AccessIndex:
    """The class index of ``sites`` (collected from ``graph`` when
    omitted), shared by every caller handed the same collection."""
    if sites is None:
        sites = collect_access_sites(graph)
    index = getattr(sites, "index", None)
    if index is None:
        index = AccessIndex(graph, sites)
        if isinstance(sites, AccessSites):
            sites.index = index
    return index


def shared_variables(
    graph: FlowGraph,
    sites: Optional[dict[str, list[AccessSite]]] = None,
) -> set[str]:
    """Variables with two MHP accesses, at least one of them a write."""
    index = access_index(graph, sites)
    return {var for var in index.sites if index.is_shared(var)}


def add_conflict_edges(
    graph: FlowGraph,
    sites: Optional[dict[str, list[AccessSite]]] = None,
) -> ConflictGroups:
    """Populate ``graph.conflict_edges`` (block granularity, deduped).

    Edges are stored as one :class:`~repro.cfg.graph.ConflictGroup` per
    variable; they become ``ConflictEdge`` objects only when iterated.
    """
    index = access_index(graph, sites)
    groups = []
    for var in index.sites:
        group = index.conflict_group(var)
        if group is not None:
            groups.append(group)
    graph.conflict_edges = ConflictGroups(groups, index.block_class, index.mhp)
    return graph.conflict_edges


def add_mutex_edges(graph: FlowGraph) -> list[MutexEdge]:
    """Undirected mutex edges between concurrent Lock/Unlock nodes that
    operate on the same lock variable (paper Definition 1)."""
    locks = graph.nodes_of_kind(NodeKind.LOCK)
    unlocks = graph.nodes_of_kind(NodeKind.UNLOCK)
    edges: list[MutexEdge] = []
    for ln in locks:
        lock_name = ln.stmts[0].lock_name  # type: ignore[attr-defined]
        for un in unlocks:
            if un.stmts[0].lock_name != lock_name:  # type: ignore[attr-defined]
                continue
            if may_happen_in_parallel(ln, un):
                edges.append(MutexEdge(ln.id, un.id, lock_name))
    graph.mutex_edges = edges
    return edges


def add_sync_edges(graph: FlowGraph) -> list[SyncEdge]:
    """Directed sync edges from every ``set(e)`` to every concurrent
    ``wait(e)``."""
    sets = graph.nodes_of_kind(NodeKind.SET)
    waits = graph.nodes_of_kind(NodeKind.WAIT)
    edges: list[SyncEdge] = []
    for sn in sets:
        event = sn.stmts[0].event_name  # type: ignore[attr-defined]
        for wn in waits:
            if wn.stmts[0].event_name != event:  # type: ignore[attr-defined]
                continue
            if may_happen_in_parallel(sn, wn):
                edges.append(SyncEdge(sn.id, wn.id, event))
    graph.sync_edges = edges
    return edges
