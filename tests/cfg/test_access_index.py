"""The thread-path-class access index against pairwise reference scans.

Each reference below is a copy of the pairwise loop the index replaced,
kept here as the oracle: the class-indexed answers must match it
exactly, in order, on seeded ``repro.synth`` programs.
"""

import pytest

from repro import api
from repro.cfg.builder import build_flow_graph
from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import (
    access_index,
    add_conflict_edges,
    collect_access_sites,
    is_memory_access,
    shared_variables,
)
from repro.cfg.dot import to_dot
from repro.cfg.graph import ConflictGroups
from repro.cssa import builder as cssa_builder
from repro.cssa.pi import place_pi_terms
from repro.cssame import build_cssame, parallel_reaching_definitions
from repro.dynamic.audit import audit_source
from repro.ir.printer import format_ir
from repro.ir.stmts import Pi
from repro.ir.structured import clone_program, iter_statements
from repro.opt.concprop import concurrent_constant_propagation
from repro.opt.pipeline import optimize
from repro.session import Session
from repro.ssa.construct import build_ssa
from repro.synth import generate_program, generate_source
from tests.conftest import (
    SYNTH_CASES,
    SYNTH_KINDS,
    collect_sites_with_pi_arguments,
    synth_case_id,
    synth_config,
)


def reference_conflict_edges(graph, sites):
    """The pairwise def × access loop, as (src, dst, var, kind) tuples."""
    edges = []
    for var, all_accesses in sites.items():
        def_blocks = set()
        use_blocks = set()
        for s in all_accesses:
            if not is_memory_access(s):
                continue
            if s.is_real_def:
                def_blocks.add(s.block_id)
            elif not s.is_def:
                use_blocks.add(s.block_id)
        if not def_blocks:
            continue
        for d_id in sorted(def_blocks):
            d_block = graph.blocks[d_id]
            for u_id in sorted(use_blocks):
                if may_happen_in_parallel(d_block, graph.blocks[u_id]):
                    edges.append((d_id, u_id, var, "DU"))
            for d2_id in sorted(def_blocks):
                if d2_id <= d_id:
                    continue
                if may_happen_in_parallel(d_block, graph.blocks[d2_id]):
                    edges.append((d_id, d2_id, var, "DD"))
    return edges


def reference_shared(graph, sites):
    shared = set()
    for var, all_accesses in sites.items():
        accesses = [s for s in all_accesses if is_memory_access(s)]
        if any(
            d.is_real_def and may_happen_in_parallel(
                graph.blocks[d.block_id], graph.blocks[a.block_id]
            )
            for d in accesses
            for a in accesses
        ):
            shared.add(var)
    return shared


def memory_blocks(sites):
    """var → (real-def blocks, read blocks), runtime accesses only."""
    out = {}
    for var, all_accesses in sites.items():
        defs = {s.block_id for s in all_accesses if is_memory_access(s) and s.is_real_def}
        uses = {s.block_id for s in all_accesses if is_memory_access(s) and not s.is_def}
        out[var] = (defs, uses)
    return out


def ssa_graph(case):
    program = generate_program(synth_config(*case))
    graph = build_flow_graph(program)
    build_ssa(program, graph)
    return program, graph


def as_tuples(edges):
    return [(e.src_block, e.dst_block, e.var, e.kind) for e in edges]


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_conflict_groups_expand_to_the_pairwise_edges(case):
    program, graph = ssa_graph(case)
    sites = collect_access_sites(graph)
    want = reference_conflict_edges(graph, sites)
    assert shared_variables(graph, sites) == reference_shared(graph, sites)
    groups = add_conflict_edges(graph, sites)
    assert isinstance(groups, ConflictGroups)
    # The count comes from class sizes, before anything expands.
    assert len(groups) == len(want)
    assert groups.variables() == {var for _, _, var, _ in want}
    assert as_tuples(groups) == want
    assert as_tuples(graph.conflict_edges) == want


def reference_conflict_args(graph, sites, pi):
    """Every real def of the π's variable in an MHP block, by position."""
    block = graph.block_of(pi)
    defs = [
        s
        for s in sites.get(pi.var_name, [])
        if s.is_real_def and may_happen_in_parallel(block, graph.blocks[s.block_id])
    ]
    defs.sort(key=lambda s: (s.block_id, s.index))
    return [(s.stmt.version, s.stmt) for s in defs]


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_pi_conflict_args_match_pairwise_filter(case):
    program, graph = ssa_graph(case)
    sites = collect_access_sites(graph)
    pis = place_pi_terms(program, graph, sites)
    for pi in pis:
        got = [(arg.version, arg.def_site) for arg in pi.conflicts]
        assert got == reference_conflict_args(graph, sites, pi)
        assert all(arg.name == pi.var_name for arg in pi.conflicts)


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_pi_placement_keeps_the_runtime_accesses(case):
    """One site collection serves a whole CSSA build only because π
    insertion adds nothing but bookkeeping sites."""
    program, graph = ssa_graph(case)
    before = collect_access_sites(graph)
    place_pi_terms(program, graph, before)
    after = collect_access_sites(graph)
    with_defs = {var for var, (defs, _) in memory_blocks(before).items() if defs}
    # π temporaries are new variables that nothing really defines.
    assert with_defs == {var for var, (defs, _) in memory_blocks(after).items() if defs}
    for var in with_defs:
        assert memory_blocks(before)[var] == memory_blocks(after)[var], var
    assert as_tuples(add_conflict_edges(graph, before)) == reference_conflict_edges(
        graph, after
    )


@pytest.mark.parametrize("case", SYNTH_CASES[::3], ids=synth_case_id)
def test_pi_placement_with_and_without_sites(case):
    listings = []
    for pass_sites in (False, True):
        program, graph = ssa_graph(case)
        sites = collect_access_sites(graph) if pass_sites else None
        pis = place_pi_terms(program, graph, sites)
        listings.append(
            [(pi.target, pi.control.ssa_name, [a.ssa_name for a in pi.conflicts]) for pi in pis]
        )
    assert listings[0] == listings[1]


def _pi_args(program):
    return [(stmt, stmt.conflicts) for stmt, _ctx in iter_statements(program) if isinstance(stmt, Pi)]


def test_conflict_arguments_are_shared_per_class(monkeypatch):
    """One immutable tuple per (variable, thread-path class), never edited
    by any pass; clones share within themselves and stand alone."""
    placed = {}

    def place_and_record(program, graph, sites=None):
        pis = place_pi_terms(program, graph, sites)
        index = access_index(graph, sites)
        keys = set()
        for pi in pis:
            assert type(pi.conflicts) is tuple
            assert pi.conflicts is index.conflict_args(pi.var_name, graph.block_of(pi))
            keys.add((pi.var_name, index.block_class[graph.block_of(pi).id]))
        assert len({id(pi.conflicts) for pi in pis}) == len(keys) < len(pis)
        for pi in pis:
            for arg in pi.conflicts:
                placed[id(arg)] = (arg, arg.name, arg.version, arg.def_site)
        return pis

    monkeypatch.setattr(cssa_builder, "place_pi_terms", place_and_record)
    program = generate_program(synth_config("racy", 10, 10))
    report = optimize(program)
    assert placed
    # Narrowing replaced tuples but never edited one of the shared EVars.
    for arg, name, version, def_site in placed.values():
        assert (arg.name, arg.version, arg.def_site) == (name, version, def_site)
    for pi in report.form.pis:
        assert all(id(arg) in placed for arg in pi.conflicts)

    # A clone shares exactly as the original does, with its own objects.
    original = generate_program(synth_config("racy", 10, 10))
    form = build_cssame(original, prune=False)
    clone = clone_program(form.program)
    before, after = _pi_args(form.program), _pi_args(clone)
    assert len(before) == len(after) > 0
    for (_, a1), (_, c1) in zip(before, after):
        for (_, a2), (_, c2) in zip(before, after):
            assert (a1 is a2) == (c1 is c2)
    clone_stmts = {id(stmt) for stmt, _ctx in iter_statements(clone)}
    original_args = {id(arg) for _, args in before for arg in args}
    for (pi, args), (pi_clone, args_clone) in zip(before, after):
        assert args_clone is not args
        assert [a.ssa_name for a in args_clone] == [a.ssa_name for a in args]
        for arg in args_clone:
            assert id(arg) not in original_args
            assert id(arg.def_site) in clone_stmts
    assert format_ir(clone) == format_ir(form.program)


def test_reaching_definitions_see_every_holder_of_a_shared_argument():
    """A.4 walks a shared argument once: its reaching defs are listed
    once, and the def → uses map lists every π holding it."""
    program = generate_program(synth_config("racy", 10, 10))
    build_cssame(program, prune=False)
    info = parallel_reaching_definitions(program)
    want = {}
    for stmt, _ctx in iter_statements(program):
        if isinstance(stmt, Pi):
            for arg in stmt.conflicts:
                assert info.defs(arg) == [arg.def_site]
                want.setdefault(arg.def_site, []).append(stmt)
    assert want
    for def_site, holders in want.items():
        got = [
            holder
            for use, holder in info.uses(def_site)
            if isinstance(holder, Pi) and use is not holder.control
        ]
        assert [id(h) for h in got] == [id(h) for h in holders]


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_pi_arguments_carry_no_classes(case):
    """Without π conflict-argument sites every class summary is the same:
    each argument names its π's variable, whose control site is in the
    same block."""
    states = []
    program = generate_program(synth_config(*case))
    form = build_cssame(program, prune=False)
    states.append(form.graph)
    concurrent_constant_propagation(program, form.graph)
    states.append(build_flow_graph(program))
    for graph in states:
        sites = collect_access_sites(graph)
        old_sites = collect_sites_with_pi_arguments(graph)
        assert set(sites) == set(old_sites)
        index = access_index(graph, sites)
        old_index = access_index(graph, old_sites)
        for var in old_sites:
            assert index.site_classes(var) == old_index.site_classes(var), var
            assert list(index.site_classes(var)) == list(old_index.site_classes(var)), var
            got, want = index.memory_blocks(var), old_index.memory_blocks(var)
            assert (got.defs, got.uses, got.accesses) == (want.defs, want.uses, want.accesses)
            assert got.def_sites.keys() == want.def_sites.keys()
            for cls, def_sites in got.def_sites.items():
                assert [s.stmt for s in def_sites] == [s.stmt for s in want.def_sites[cls]]
        # The only sites dropped are π conflict arguments.
        dropped = sum(len(v) for v in old_sites.values()) - sum(len(v) for v in sites.values())
        assert dropped == sum(
            len(stmt.conflicts) for block in graph.blocks for stmt in block.stmts
            if isinstance(stmt, Pi)
        )


def test_index_is_shared_per_site_collection():
    _program, graph = ssa_graph(("racy", 6, 6))
    sites = collect_access_sites(graph)
    index = access_index(graph, sites)
    assert access_index(graph, sites) is index
    assert access_index(graph) is not index
    # Three thread paths: before/after the cobegin and one per branch.
    assert index.n_classes == len({b.thread_path for b in graph.blocks})


def test_dot_renders_the_expanded_edges():
    program = generate_program(synth_config("racy", 6, 6))
    form = build_cssame(program, prune=False)
    text = to_dot(form.graph)
    assert text.count("style=dashed") == len(form.graph.conflict_edges) > 0


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_journey_leaves_groups_unexpanded(kind, monkeypatch):
    def refuse(self):
        raise AssertionError("conflict groups expanded")

    monkeypatch.setattr(ConflictGroups, "__iter__", refuse)
    source = generate_source(synth_config(kind, 8, 8))
    session = Session()
    api.compile_source(source, "analyze", session=session)
    api.compile_source(source, "diagnostics", session=session)
    audit_source(source, runs=2, do_explore=False, session=session)
    for prune in (True, False):
        graph = session.analyze(source, prune=prune).graph
        assert isinstance(graph.conflict_edges, ConflictGroups)
        assert len(graph.conflict_edges) > 0  # counted, never iterated
