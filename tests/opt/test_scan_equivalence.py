"""LVN's reuse check and CSCC's φ-store check against the per-site MHP
scans they replaced, and CSCC's per-tuple π pruning against the
per-argument filter.

* ``local_value_numbering``'s ``can_reuse`` now reads
  ``AccessIndex.has_concurrent_write``; the reference scans every access
  site of the variable with ``may_happen_in_parallel``.
* ``_Transformer._phi_store_is_safe`` now walks the index's concurrent
  real-definition classes; the reference below is a copy of the loop
  over every access site it replaced.
"""

import pytest

from repro.cfg import conflicts as conflicts_module
from repro.cfg.builder import build_flow_graph
from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import access_index, collect_access_sites
from repro.cssame import build_cssame
from repro.ir.printer import format_ir
from repro.ir.stmts import IRStmt, Phi, Pi
from repro.opt.concprop import (
    ConstPropStats,
    _Analysis,
    _Transformer,
    concurrent_constant_propagation,
)
from repro.opt.lvn import local_value_numbering
from repro.synth import generate_program
from tests.conftest import SYNTH_CASES, synth_case_id, synth_config


def reference_has_concurrent_write(graph, sites, var, block):
    """LVN's old ``can_reuse`` test, negated: a real def of ``var`` in an
    MHP block, found by scanning every site."""
    return any(
        s.is_real_def and may_happen_in_parallel(block, graph.blocks[s.block_id])
        for s in sites.get(var, [])
    )


class SiteScanIndex:
    """``access_index`` stand-in answering by the per-site scan."""

    def __init__(self, graph, sites=None):
        self.graph = graph
        self.sites = collect_access_sites(graph) if sites is None else sites

    def has_concurrent_write(self, var, block):
        return reference_has_concurrent_write(self.graph, self.sites, var, block)


def lvn_input(case):
    """A CSSAME-form program after CSCC, the state LVN runs on."""
    program = generate_program(synth_config(*case))
    build_cssame(program)
    concurrent_constant_propagation(program)
    return program


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_lvn_reuse_answers_match_site_scan(case):
    graph = build_flow_graph(lvn_input(case))
    sites = collect_access_sites(graph)
    index = access_index(graph, sites)
    for var in sites:
        for block in graph.blocks:
            assert index.has_concurrent_write(var, block) == reference_has_concurrent_write(
                graph, sites, var, block
            ), (var, block.id)


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_lvn_listing_matches_site_scan(case, monkeypatch):
    indexed = lvn_input(case)
    want = local_value_numbering(indexed)
    scanned = lvn_input(case)
    monkeypatch.setattr(conflicts_module, "access_index", SiteScanIndex)
    got = local_value_numbering(scanned)
    assert format_ir(indexed) == format_ir(scanned)
    assert (want.blocks_processed, want.expressions_replaced) == (
        got.blocks_processed,
        got.expressions_replaced,
    )


class SiteScanTransformer(_Transformer):
    """CSCC's transformer with the φ-store check scanning every site."""

    def _phi_store_is_safe(self, phi):
        graph = self.a.graph
        if not graph.contains_stmt(phi):
            return False
        block_id, index = graph.location_of(phi)
        block = graph.blocks[block_id]
        if self._sites is None:
            self._sites = collect_access_sites(graph)

        structures = self._mutex_structures()
        my_bodies = {}
        for lock_name, structure in structures.items():
            body = structure.body_of_block(block_id)
            if body is not None:
                my_bodies[lock_name] = body

        for site in self._sites.get(phi.target, []):
            if not site.is_real_def:
                continue
            if not may_happen_in_parallel(block, graph.blocks[site.block_id]):
                continue
            killed = False
            for lock_name, my_body in my_bodies.items():
                other = structures[lock_name].body_of_block(site.block_id)
                if other is None or other is my_body:
                    continue
                if not self._dataflow(my_body).upward_exposed(phi.target, block_id, index):
                    killed = True
                    break
                if not self._dataflow(other).reaches_exit(
                    phi.target, site.block_id, site.index
                ):
                    killed = True
                    break
            if not killed:
                return False
        return True

    _sites = None


def cscc_transformer(case, transformer_class, prune):
    program = generate_program(synth_config(*case))
    form = build_cssame(program, prune=prune)
    analysis = _Analysis(program, form.graph)
    analysis.run()
    return program, form.graph, transformer_class(analysis, ConstPropStats())


@pytest.mark.parametrize("prune", [True, False], ids=["cssame", "cssa"])
@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_phi_store_check_matches_site_scan(case, prune):
    program, graph, indexed = cscc_transformer(case, _Transformer, prune)
    _program, _graph, scanned = cscc_transformer(case, SiteScanTransformer, prune)
    phis = [
        stmt for block in graph.blocks for stmt in list(block.phis) + block.stmts
        if isinstance(stmt, Phi)
    ]
    ref_phis = [
        stmt for block in _graph.blocks for stmt in list(block.phis) + block.stmts
        if isinstance(stmt, Phi)
    ]
    assert len(phis) == len(ref_phis)
    for phi, ref_phi in zip(phis, ref_phis):
        assert phi.to_str() == ref_phi.to_str()
        assert indexed._phi_store_is_safe(phi) == scanned._phi_store_is_safe(ref_phi), (
            phi.to_str()
        )
    indexed.run()
    scanned.run()
    assert format_ir(program) == format_ir(_program)
    assert indexed.stats.constants == scanned.stats.constants
    assert indexed.stats.phis_removed == scanned.stats.phis_removed


def test_phi_store_check_sees_both_outcomes():
    """The family exercises both answers, so the equivalence above bites."""
    outcomes = set()
    for case in SYNTH_CASES:
        _program, graph, indexed = cscc_transformer(case, _Transformer, True)
        for block in graph.blocks:
            for stmt in list(block.phis) + block.stmts:
                if isinstance(stmt, Phi):
                    outcomes.add(indexed._phi_store_is_safe(stmt))
    assert outcomes == {True, False}


def reference_pruned(analysis, pi):
    """The per-argument filter: drop args whose def block never runs."""
    graph = analysis.graph
    return [
        arg
        for arg in pi.conflicts
        if not (
            isinstance(arg.def_site, IRStmt)
            and graph.contains_stmt(arg.def_site)
            and graph.block_of(arg.def_site).id not in analysis.executable_blocks
        )
    ]


@pytest.mark.parametrize("prune", [True, False], ids=["cssame", "cssa"])
@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_pi_pruning_matches_per_argument_filter(case, prune):
    _program, graph, transformer = cscc_transformer(case, _Transformer, prune)
    pis = [stmt for block in graph.blocks for stmt in block.stmts if isinstance(stmt, Pi)]
    want = [reference_pruned(transformer.a, pi) for pi in pis]
    for pi in pis:
        transformer._prune_pi_args(pi)
    for pi, kept in zip(pis, want):
        assert list(pi.conflicts) == kept, pi.to_str()
        assert type(pi.conflicts) is tuple
