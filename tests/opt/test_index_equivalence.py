"""LICM's class-indexed queries and CSCC's settled-⊥ fixpoint against
test-local references.

* LICM: every ``has_concurrent_write`` / ``has_concurrent_access``
  answer equals a brute-force scan over every access site, and a LICM
  run driven by that scan produces the same listing.
* CSCC: a reference analysis that re-evaluates settled statements and
  meets every π argument again on every visit reaches the same
  constants and the same final listing.
"""

import pytest

from repro.cfg.builder import build_flow_graph
from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import access_index, collect_access_sites
from repro.cssame import build_cssame
from repro.ir.printer import format_ir
from repro.ir.stmts import IRStmt, Pi
from repro.opt import licm as licm_module
from repro.opt import lock_independent_code_motion
from repro.opt.concprop import (
    ConstPropStats,
    _Analysis,
    _Transformer,
    concurrent_constant_propagation,
)
from repro.opt.lattice import meet_all
from repro.opt.pipeline import optimize
from repro.synth import generate_program
from tests.conftest import SYNTH_CASES, synth_case_id, synth_config


class BruteForceConflicts:
    """Definition 5 queries by scanning every site, as LICM once did."""

    def __init__(self, graph, sites=None):
        self.graph = graph
        self.sites = collect_access_sites(graph) if sites is None else sites
        self.pair_queries = 0

    def has_concurrent_write(self, var, block):
        return any(
            s.is_real_def and may_happen_in_parallel(block, self.graph.blocks[s.block_id])
            for s in self.sites.get(var, [])
        )

    def has_concurrent_access(self, var, block):
        return any(
            may_happen_in_parallel(block, self.graph.blocks[s.block_id])
            for s in self.sites.get(var, [])
        )


def licm_input(case):
    """A program in the state the pipeline hands to LICM."""
    program = generate_program(synth_config(*case))
    build_cssame(program)
    concurrent_constant_propagation(program)
    return program


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_licm_class_queries_match_site_scan(case):
    graph = build_flow_graph(licm_input(case))
    sites = collect_access_sites(graph)
    index = access_index(graph, sites)
    brute = BruteForceConflicts(graph, sites)
    for var in sites:
        for block in graph.blocks:
            assert index.has_concurrent_write(var, block) == brute.has_concurrent_write(
                var, block
            ), (var, block.id)
            assert index.has_concurrent_access(var, block) == brute.has_concurrent_access(
                var, block
            ), (var, block.id)
    # One lookup per class holding a site, never one per site.
    assert index.pair_queries <= 2 * len(sites) * len(graph.blocks) * index.n_classes


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_licm_listing_matches_site_scan(case, monkeypatch):
    indexed = licm_input(case)
    want_stats = lock_independent_code_motion(indexed)
    monkeypatch.setattr(licm_module, "access_index", BruteForceConflicts)
    scanned = licm_input(case)
    got_stats = lock_independent_code_motion(scanned)
    assert format_ir(indexed) == format_ir(scanned)
    assert (want_stats.hoisted, want_stats.sunk, want_stats.locks_removed) == (
        got_stats.hoisted,
        got_stats.sunk,
        got_stats.locks_removed,
    )


class EveryVisitAnalysis(_Analysis):
    """CSCC without ⊥ settling: every visit re-evaluates, and a π meets
    all of its executable arguments each time."""

    def _reevaluate(self, stmt):
        self._update(stmt, self.evaluate(stmt))

    def evaluate(self, stmt):
        if not isinstance(stmt, Pi):
            return super().evaluate(stmt)
        self.evals += 1
        vals = [self.value_of_var(stmt.control)]
        for arg in stmt.conflicts:
            site = arg.def_site
            if isinstance(site, IRStmt) and self.graph.contains_stmt(site):
                if self.graph.block_of(site).id not in self.executable_blocks:
                    continue
            vals.append(self.value_of_var(arg))
        return meet_all(vals)


def cscc(case, analysis_class, prune=True):
    """(analysis, lattice value of every statement, stats, listing)."""
    program = generate_program(synth_config(*case))
    form = build_cssame(program, prune=prune)
    analysis = analysis_class(program, form.graph)
    analysis.run()
    values = [
        (block.id, stmt.to_str(), repr(analysis.values.get(stmt)))
        for block in form.graph.blocks
        for stmt in list(block.phis) + block.stmts
    ]
    stats = ConstPropStats()
    _Transformer(analysis, stats).run()
    return analysis, values, stats, format_ir(program)


@pytest.mark.parametrize("prune", [True, False], ids=["cssame", "cssa"])
@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_cscc_matches_every_visit_reference(case, prune):
    settled, settled_values, settled_stats, settled_listing = cscc(case, _Analysis, prune)
    ref, ref_values, ref_stats, ref_listing = cscc(case, EveryVisitAnalysis, prune)
    assert settled_values == ref_values
    assert settled_stats.constants == ref_stats.constants
    assert settled_listing == ref_listing
    assert settled.evals <= ref.evals


def test_settling_skips_evaluations():
    """At least one program of the family re-visits a ⊥ statement."""
    saved = 0
    for case in SYNTH_CASES:
        settled = cscc(case, _Analysis)[0]
        ref = cscc(case, EveryVisitAnalysis)[0]
        saved += ref.evals - settled.evals
    assert saved > 0


@pytest.mark.parametrize("case", SYNTH_CASES[1::4], ids=synth_case_id)
def test_pipeline_work_counters(case):
    from repro.obs.prof import work_counters
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        optimize(generate_program(synth_config(*case)))
    work = work_counters(tracer)
    # Two threads: the code outside the cobegin plus one class per branch.
    assert work["work.cssa.path_classes"] == 3
    assert work["work.cssa.class_pair_queries"] > 0
    assert work["work.licm.class_queries"] > 0
    assert "work.constprop.pi_args_met" in work
