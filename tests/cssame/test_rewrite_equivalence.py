"""Algorithm A.3 deciding once per shared argument tuple against the
per-argument loop it replaced.

The reference below is a copy of the old ``rewrite_pi_terms`` loop: it
judges every conflict argument of every π on its own.  Both must produce
the same listing, the same statistics and the same ``PiArgRemoved`` /
``PiDeleted`` events in the same order.
"""

import glob
import os

import pytest

from repro.cssame import build_cssame
from repro.cssame import builder as cssame_builder
from repro.cssame.exposure import BodyDataflow
from repro.cssame.rewrite import RewriteStats, _collect_pis, _remove_from_block
from repro.errors import AnalysisError
from repro.ir.lower import lower_program
from repro.ir.printer import format_ir
from repro.ir.stmts import Phi, Pi, SAssign
from repro.ir.structured import iter_statements, remove_stmt
from repro.lang.parser import parse
from repro.obs.events import (
    REASON_DOES_NOT_REACH_EXIT,
    REASON_NOT_UPWARD_EXPOSED,
    PiArgRemoved,
    PiDeleted,
)
from repro.obs.prof import work_counters
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.ssa.chains import build_term_use_map, build_use_map
from repro.synth import generate_program
from tests.conftest import SYNTH_CASES, synth_case_id, synth_config

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def reference_rewrite_pi_terms(program, graph, structures):
    """The per-argument A.3 loop."""
    stats = RewriteStats()
    tracer = get_tracer()
    pis = _collect_pis(program)
    stats.pis_before = len(pis)
    stats.args_before = sum(len(pi.conflicts) for pi in pis)
    dataflow_cache = {}
    reach_cache = {}

    def dataflow(body):
        if id(body) not in dataflow_cache:
            dataflow_cache[id(body)] = BodyDataflow(graph, body)
        return dataflow_cache[id(body)]

    def removal(structure, pi, arg, reason):
        stats.args_removed += 1
        if tracer.enabled:
            tracer.event(
                PiArgRemoved(structure.lock_name, pi.var_name, pi.target, arg.ssa_name, reason)
            )

    for _lock_name, structure in sorted(structures.items()):
        for body in structure.bodies:
            for block_id in sorted(body.nodes):
                for pi in graph.blocks[block_id].stmts:
                    if not isinstance(pi, Pi):
                        continue
                    var = pi.var_name
                    use_block, use_index = graph.location_of(pi)
                    not_exposed = None
                    kept = []
                    for arg in pi.conflicts:
                        def_site = arg.def_site
                        if not isinstance(def_site, SAssign):
                            raise AnalysisError(f"bad argument {arg!r}")
                        def_block, def_index = graph.location_of(def_site)
                        other_body = structure.body_of_block(def_block)
                        if other_body is None or other_body is body:
                            kept.append(arg)
                            continue
                        if not_exposed is None:
                            not_exposed = not dataflow(body).upward_exposed(
                                var, use_block, use_index
                            )
                        if not_exposed:
                            removal(structure, pi, arg, REASON_NOT_UPWARD_EXPOSED)
                            continue
                        key = (id(other_body), def_site.uid)
                        if key not in reach_cache:
                            reach_cache[key] = not dataflow(other_body).reaches_exit(
                                var, def_block, def_index
                            )
                        if reach_cache[key]:
                            removal(structure, pi, arg, REASON_DOES_NOT_REACH_EXIT)
                        else:
                            kept.append(arg)
                    pi.conflicts = kept

    reduced = [pi for pi in pis if not pi.conflicts and pi.parent is not None]
    if reduced:
        usemap = build_use_map(program)
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
                tracer.event(PiDeleted(pi.var_name, pi.target, control.ssa_name, len(uses)))
        graph.reindex_statements()
    return stats


def build_traced(program):
    tracer = Tracer()
    with use_tracer(tracer):
        form = build_cssame(program)
    events = [
        e.payload() for e in tracer.events() if isinstance(e, (PiArgRemoved, PiDeleted))
    ]
    stats = form.rewrite_stats
    return (
        format_ir(program),
        [(pi.target, [a.ssa_name for a in pi.conflicts]) for pi in form.pis],
        (stats.pis_before, stats.pis_deleted, stats.args_before, stats.args_removed),
        events,
        work_counters(tracer),
    )


def assert_same_rewrite(program_factory, monkeypatch):
    listing, pis, stats, events, work = build_traced(program_factory())
    with monkeypatch.context() as patch:
        patch.setattr(cssame_builder, "rewrite_pi_terms", reference_rewrite_pi_terms)
        ref_listing, ref_pis, ref_stats, ref_events, _ = build_traced(program_factory())
    assert listing == ref_listing
    assert pis == ref_pis
    assert stats == ref_stats
    assert events == ref_events
    # Per-π argument counts stay; decisions count distinct verdicts.
    assert work["work.rewrite-pi.conflict_args"] == stats[2]
    assert work["work.rewrite-pi.decisions"] <= max(stats[2], 1)
    return events


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_rewrite_matches_per_argument_loop(case, monkeypatch):
    assert_same_rewrite(lambda: generate_program(synth_config(*case)), monkeypatch)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(REPO, "examples", "*.par"))), ids=os.path.basename
)
def test_rewrite_matches_per_argument_loop_on_examples(path, monkeypatch):
    with open(path, encoding="utf-8") as f:
        source = f.read()
    assert_same_rewrite(lambda: lower_program(parse(source)), monkeypatch)


#: one lock body spanning a whole cobegin: the π's arguments are
#: defined in its own body, where the theorems do not apply
BODY_SPANS_COBEGIN = """
lock(L);
cobegin
T0: begin x = 1; x = 3; end
T1: begin y = x; end
coend
unlock(L);
cobegin
T2: begin lock(L); x = 4; unlock(L); end
T3: begin lock(L); z = x; unlock(L); end
coend
print(y, z);
"""


def test_rewrite_keeps_arguments_of_the_own_body(monkeypatch):
    assert_same_rewrite(lambda: lower_program(parse(BODY_SPANS_COBEGIN)), monkeypatch)
    program = lower_program(parse(BODY_SPANS_COBEGIN))
    build_cssame(program)
    # x0 never reaches the body's exit, but it is T1's own body.
    assert "tx = pi(x, x0, x1);" in format_ir(program)


def test_family_exercises_both_theorems(monkeypatch):
    reasons = set()
    deleted = 0
    for case in SYNTH_CASES[::2]:
        events = assert_same_rewrite(
            lambda: generate_program(synth_config(*case)), monkeypatch
        )
        reasons |= {e["reason"] for e in events if "reason" in e}
        deleted += sum(1 for e in events if "reason" not in e)
    assert reasons == {REASON_NOT_UPWARD_EXPOSED, REASON_DOES_NOT_REACH_EXIT}
    assert deleted > 0


def test_decisions_are_shared_across_pis():
    tracer = Tracer()
    with use_tracer(tracer):
        build_cssame(generate_program(synth_config("racy", 10, 10)))
    work = work_counters(tracer)
    assert 0 < work["work.rewrite-pi.decisions"] < work["work.rewrite-pi.pi_terms"]


@pytest.mark.parametrize("case", SYNTH_CASES[::3], ids=synth_case_id)
def test_term_use_map_keeps_every_use_of_a_term(case):
    """Deleting φ/π terms needs their uses only; π conflict arguments
    never chain to one, so leaving them out loses nothing."""
    program = generate_program(synth_config(*case))
    build_cssame(program, prune=False)
    full, terms = build_use_map(program), build_term_use_map(program)
    checked = 0
    for stmt, _ctx in iter_statements(program):
        if isinstance(stmt, (Phi, Pi)):
            assert terms.uses_of(stmt) == full.uses_of(stmt)
            checked += 1
    assert checked
