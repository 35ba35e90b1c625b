"""``detect_races`` on distinct blocks against the per-site-pair scan it
replaced, and race messages that do not depend on the hash seed.

The reference is a copy of the old loop: every real write against every
runtime access of a shared variable, filtered pair by pair with
``may_happen_in_parallel``, over a site collection that still holds one
site per π conflict argument.
"""

import glob
import json
import os
import subprocess
import sys

import pytest

from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import shared_variables
from repro.cssame import build_cssame
from repro.ir.lower import lower_program
from repro.ir.stmts import Phi, Pi
from repro.lang.parser import parse
from repro.mutex.lockset import compute_locksets
from repro.mutex.races import RaceReport, detect_races
from repro.synth import generate_program
from tests.conftest import (
    SYNTH_CASES,
    collect_sites_with_pi_arguments,
    synth_case_id,
    synth_config,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: three locks on one side of a race, one unlocked write on the other
NESTED_LOCKS = """
cobegin
T0: begin
    lock(alpha); lock(beta); lock(gamma);
    x = x + 1;
    unlock(gamma); unlock(beta); unlock(alpha);
end
T1: begin
    x = 5;
end
coend
print(x);
"""


def reference_is_memory_access(site):
    stmt = site.stmt
    if isinstance(stmt, Phi):
        return False
    if isinstance(stmt, Pi):
        if site.is_def:
            return False
        return site.evar is stmt.control
    return True


def reference_detect_races(graph, structures, use_ordering=True):
    locksets = compute_locksets(graph, structures)
    sites = collect_sites_with_pi_arguments(graph)
    shared = shared_variables(graph)

    ordering = None
    if use_ordering:
        from repro.cssame.ordering import EventOrdering

        candidate = EventOrdering(graph)
        if candidate.set_nodes or candidate.barrier_nodes:
            ordering = candidate

    reports = []
    seen = set()
    for var in sorted(shared):
        accesses = [s for s in sites.get(var, []) if reference_is_memory_access(s)]
        writes = [s for s in accesses if s.is_real_def]
        for w in writes:
            w_block = graph.blocks[w.block_id]
            for other in accesses:
                if other.stmt is w.stmt and other.is_def:
                    continue
                if not may_happen_in_parallel(w_block, graph.blocks[other.block_id]):
                    continue
                if locksets[w.block_id] & locksets[other.block_id]:
                    continue
                if ordering is not None and (
                    ordering.must_precede(w.block_id, other.block_id)
                    or ordering.must_precede(other.block_id, w.block_id)
                ):
                    continue
                kind = "write-write" if other.is_def else "write-read"
                a, b = sorted((w.block_id, other.block_id))
                key = (var, a, b, kind)
                if key in seen:
                    continue
                seen.add(key)
                reports.append(
                    RaceReport(
                        var, w.block_id, other.block_id, kind,
                        locksets[w.block_id], locksets[other.block_id],
                    )
                )
    return reports


def as_rows(reports):
    return [
        (r.var, r.block_a, r.block_b, r.kind, r.locks_a, r.locks_b, r.message())
        for r in reports
    ]


def assert_same_races(program_factory):
    for prune in (False, True):
        form = build_cssame(program_factory(), prune=prune)
        for use_ordering in (True, False):
            got = detect_races(form.graph, form.structures, use_ordering)
            want = reference_detect_races(form.graph, form.structures, use_ordering)
            assert as_rows(got) == as_rows(want), (prune, use_ordering)


@pytest.mark.parametrize("case", SYNTH_CASES, ids=synth_case_id)
def test_races_match_site_pair_scan(case):
    assert_same_races(lambda: generate_program(synth_config(*case)))


EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "*.par")))


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_races_match_site_pair_scan_on_examples(path):
    with open(path, encoding="utf-8") as f:
        source = f.read()
    assert_same_races(lambda: lower_program(parse(source)))


def test_family_has_races_of_every_shape():
    """Both kinds and both-locked sides occur, so the comparison bites."""
    kinds, locked = set(), False
    for case in SYNTH_CASES:
        form = build_cssame(generate_program(synth_config(*case)), prune=False)
        for r in detect_races(form.graph, form.structures):
            kinds.add(r.kind)
            locked = locked or bool(r.locks_a and r.locks_b)
    assert kinds == {"write-write", "write-read"}
    assert locked


def test_race_message_sorts_locks():
    form = build_cssame(lower_program(parse(NESTED_LOCKS)), prune=False)
    races = detect_races(form.graph, form.structures)
    messages = [r.message() for r in races]
    assert any("holds {'alpha', 'beta', 'gamma'}" in m for m in messages), messages
    assert any("holds {}" in m for m in messages), messages
    one = RaceReport("x", 1, 2, "write-read", frozenset({"L"}), frozenset())
    assert one.message() == (
        "potential write-read race on 'x': B1 holds {'L'} while B2 holds {} (no common lock)"
    )


DIAGNOSE = """
import json, sys
from repro import api
result = api.compile_source(sys.stdin.read(), "diagnostics").as_dict()
print(json.dumps({"artifacts": result["artifacts"], "diagnostics": result["diagnostics"]},
                 sort_keys=True))
"""


def test_diagnostics_payload_ignores_the_hash_seed():
    payloads = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", DIAGNOSE],
            input=NESTED_LOCKS, capture_output=True, text=True, env=env, check=True,
        ).stdout
        payloads.append(out)
    assert "'alpha', 'beta', 'gamma'" in json.loads(payloads[0])["diagnostics"][-1]["message"]
    assert payloads[0] == payloads[1] == payloads[2]
