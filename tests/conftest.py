"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir.lower import lower_program
from repro.ir.structured import ProgramIR
from repro.lang.parser import parse

FIGURE2_SOURCE = """
a = 0;
b = 0;
cobegin
T0: begin
    lock(L);
    a = 5;
    b = a + 3;
    if (b > 4) {
        a = a + b;
    }
    x = a;
    unlock(L);
end
T1: begin
    lock(L);
    a = b + 6;
    y = a;
    unlock(L);
end
coend
print(x);
print(y);
"""

FIGURE1_SOURCE = """
a = 1;
b = 2;
cobegin
T0: begin
    lock(L);
    a = a + b;
    unlock(L);
end
T1: begin
    f(a);
    lock(L);
    a = 3;
    b = b + g(a);
    unlock(L);
end
coend
print(a, b);
"""


def build(source: str) -> ProgramIR:
    """Parse + lower a source string."""
    return lower_program(parse(source))


#: synthetic program kinds: the ``bench_scalability`` family and its
#: race-free, set/wait and barrier variants
SYNTH_KINDS = ("racy", "race-free", "events", "barrier")
#: (kind, stmts_per_thread, seed) for equivalence tests against references
SYNTH_CASES = [
    (kind, size, seed)
    for kind in SYNTH_KINDS
    for size in (2, 4, 6, 8, 10)
    for seed in (size, 100 + size)
]


def synth_config(kind: str, size: int, seed: int):
    """A ``bench_scalability``-family generator config of one kind."""
    from repro.synth import GeneratorConfig

    return GeneratorConfig(
        seed=seed,
        n_threads=2,
        stmts_per_thread=size,
        n_shared=6,
        n_locks=2,
        p_critical=0.6,
        p_if=0.2,
        race_free=kind == "race-free",
        n_events=1 if kind == "events" else 0,
        n_barriers=1 if kind == "barrier" else 0,
    )


def collect_sites_with_pi_arguments(graph):
    """``collect_access_sites`` as it was when every π conflict argument
    still got its own site: the reference for tests showing those sites
    carried nothing."""
    from repro.cfg.conflicts import AccessSite
    from repro.ir.stmts import SAssign

    sites = {}

    def add(site):
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
                add(AccessSite(target, block.id, i, stmt, True, isinstance(stmt, SAssign), None))
            for var in stmt.uses():
                add(AccessSite(var.name, block.id, i, stmt, False, False, var))
    return sites


def synth_case_id(case) -> str:
    return "-".join(map(str, case))


@pytest.fixture
def figure2() -> ProgramIR:
    return build(FIGURE2_SOURCE)


@pytest.fixture
def figure1() -> ProgramIR:
    return build(FIGURE1_SOURCE)


@pytest.fixture
def figure2_source() -> str:
    return FIGURE2_SOURCE
