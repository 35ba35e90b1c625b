"""Keyword defaults agree with the one stage table.

``session/stages.STAGES`` declares every stage option and its default.
The journey methods, the typed facade helpers, ``audit_source`` and the
``repro audit`` flags restate some of those defaults in their
signatures; each case below pins one of them to the table.
"""

import inspect

import pytest

from repro import api
from repro.cli import _build_parser
from repro.dynamic.audit import audit_source
from repro.session import STAGES, Session
from repro.session.stages import wire_schema

AUDIT = STAGES["audit"].defaults

#: (callable, {keyword: table default})
CASES = {
    "Session.analyze": (Session.analyze, dict(STAGES["cssame"].defaults)),
    "Session.optimize": (Session.optimize, dict(STAGES["optimized"].defaults)),
    "Session.dot": (Session.dot, wire_schema("payload.dot")),
    "api.analyze": (api.analyze, {"prune": STAGES["cssame"].defaults["prune"]}),
    "api.optimize": (
        api.optimize,
        {
            name: STAGES["optimized"].defaults[name]
            for name in ("passes", "use_mutex", "fold_output_uses")
        },
    ),
    "audit_source": (
        audit_source,
        {
            "runs": AUDIT["runs"],
            "seed_base": AUDIT["seed_base"],
            "fuel": AUDIT["fuel"],
            "explore_states": AUDIT["max_states"],
            "do_explore": AUDIT["explore"],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_signature_defaults_match_the_stage_table(name):
    func, want = CASES[name]
    params = inspect.signature(func).parameters
    assert {key: params[key].default for key in want} == want


def test_audit_flags_default_to_the_stage_table():
    args = _build_parser().parse_args(["audit", "prog.par"])
    assert {name: getattr(args, name) for name in AUDIT} == dict(AUDIT)


def test_wire_schema_is_the_payload_chain():
    assert api.SERVE_STAGES == {
        "analyze": {"prune": True, "prune_events": True},
        "diagnostics": {},
        "optimized": dict(STAGES["optimized"].defaults),
        "dot": {"title": "PFG", "prune": True},
        "bytecode": {},
        "audit": dict(AUDIT),
    }
