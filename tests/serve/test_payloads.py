"""Wire payloads as cached stage-graph nodes.

Each wire stage ends in a payload node holding the JSON-ready
``(artifacts, diagnostics)`` plain data, kept pickled.  A warm request
is one lookup of that node, and a :class:`PersistentStore` under a
session persists only payload nodes: compiler objects (which may not
even pickle) stay in the memory tier.
"""

import pickle
from pathlib import Path

import pytest

from repro import api
from repro.obs.trace import Tracer, use_tracer
from repro.serve.store import PersistentStore
from repro.session import Session
from repro.session.stages import STAGES, payload_stage
from repro.synth import generate_source
from tests.conftest import FIGURE1_SOURCE, SYNTH_CASES, synth_case_id, synth_config

WIRE_STAGES = ("analyze", "diagnostics", "optimized", "dot", "bytecode")

#: every wire stage with the request options its tests use (a short,
#: unexplored audit keeps the suite fast)
REQUESTS = [(stage, None) for stage in WIRE_STAGES] + [
    ("audit", {"runs": 2, "explore": False})
]

#: serve-sized programs (stmts_per_thread=8, 90-110 IR statements); the
#: first one's CSSAME form and optimization report raise RecursionError
#: when pickled
SERVE_SIZED = [
    ("racy", 8, 2000011011),
    ("racy", 8, 2000008000),
    ("race-free", 8, 2000000021),
    ("race-free", 8, 2000001000),
]


def _chain(stage: str) -> list[str]:
    """Stage-graph nodes a cold ``stage`` request computes, payload first."""
    names, todo = [], [payload_stage(stage).name]
    while todo:
        name = todo.pop(0)
        if name not in names:
            names.append(name)
            todo.extend(STAGES[name].parents)
    return names


def _is_key(value) -> bool:
    return len(value) == 64 and all(c in "0123456789abcdef" for c in value)


def _is_plain(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_is_plain(v) for v in value)
    return value is None or isinstance(value, (str, int, float, bool))


def _load_art(path: Path):
    """The plain data a persisted payload decodes to (it is kept pickled)."""
    _magic, _digest, payload = path.read_bytes().split(b"\n", 2)
    value = pickle.loads(payload)
    assert isinstance(value, bytes)
    return pickle.loads(value)


class TestPersistOnlyPayloads:
    @pytest.mark.parametrize("case", SYNTH_CASES + SERVE_SIZED, ids=synth_case_id)
    def test_five_stage_journey_spills_plain_payloads(self, tmp_path, case):
        store = PersistentStore(str(tmp_path))
        session = Session(cache=store)
        source = generate_source(synth_config(*case))
        for stage in WIRE_STAGES:
            api.compile_source(source, stage, session=session)
        assert store.store_stats.errors == 0
        files = sorted(tmp_path.rglob("*.art"))
        assert len(files) == len(WIRE_STAGES)
        for path in files:
            value = _load_art(path)
            assert _is_plain(value), path.name

    def test_evicted_payload_is_read_back_not_recomputed(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        session = Session(cache=store)
        cold = api.compile_source(FIGURE1_SOURCE, "analyze", session=session)
        store.clear()  # drop the memory tier, as an eviction would
        warm = api.compile_source(FIGURE1_SOURCE, "analyze", session=session)
        assert warm.work == {}
        assert warm.provenance.cache_misses == 0
        assert store.store_stats.disk_hits == 1
        assert warm.as_dict() == {
            **cold.as_dict(),
            "work": {},
            "provenance": warm.provenance.as_dict(),
        }


@pytest.mark.parametrize(
    "stage,options", REQUESTS, ids=[stage for stage, _ in REQUESTS]
)
class TestPayloadHits:
    def test_warm_request_is_one_lookup(self, stage, options):
        session = Session()
        cold = api.compile_source(FIGURE1_SOURCE, stage, options, session=session)
        warm = api.compile_source(FIGURE1_SOURCE, stage, options, session=session)
        assert cold.provenance.cache_misses == len(_chain(stage))
        assert warm.work == {}
        assert warm.provenance.cache_misses == 0
        assert warm.provenance.cache_hits >= 1
        assert _is_key(cold.provenance.artifact_key)
        assert warm.provenance.artifact_key == cold.provenance.artifact_key
        assert warm.artifacts == cold.artifacts
        assert warm.diagnostics == cold.diagnostics

    def test_mutating_a_hit_does_not_reach_the_next(self, stage, options):
        session = Session()
        cold = api.compile_source(FIGURE1_SOURCE, stage, options, session=session)
        want = cold.as_dict()
        again = api.compile_source(FIGURE1_SOURCE, stage, options, session=session)
        for result in (cold, again):
            for value in result.artifacts.values():
                if isinstance(value, (dict, list)):
                    value.clear()
            result.artifacts["listing"] = "corrupted"
            for frame in result.diagnostics:
                frame.clear()
        after = api.compile_source(FIGURE1_SOURCE, stage, options, session=session)
        assert after.as_dict()["artifacts"] == want["artifacts"]
        assert after.as_dict()["diagnostics"] == want["diagnostics"]

    def test_traced_fresh_session_computes_every_node(self, stage, options):
        with use_tracer(Tracer()):
            result = api.compile_source(FIGURE1_SOURCE, stage, options, session=Session())
        assert {
            f"work.session.compute.{name}" for name in _chain(stage)
        } <= set(result.work)
        # A node two parents share (the ir under audit) is computed once.
        assert result.provenance.cache_misses == len(_chain(stage))

    def test_restarted_store_answers_from_disk(self, tmp_path, stage, options):
        first = api.compile_source(
            FIGURE1_SOURCE,
            stage,
            options,
            session=Session(cache=PersistentStore(str(tmp_path))),
        )
        (path,) = tmp_path.rglob("*.art")
        assert _is_plain(_load_art(path))
        store = PersistentStore(str(tmp_path))
        warm = api.compile_source(FIGURE1_SOURCE, stage, options, session=Session(cache=store))
        assert warm.work == {}
        assert warm.provenance.cache_misses == 0
        assert store.store_stats.disk_hits == 1
        assert warm.provenance.artifact_key == first.provenance.artifact_key
        assert warm.artifacts == first.artifacts
        assert warm.diagnostics == first.diagnostics
