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
    names = []
    spec = payload_stage(stage)
    while spec is not None:
        names.append(spec.name)
        spec = STAGES[spec.parent] if spec.parent is not None else None
    return names


def _is_plain(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_is_plain(v) for v in value)
    return value is None or isinstance(value, (str, int, bool))


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


@pytest.mark.parametrize("stage", WIRE_STAGES)
class TestPayloadHits:
    def test_warm_request_is_one_lookup(self, stage):
        session = Session()
        cold = api.compile_source(FIGURE1_SOURCE, stage, session=session)
        warm = api.compile_source(FIGURE1_SOURCE, stage, session=session)
        assert cold.provenance.cache_misses == len(_chain(stage))
        assert warm.work == {}
        assert warm.provenance.cache_misses == 0
        assert warm.provenance.cache_hits >= 1
        assert warm.provenance.artifact_key == cold.provenance.artifact_key
        assert warm.artifacts == cold.artifacts
        assert warm.diagnostics == cold.diagnostics

    def test_mutating_a_hit_does_not_reach_the_next(self, stage):
        session = Session()
        cold = api.compile_source(FIGURE1_SOURCE, stage, session=session)
        want = cold.as_dict()
        for result in (cold, api.compile_source(FIGURE1_SOURCE, stage, session=session)):
            for value in result.artifacts.values():
                if isinstance(value, (dict, list)):
                    value.clear()
            result.artifacts["listing"] = "corrupted"
            for frame in result.diagnostics:
                frame.clear()
        after = api.compile_source(FIGURE1_SOURCE, stage, session=session)
        assert after.as_dict()["artifacts"] == want["artifacts"]
        assert after.as_dict()["diagnostics"] == want["diagnostics"]

    def test_traced_fresh_session_computes_every_node(self, stage):
        session = Session(fresh_when_traced=True)
        api.compile_source(FIGURE1_SOURCE, stage, session=session)
        with use_tracer(Tracer()):
            again = api.compile_source(FIGURE1_SOURCE, stage, session=session)
        assert {
            f"work.session.compute.{name}" for name in _chain(stage)
        } <= set(again.work)
        assert again.provenance.cache_hits == 0
