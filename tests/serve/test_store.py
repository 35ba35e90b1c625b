"""PersistentStore: spill/load, restart survival, corruption handling."""

import os
from pathlib import Path

from repro import api
from repro.serve.store import PersistentStore
from repro.session.session import Session
from tests.conftest import FIGURE1_SOURCE


def _store_files(root: str) -> list[Path]:
    return sorted(Path(root).rglob("*.art"))


class TestRoundTrip:
    def test_put_then_get_hits_memory(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("k" * 64, {"x": 1})
        assert store.get("k" * 64, "stage") == {"x": 1}
        assert store.store_stats.spills == 1
        # Served from the memory tier: no disk traffic at all.
        assert store.store_stats.disk_hits == 0

    def test_spill_lands_on_disk_atomically(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("a" * 64, [1, 2, 3])
        files = _store_files(str(tmp_path))
        assert len(files) == 1
        # Sharded by key prefix; no temp files left behind.
        assert files[0].parent.name == "aa"
        leftovers = [
            p for p in Path(str(tmp_path)).rglob("*") if p.is_file()
        ]
        assert leftovers == files

    def test_get_missing_is_a_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        assert store.get("b" * 64, "stage") is store.MISSING
        assert store.store_stats.disk_misses == 1


class TestRestart:
    def test_second_store_serves_from_disk(self, tmp_path):
        first = PersistentStore(str(tmp_path))
        first.put("c" * 64, {"answer": 42})

        second = PersistentStore(str(tmp_path))
        assert second.get("c" * 64, "stage") == {"answer": 42}
        assert second.store_stats.disk_hits == 1
        # The disk hit re-warmed the memory tier.
        assert second.get("c" * 64, "stage") == {"answer": 42}
        assert second.store_stats.disk_hits == 1

    def test_restarted_session_reuses_artifacts(self, tmp_path):
        # Wire payloads persist; the compiler objects behind them do not.
        sess1 = Session(cache=PersistentStore(str(tmp_path)))
        first = api.compile_source(FIGURE1_SOURCE, "diagnostics", session=sess1)

        store2 = PersistentStore(str(tmp_path))
        sess2 = Session(cache=store2)
        second = api.compile_source(FIGURE1_SOURCE, "diagnostics", session=sess2)
        assert store2.store_stats.disk_hits > 0
        assert second.provenance.cache_misses == 0
        assert second.artifacts == first.artifacts
        assert second.diagnostics == first.diagnostics

    def test_persisted_count(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        for i in range(3):
            store.put(f"{i:x}" * 64, i)
        assert store.persisted_count() == 3


class TestDiskProbe:
    STAGES = ("analyze", "diagnostics", "optimized", "dot", "bytecode")

    def test_get_of_an_unpersisted_key_skips_the_disk(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("b" * 64, "on disk")
        store.clear()
        assert store.get("b" * 64, "stage", persist=False) is store.MISSING
        assert store.store_stats.disk_misses == 0
        assert store.store_stats.disk_hits == 0

    def test_cold_chain_probes_disk_once_per_payload(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        session = Session(cache=store)
        for stage in self.STAGES:
            api.compile_source(FIGURE1_SOURCE, stage, session=session)
        # Compiler objects never persist, so only payload nodes are
        # looked for on disk.
        assert store.store_stats.disk_misses == len(self.STAGES)

        restarted = PersistentStore(str(tmp_path))
        session = Session(cache=restarted)
        for stage in self.STAGES:
            warm = api.compile_source(FIGURE1_SOURCE, stage, session=session)
            assert warm.provenance.cache_misses == 0
        assert restarted.store_stats.disk_hits == len(self.STAGES)
        assert restarted.store_stats.disk_misses == 0


class TestCorruption:
    def test_truncated_file_recomputes_not_crashes(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("d" * 64, {"big": list(range(100))})
        (path,) = _store_files(str(tmp_path))
        path.write_bytes(path.read_bytes()[:20])

        fresh = PersistentStore(str(tmp_path))
        assert fresh.get("d" * 64, "stage") is fresh.MISSING
        assert fresh.store_stats.corruptions == 1
        # The poisoned file is removed so it is not re-parsed forever.
        assert _store_files(str(tmp_path)) == []

    def test_flipped_payload_fails_checksum(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("e" * 64, "payload")
        (path,) = _store_files(str(tmp_path))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        fresh = PersistentStore(str(tmp_path))
        assert fresh.get("e" * 64, "stage") is fresh.MISSING
        assert fresh.store_stats.corruptions == 1

    def test_wrong_magic_rejected(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("f" * 64, "payload")
        (path,) = _store_files(str(tmp_path))
        path.write_bytes(b"NOTANART\n" + path.read_bytes()[9:])

        fresh = PersistentStore(str(tmp_path))
        assert fresh.get("f" * 64, "stage") is fresh.MISSING
        assert fresh.store_stats.corruptions == 1

    def test_unpicklable_value_counts_error_and_still_serves(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        value = {"fn": lambda: None}
        store.put("9" * 64, value)
        assert store.store_stats.errors == 1
        # Memory tier still has it; only persistence was skipped.
        assert store.get("9" * 64, "stage") is value
        assert _store_files(str(tmp_path)) == []


class TestClear:
    def test_clear_memory_keeps_disk(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("1" * 64, "v")
        store.clear()
        assert store.get("1" * 64, "stage") == "v"
        assert store.store_stats.disk_hits == 1

    def test_clear_disk_removes_everything(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("2" * 64, "v")
        store.clear(disk=True)
        assert store.get("2" * 64, "stage") is store.MISSING
        assert _store_files(str(tmp_path)) == []

    def test_contains(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        assert ("3" * 64) not in store
        store.put("3" * 64, "v")
        assert ("3" * 64) in store
        store.clear()
        assert ("3" * 64) in store  # still on disk

    def test_stats_as_dict_keys(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        stats = store.store_stats.as_dict()
        assert set(stats) == {
            "spills", "spill_bytes", "disk_hits", "disk_misses",
            "corruptions", "errors",
        }

    def test_store_creates_directory(self, tmp_path):
        root = os.path.join(str(tmp_path), "nested", "store")
        store = PersistentStore(root)
        store.put("4" * 64, "v")
        assert os.path.isdir(root)
