"""Shared pieces of the end-to-end benchmark: program families, spans,
statistics, digests and process measurements.

Everything here is deterministic given its arguments; the only clock
read is ``time.perf_counter``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Iterable, Optional

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
#: scratch space for stores and span dumps (inside the checkout)
WORK_DIR = os.path.join(ROOT, ".bench_work")


def require_checkout() -> None:
    """Fail unless the program under test is in the working directory.

    The benchmark only ever imports ``repro`` from ``./src`` — never an
    installed copy — so a directory without the sources cannot produce
    a result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "e2ebench: ./src/repro not found; run from the root of a checkout"
        )
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


# -- program families ---------------------------------------------------------

#: the five wire stages of a ``repro batch``-style journey, in order
STAGES = ("analyze", "diagnostics", "optimized", "bytecode", "dot")

#: seed bases, kept in one place so the families stay disjoint from each
#: other and from the warm-up programs
LADDER_BASE = 1_000_000
SERVE_HOT_BASE = 2_000_000
SERVE_FRESH_BASE = 3_000_000
VERIFY_BASE = 4_000_000
WARMUP_BASE = 9_000_000


def scalability_config(seed: int, size: int, race_free: bool):
    from repro.synth import GeneratorConfig

    return GeneratorConfig(
        seed=seed,
        n_threads=2,
        stmts_per_thread=size,
        n_shared=6,
        n_locks=2,
        p_critical=0.6,
        p_if=0.2,
        race_free=race_free,
    )


def warmup_config(size: int):
    return scalability_config(WARMUP_BASE + size, size, race_free=False)


def source_of(config) -> str:
    from repro.synth import generate_source

    return generate_source(config)


# -- digests --------------------------------------------------------------------


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(result: dict) -> str:
    """Digest of a wire result's artifacts and diagnostics.

    Provenance and ``work`` are left out: they describe how the answer
    was produced (cache traffic, counters), not the answer.
    """
    body = {"artifacts": result["artifacts"], "diagnostics": result["diagnostics"]}
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()[:32]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


# -- statistics ------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(data) * q // 100))
    return data[int(rank) - 1]


# -- process measurements ----------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span recorder used only by traced runs.

    A span has a name, start, end, parent span and operation id; spans
    nest strictly (one thread), so a span's self time is its duration
    minus the durations of its direct children.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.op: Optional[str] = None

    def span(self, name: str):
        return _Span(self, name)

    def self_ms(self) -> dict[str, float]:
        child_ms = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_ms[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = {}
        for i, rec in enumerate(self.records):
            own = (rec["end"] - rec["start"]) - child_ms[i]
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + own * 1e3
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, rec in enumerate(self.records):
                f.write(canonical({"id": i, **rec}) + "\n")


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> "_Span":
        spans = self.spans
        self.index = len(spans.records)
        spans.records.append(
            {
                "name": self.name,
                "start": time.perf_counter(),
                "end": None,
                "parent": spans._stack[-1] if spans._stack else None,
                "op": spans.op,
            }
        )
        spans._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.spans.records[self.index]["end"] = time.perf_counter()
        self.spans._stack.pop()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
