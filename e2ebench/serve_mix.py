"""serve-mix: a compile daemon under a request mix.

The daemon (``daemon.py``: a ``CompileServer`` over a persistent
store) runs in its own process.  This process is the load generator,
on one pipelined connection.  The mix is mostly repeats of a hot set
larger than the daemon's memory tier (so some reads come from disk)
plus a steady share of fresh programs (misses: compute, then spill to
disk).

Two closed-loop phases, each a fixed sequence of requests: ``light``
keeps ``LIGHT_DEPTH`` requests outstanding, just enough that the daemon
never waits on the wire between requests, and ``loaded`` keeps
``LOADED_DEPTH`` outstanding (its completion rate is the daemon's
capacity, and its latency includes queueing).  The server handles requests in schedule order, so
every cache and store count repeats exactly from run to run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time

import common as C

#: every program is a mid-size member of the ``bench_scalability`` family
SERVE_SIZE = 8
SERVE_HOT_UNIVERSE = 32
SERVE_FRESH_UNIVERSE = 480
#: worker threads: the pipeline is pure Python, so one worker per
#: daemon; the load generator has the machine's other CPU
JOBS = 1
QUEUE_LIMIT = 64
DEADLINE_MS = 30_000.0
#: memory-tier bound (artifacts); each hot program's five stages leave
#: eight, so the 32-program hot set needs 256
MAX_ENTRIES = 240
#: one request in five names a program the daemon has never seen
FRESH_EVERY = 5
#: requests outstanding in the light and loaded phases.  With one, the
#: daemon's threads sleep between requests and a VM's wake-up jitter
#: (milliseconds) swamps the ~3 ms a cache hit takes.
LIGHT_DEPTH = 2
LOADED_DEPTH = 4
#: requests per phase, per second of ``--seconds``
REQUESTS_PER_S = 16
#: race-free hot programs get the interpreter check
HOT_RACE_FREE = 8
#: IR statement band of every serve-mix program (mid-size: similar cost)
STMTS_MIN, STMTS_MAX = 90, 110


# -- programs --------------------------------------------------------------------


def universe(expected: dict) -> dict[str, str]:
    """Source of every pinned program, by ``hot/<i>`` / ``fresh/<i>``."""
    out = {}
    for key, entry in expected.items():
        config = C.scalability_config(entry["seed"], SERVE_SIZE, entry["race_free"])
        out[key] = C.source_of(config)
    return out


def _pick(seeds, race_free: bool):
    """First program of ``seeds`` inside the statement band (and, when
    race-free, with schedules the interpreter check can enumerate)."""
    import compile_ladder

    for seed in seeds:
        config = C.scalability_config(seed, SERVE_SIZE, race_free)
        source = C.source_of(config)
        if not STMTS_MIN <= compile_ladder.statement_count(source) <= STMTS_MAX:
            continue
        interp = compile_ladder.interpreter_check(source) if race_free else None
        if not race_free or interp is not None:
            return config, interp
    raise RuntimeError("no program in the statement band")


def expected_all() -> dict[str, dict]:
    import compile_ladder

    programs = {}
    for pool, count in (("hot", SERVE_HOT_UNIVERSE), ("fresh", SERVE_FRESH_UNIVERSE)):
        for i in range(count):
            base = ((C.SERVE_HOT_BASE if pool == "hot" else C.SERVE_FRESH_BASE) + i) * 1000
            config, interp = _pick(range(base, base + 1000), pool == "hot" and i < HOT_RACE_FREE)
            ops = compile_ladder.facade_program(C.source_of(config))
            programs[f"{pool}/{i}"] = {
                "seed": config.seed,
                "race_free": config.race_free,
                "digests": {stage: C.payload_digest(res) for stage, _s, res in ops},
                "interp": interp,
            }
    return programs


class Plan:
    """The seeded inputs of one run: hot set, fresh order, schedules."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        self._fresh_stages: list[str] = []
        self.hot = [f"hot/{i}" for i in range(SERVE_HOT_UNIVERSE)]
        self._fresh = [f"fresh/{i}" for i in rng.sample(range(SERVE_FRESH_UNIVERSE), SERVE_FRESH_UNIVERSE)]
        self._rng = rng
        count = int(REQUESTS_PER_S * seconds)
        self.light = self.schedule(count)
        self.loaded = self.schedule(count)

    def schedule(self, count: int) -> list[tuple[str, str]]:
        """(program, stage) of one phase's ``count`` requests.

        Each block of ``FRESH_EVERY`` holds one fresh program at a
        seeded position, each run of five hot requests covers the five
        stages in a seeded order, and so does each run of five fresh
        requests, so every phase has the same mix.
        """
        rng = self._rng
        out = []
        for block in range(0, count, FRESH_EVERY):
            fresh_at = block + rng.randrange(FRESH_EVERY)
            for i in range(block, min(block + FRESH_EVERY, count)):
                if i % 5 == 0:
                    stages = rng.sample(C.STAGES, len(C.STAGES))
                stage = stages[i % 5]
                if i == fresh_at:
                    if not self._fresh:
                        raise RuntimeError("fresh-program universe exhausted")
                    if not self._fresh_stages:
                        self._fresh_stages = rng.sample(C.STAGES, len(C.STAGES))
                    program, stage = self._fresh.pop(), self._fresh_stages.pop()
                else:
                    program = rng.choice(self.hot)
                out.append((program, stage))
        return out


# -- the daemon ---------------------------------------------------------------------


class Daemon:
    def __init__(self, store: str) -> None:
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(store)
        self.store = store
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(C.BENCH_DIR, "daemon.py"),
             "--store", store, "--max-entries", str(MAX_ENTRIES),
             "--jobs", str(JOBS), "--queue-limit", str(QUEUE_LIMIT),
             "--deadline-ms", str(DEADLINE_MS)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.port = int(line.split()[1])

    def peak_rss_mb(self) -> float:
        return C.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain via a ``shutdown`` request; kill if it does not exit."""
        from repro.errors import RemoteError
        from repro.serve.client import RetryPolicy, ServeClient

        try:
            with ServeClient(port=self.port, timeout=30, retry=RetryPolicy(attempts=1)) as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, RemoteError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()


# -- the load generator ----------------------------------------------------------------


class Conn:
    """One pipelined JSON-lines connection; responses matched by id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.waiting: dict[str, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._receive())
        self.next_id = 0

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
        return cls(reader, writer)

    async def _receive(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            frame = json.loads(line)
            self.waiting.pop(frame["id"]).set_result((now, frame))
        for future in self.waiting.values():
            future.set_exception(ConnectionResetError("daemon closed the connection"))

    def send(self, frame: dict) -> asyncio.Future:
        self.next_id += 1
        frame = {"v": 1, "id": f"r{self.next_id}", **frame}
        future = asyncio.get_running_loop().create_future()
        self.waiting[frame["id"]] = future
        self.writer.write((json.dumps(frame) + "\n").encode("utf-8"))
        return future

    async def call(self, frame: dict) -> dict:
        _t, response = await self.send(frame)
        return response

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.task


async def closed_loop(conn: Conn, schedule, sources: dict, depth: int) -> tuple[list[dict], float]:
    """Send ``schedule`` in order keeping ``depth`` requests outstanding.

    A request is due when a slot frees; its latency runs from then to
    its response.  Returns the records and the phase's wall time.
    """
    records: list[dict] = []
    pending = iter(schedule)
    inflight: dict = {}

    def send_next(due: float) -> None:
        item = next(pending, None)
        if item is not None:
            program, stage = item
            future = conn.send({"kind": "compile", "source": sources[program], "stage": stage})
            record = {"program": program, "stage": stage, "due": due, "sent": time.perf_counter()}
            inflight[future] = record

    t0 = time.perf_counter()
    for _ in range(depth):
        send_next(t0)
    while inflight:
        done, _ = await asyncio.wait(list(inflight), return_when=asyncio.FIRST_COMPLETED)
        for future in done:
            record = inflight.pop(future)
            record["recv"], record["frame"] = future.result()
            records.append(record)
            send_next(record["recv"])
    return records, time.perf_counter() - t0


def latency_ms(record: dict) -> float:
    return (record["recv"] - record["due"]) * 1e3


def judge(records: list[dict], expected: dict) -> tuple[int, list[str]]:
    """Failed requests: error frames (refusals, timeouts) and wrong payloads."""
    failed, notes = 0, []
    for r in records:
        frame = r["frame"]
        if not frame.get("ok"):
            failed += 1
            notes.append(f"{r['program']}:{r['stage']}:{frame.get('error', {}).get('code')}")
        elif C.payload_digest(frame["result"]) != expected[r["program"]]["digests"][r["stage"]]:
            failed += 1
            notes.append(f"{r['program']}:{r['stage']}:digest")
    return failed, notes


async def warm(conn: Conn, plan: Plan, sources: dict) -> None:
    """Hot-set warm-up, closed loop, plus one program of another seed."""
    warmup = C.source_of(C.warmup_config(SERVE_SIZE))
    for stage in C.STAGES:
        await conn.call({"kind": "compile", "source": warmup, "stage": stage})
    for program in plan.hot:
        for stage in C.STAGES:
            frame = await conn.call({"kind": "compile", "source": sources[program], "stage": stage})
            if not frame.get("ok"):
                raise RuntimeError(f"warm-up of {program}:{stage} failed: {frame}")


async def _setup(plan: Plan, store: str):
    expected = C.load_expected("serve_mix")["programs"]
    sources = universe(expected)
    daemon = Daemon(store)
    try:
        conn = await Conn.open(daemon.port)
        await warm(conn, plan, sources)
    except BaseException:
        daemon.stop()
        raise
    return expected, sources, daemon, conn


def setup(seed: int) -> None:
    store = os.path.join(C.WORK_DIR, f"probe-store-{os.getpid()}")

    async def once() -> None:
        _e, _s, daemon, conn = await _setup(Plan(seed, 1.0), store)
        await conn.close()
        daemon.stop()

    try:
        asyncio.run(once())
    finally:
        shutil.rmtree(store, ignore_errors=True)


def interpreter_checks(programs: set[str], expected: dict, sources: dict) -> tuple[int, list[str]]:
    import compile_ladder

    failed, notes = 0, []
    for program in sorted(programs):
        want = expected[program]["interp"]
        if want is None:
            continue
        got = compile_ladder.interpreter_check(sources[program])
        if got != {"outcomes": want["outcomes"], "ok": True}:
            failed += 1
            notes.append(f"{program}:interpreter")
    return failed, notes


def _ops_delta(before: dict, after: dict) -> dict:
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")}
    store = {k: after["store"][k] - before["store"][k] for k in after["store"]}
    return {"cache": cache, "store": store}


async def _run(seed: int, seconds: float) -> dict:
    store = os.path.join(C.WORK_DIR, f"store-{os.getpid()}")
    plan = Plan(seed, seconds)
    expected, sources, daemon, conn = await _setup(plan, store)
    out: dict = {}
    try:
        ops_before = await conn.call({"kind": "ops"})
        light, _light_s = await closed_loop(conn, plan.light, sources, LIGHT_DEPTH)
        loaded, loaded_s = await closed_loop(conn, plan.loaded, sources, LOADED_DEPTH)
        ops_after = (await conn.call({"kind": "ops"}))["result"]
        out["rss"] = daemon.peak_rss_mb()
        await conn.close()
    finally:
        daemon.stop()
    records = light + loaded
    failed, notes = judge(records, expected)
    if ops_after["queue_depth"] != 0:
        failed += 1
        notes.append(f"queue_depth={ops_after['queue_depth']} after the run")
    checked = {r["program"] for r in records} | set(plan.hot)
    interp_failed, interp_notes = interpreter_checks(checked, expected, sources)
    out.update(
        attempted=len(records) + sum(expected[p]["interp"] is not None for p in checked),
        failed=failed + interp_failed,
        mismatches=notes + interp_notes,
        light=light,
        loaded=loaded,
        loaded_rps=len(loaded) / loaded_s,
        ops=ops_after,
        delta=_ops_delta(ops_before["result"], ops_after),
        store=store,
    )
    return out


def run(seed: int, seconds: float) -> dict:
    try:
        out = asyncio.run(_run(seed, seconds))
    finally:
        shutil.rmtree(os.path.join(C.WORK_DIR, f"store-{os.getpid()}"), ignore_errors=True)
    light_ms = [latency_ms(r) for r in out["light"]]
    loaded_ms = [latency_ms(r) for r in out["loaded"]]
    records = out["light"] + out["loaded"]
    answered = sum(r["frame"].get("ok", False) for r in records)
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "mismatches": out["mismatches"],
        "metrics": {
            # A cache hit's cost is a step function of its stage, and the
            # light phase's median falls on a step (it moved 30% between
            # runs); the loaded phase's queueing smooths the steps.
            "latency_p50_ms": C.metric(C.percentile(loaded_ms, 50), "ms"),
            "latency_p90_ms": C.metric(C.percentile(light_ms, 90), "ms"),
            "latency_p90_ms.high": C.metric(C.percentile(loaded_ms, 90), "ms"),
            "throughput_per_s": C.metric(out["loaded_rps"], "1/s"),
            "decided_share": C.metric(answered / len(records), "share"),
            "peak_rss_mb": C.metric(out["rss"], "MiB"),
        },
        "info": {
            "requests": {"light": len(out["light"]), "loaded": len(out["loaded"])},
            "light_p50_ms": C.percentile(light_ms, 50),
            "delta": out["delta"],
        },
    }


def store_probe(store: str, spans: C.Spans) -> None:
    """Time ``PersistentStore.get``/``put`` on every artifact the run stored."""
    import glob

    from repro.serve.store import PersistentStore

    source = PersistentStore(store)
    target_dir = store + "-copy"
    shutil.rmtree(target_dir, ignore_errors=True)
    target = PersistentStore(target_dir)
    paths = glob.glob(os.path.join(store, "*", "*.art"))
    keys = sorted(os.path.basename(p)[: -len(".art")] for p in paths)
    try:
        for key in keys:
            with spans.span("store.get"):
                value = source.get(key, "probe")
            with spans.span("store.put"):
                target.put(key, value)
    finally:
        shutil.rmtree(target_dir, ignore_errors=True)


def traced(seed: int, seconds: float, spans: C.Spans) -> dict:
    try:
        out = asyncio.run(_run(seed, seconds))
        store_probe(out["store"], spans)
    finally:
        shutil.rmtree(os.path.join(C.WORK_DIR, f"store-{os.getpid()}"), ignore_errors=True)
    records = out["light"] + out["loaded"]
    for r in records:
        spans.records.append(
            {"name": "serve.request", "start": r["due"], "end": r["recv"],
             "parent": None, "op": f"{r['program']}:{r['stage']}"}
        )
    ok = [r for r in records if r["frame"].get("ok")]
    hit = [r for r in ok if r["frame"]["result"]["provenance"]["cache_misses"] == 0]
    miss = [r for r in ok if r["frame"]["result"]["provenance"]["cache_misses"] > 0]
    rtt = lambda r: (r["recv"] - r["sent"]) * 1e3  # noqa: E731
    errors = [r["frame"]["error"]["code"] for r in records if not r["frame"].get("ok")]
    delta = out["delta"]
    hits, misses = delta["cache"]["hits"], delta["cache"]["misses"]
    self_ms = spans.self_ms()
    stage_p90 = max((s["p90_ms"] for s in out["ops"]["stages"].values()), default=0.0)
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "mismatches": out["mismatches"],
        "metrics": {
            "loadgen.late_p90_ms": C.metric(
                C.percentile([(r["sent"] - r["due"]) * 1e3 for r in records], 90), "ms"
            ),
            "serve.rtt_hit_p50_ms": C.metric(C.percentile(map(rtt, hit), 50) if hit else 0.0, "ms"),
            "serve.rtt_miss_p50_ms": C.metric(C.percentile(map(rtt, miss), 50) if miss else 0.0, "ms"),
            "serve.stage_p90_ms": C.metric(stage_p90, "ms"),
            "serve.wire_p50_ms": C.metric(
                C.percentile([rtt(r) - r["frame"]["elapsed_ms"] for r in ok], 50), "ms"
            ),
            "serve.refused": C.metric(errors.count("E_OVERLOADED"), "count"),
            "serve.timeouts": C.metric(errors.count("E_TIMEOUT"), "count"),
            "session.hit_ratio": C.metric(hits / (hits + misses), "share"),
            "store.disk_hits": C.metric(delta["store"]["disk_hits"], "count"),
            "store.spills": C.metric(delta["store"]["spills"], "count"),
            "store.spill_errors": C.metric(delta["store"]["errors"], "count"),
            "store.disk_hit_ratio": C.metric(
                delta["store"]["disk_hits"] / hits if hits else 0.0, "share"
            ),
            "store.get_ms": C.metric(self_ms.get("store.get", 0.0), "ms"),
            "store.put_ms": C.metric(self_ms.get("store.put", 0.0), "ms"),
        },
        "info": {"delta": delta, "requests": len(records)},
    }
