"""verify-small: soundness verdicts on small concurrent programs.

One operation is one program: optimize it, prove the optimized program
equivalent to its CSSA(ME) baseline by exhaustive exploration under a
fixed state cap, and audit the static race report against seeded
happens-before runs.  Programs come from a fixed universe whose
verdicts the expected file pins; the seed orders a stratified walk over
it.  The traced run composes the same steps from the
layers' public functions over a fixed number of programs.
"""

from __future__ import annotations

import random
import time

import common as C

VERIFY_UNIVERSE = 160
#: explorer state cap of each equivalence check (both explorations)
STATE_CAP = 4_000
#: programs verified by a traced run (fixed, so counts repeat exactly)
TRACED_PROGRAMS = 40
#: seeds of the VM runs in the traced run: the audit's default seeds
RUN_SEEDS = range(16)

EQUAL = "equal"
EQUAL_MODULO_DEADLOCK = "equal-modulo-deadlock-removal"
UNDECIDED = "undecided"
DIFFERENT = "different"


def verify_config(index: int):
    """Small programs: 2 threads x 3-5 or 3 threads x 2-3 statements.

    ``index % 4`` picks the kind — racy, race-free, set/wait, barrier —
    and ``index // 4 % 2`` the thread shape, so every kind meets every
    shape; the statement count and the program itself come from the
    seed.
    """
    from repro.synth import GeneratorConfig

    rng = random.Random(C.VERIFY_BASE + index)
    kind = ("racy", "race-free", "events", "barrier")[index % 4]
    if (index // 4) % 2 == 0:
        threads, stmts = 2, rng.randint(3, 5)
    else:
        threads, stmts = 3, rng.randint(2, 3)
    return kind, GeneratorConfig(
        seed=C.VERIFY_BASE + index,
        n_threads=threads,
        stmts_per_thread=stmts,
        n_shared=2,
        n_locks=2 if kind == "racy" else 1,
        p_critical=0.5,
        p_if=0.15,
        race_free=kind == "race-free",
        n_events=1 if kind == "events" else 0,
        n_barriers=1 if kind == "barrier" else 0,
    )


def universe() -> list[tuple[str, int, str]]:
    """(kind, threads, source) of every program, by index."""
    out = []
    for index in range(VERIFY_UNIVERSE):
        kind, config = verify_config(index)
        out.append((kind, config.n_threads, C.source_of(config)))
    return out


def plan(seed: int, count: int) -> list[int]:
    """A seeded walk over the universe, stratified by kind and shape.

    ``index % 8`` fixes a program's kind and shape.  The walk takes one
    program from each of the eight strata in turn (strata in a seeded
    order, each stratum in a seeded permutation), so every prefix of the
    walk has nearly the same mix whatever the seed.
    """
    rng = random.Random(seed)
    strata = [
        rng.sample(range(k, VERIFY_UNIVERSE, 8), VERIFY_UNIVERSE // 8)
        for k in range(8)
    ]
    out: list[int] = []
    while len(out) < count:
        j = len(out) // 8 % (VERIFY_UNIVERSE // 8)
        out.extend(strata[k][j] for k in rng.sample(range(8), 8))
    return out[:count]


def verdict_of(result) -> str:
    if not result.complete:
        return UNDECIDED
    if result.equal:
        return EQUAL
    if result.equal_modulo_deadlock_removal:
        return EQUAL_MODULO_DEADLOCK
    return DIFFERENT


def verify_program(source: str):
    """The operation: (verdict, optimized listing, audit report)."""
    from repro.dynamic.audit import audit_source
    from repro.ir.lower import lower_program
    from repro.lang.parser import parse
    from repro.opt.pipeline import optimize
    from repro.verify.equivalence import exhaustive_equivalence

    report = optimize(lower_program(parse(source)))
    result = exhaustive_equivalence(report.baseline, report.program, max_states=STATE_CAP)
    audit = audit_source(source)
    return verdict_of(result), report.listings["final"], audit


def outcome(verdict: str, listing: str, audit) -> dict:
    return {
        "verdict": verdict,
        "listing": C.text_digest(listing),
        "audit": C.text_digest(C.canonical(audit.as_dict())),
        "sound": audit.sound,
    }


def expected_all() -> list[dict]:
    return [
        {"kind": kind, "threads": threads, **outcome(*verify_program(source))}
        for kind, threads, source in universe()
    ]


def check(got: dict, want: dict) -> bool:
    """Pinned outputs, a sound audit, and no wrong complete verdict."""
    return got == {**want, "sound": True} and got["verdict"] != DIFFERENT


def setup(seed: int) -> tuple[list[dict], list]:
    expected = C.load_expected("verify_small")
    if expected["cap"] != STATE_CAP:
        raise SystemExit("e2ebench: expected/verify_small.json is for another cap")
    programs = universe()
    verify_program(C.source_of(verify_config(-1)[1]))  # warm-up, another seed
    return expected["programs"], programs


def run(seed: int, seconds: float) -> dict:
    expected, programs = setup(seed)
    latencies: list[float] = []
    high: list[float] = []
    busy = 0.0
    attempted = failed = decided = 0
    census: dict[str, int] = {}
    mismatches: list[str] = []
    order = iter(plan(seed, 1_000_000))
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        index = next(order)
        kind, threads, source = programs[index]
        t0 = time.perf_counter()
        got = verify_program(source)
        secs = time.perf_counter() - t0
        attempted += 1
        busy += secs
        latencies.append(secs * 1e3)
        if threads == 3:
            high.append(secs * 1e3)
        got = outcome(*got)
        census[got["verdict"]] = census.get(got["verdict"], 0) + 1
        decided += got["verdict"] != UNDECIDED
        if not check({"kind": kind, "threads": threads, **got}, expected[index]):
            failed += 1
            mismatches.append(f"{index}:{got['verdict']}")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": {
            "latency_p50_ms": C.metric(C.percentile(latencies, 50), "ms"),
            "latency_p90_ms": C.metric(C.percentile(latencies, 90), "ms"),
            "latency_p90_ms.high": C.metric(C.percentile(high, 90), "ms"),
            "throughput_per_s": C.metric(attempted / busy, "1/s"),
            "decided_share": C.metric(decided / attempted, "share"),
            "peak_rss_mb": C.metric(C.peak_rss_mb(), "MiB"),
        },
        "info": {"census": census},
    }


# -- traced run -------------------------------------------------------------------


def composed_program(source: str, spans: C.Spans, counts: dict):
    """The operation by direct calls to the layers' public functions."""
    from repro.dynamic.audit import audit_source
    from repro.ir.lower import lower_program
    from repro.lang.parser import parse
    from repro.opt.pipeline import optimize
    from repro.verify.equivalence import EquivalenceResult
    from repro.vm.compile import compile_program
    from repro.vm.explore import explore

    with spans.span("op"):
        with spans.span("lang.parse"):
            tree = parse(source)
        with spans.span("ir.lower"):
            program = lower_program(tree)
        with spans.span("opt.optimize"):
            report = optimize(program)
        with spans.span("vm.compile"):
            original = compile_program(report.baseline)
            optimized = compile_program(report.program)
        explored = []
        for code in (original, optimized):
            with spans.span("vm.explore"):
                explored.append(explore(code, max_states=STATE_CAP))
        a, b = explored
        with spans.span("verify.compare"):
            result = EquivalenceResult(
                equal=a.outcomes == b.outcomes,
                only_original=frozenset(a.outcomes - b.outcomes),
                only_transformed=frozenset(b.outcomes - a.outcomes),
                original_count=len(a.outcomes),
                transformed_count=len(b.outcomes),
                complete=a.complete and b.complete,
            )
            verdict = verdict_of(result)
        with spans.span("dynamic.audit"):
            audit = audit_source(source)
    for r in explored:
        counts["vm.explore_states"] += r.states
        counts["vm.explore_capped"] += not r.complete
    return verdict, report.listings["final"], audit


def seeded_runs(source: str, spans: C.Spans, counts: dict) -> None:
    """The audit's seeded schedules, without and with a happens-before tracker."""
    from repro.dynamic.hb import HBTracker
    from repro.errors import StepLimitExceeded
    from repro.ir.lower import lower_program
    from repro.lang.parser import parse
    from repro.vm.compile import compile_program
    from repro.vm.machine import run_random

    with spans.span("vm.compile"):
        code = compile_program(lower_program(parse(source)))
    for seed in RUN_SEEDS:
        try:
            with spans.span("vm.run"):
                execution = run_random(code, seed=seed, raise_on_deadlock=False)
            counts["vm.steps"] += execution.steps
            with spans.span("dynamic.hb_run"):
                run_random(code, seed=seed, raise_on_deadlock=False, hb=HBTracker(code))
        except StepLimitExceeded:
            continue  # the audit skips fuel-bounded runs too


LAYER_SPANS = {
    "lang.parse": "lang.parse_ms",
    "ir.lower": "ir.lower_ms",
    "opt.optimize": "opt.optimize_ms",
    "vm.compile": "vm.compile_ms",
    "vm.explore": "vm.explore_ms",
    "verify.compare": "verify.compare_ms",
    "dynamic.audit": "dynamic.audit_ms",
    "vm.run": "vm.run_ms",
    "dynamic.hb_run": "dynamic.hb_run_ms",
}
COUNTS = ("vm.explore_states", "vm.explore_capped", "vm.steps")


def traced(seed: int, seconds: float, spans: C.Spans) -> dict:
    expected, programs = setup(seed)
    counts = {name: 0 for name in COUNTS}
    attempted = failed = 0
    mismatches: list[str] = []
    untraced_s = traced_s = 0.0
    for n, index in enumerate(plan(seed, TRACED_PROGRAMS)):
        kind, threads, source = programs[index]
        t0 = time.perf_counter()
        plain = outcome(*verify_program(source))
        untraced_s += time.perf_counter() - t0
        spans.op = f"{n}:{index}"
        t0 = time.perf_counter()
        composed = outcome(*composed_program(source, spans, counts))
        traced_s += time.perf_counter() - t0
        seeded_runs(source, spans, counts)
        attempted += 1
        want = expected[index]
        if not (
            check({"kind": kind, "threads": threads, **plain}, want)
            and check({"kind": kind, "threads": threads, **composed}, want)
        ):
            failed += 1
            mismatches.append(f"{index}:{composed['verdict']}")
    self_ms = spans.self_ms()
    metrics = {
        metric: C.metric(self_ms.get(span, 0.0), "ms")
        for span, metric in LAYER_SPANS.items()
    }
    for name in COUNTS:
        metrics[name] = C.metric(counts[name], "count")
    explore_s = self_ms.get("vm.explore", 0.0) / 1e3
    metrics["vm.explore_states_per_s"] = C.metric(
        counts["vm.explore_states"] / explore_s if explore_s else 0.0, "1/s"
    )
    metrics["trace.overhead_ms"] = C.metric((traced_s - untraced_s) * 1e3, "ms")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": metrics,
    }
