"""compile-ladder: cold compiles of the ``bench_scalability`` family.

One operation is one stage request through ``api.compile_source`` on a
fresh ``Session`` per program (the ``repro batch`` journey: analyze,
diagnostics, optimized, bytecode, dot).  A round compiles
``LADDER_WEIGHTS[size]`` programs of each ladder size in a seeded order;
whole rounds repeat until the run's time is up.  The traced run instead
composes the pipeline from the
layers' public functions, one span per layer call, over a fixed number
of rounds so its counts repeat exactly.
"""

from __future__ import annotations

import random
import time

import common as C

#: the ``bench_scalability`` family on a size ladder (stmts_per_thread)
LADDER_SIZES = (6, 10, 14, 18)
#: programs of each rung per round: small programs are common, big ones
#: rare, which also puts the median request among many samples
LADDER_WEIGHTS = {6: 3, 10: 2, 14: 1, 18: 1}
#: IR statement band of each rung (about the family's median there)
LADDER_BANDS = {6: (60, 70), 10: (180, 200), 14: (380, 420), 18: (850, 910)}
#: programs per rung in the universe the expected file pins
LADDER_VARIANTS = 8
#: of which this many are race-free, at the sizes whose race-free
#: programs get the interpreter check
LADDER_RACE_FREE = 2
LADDER_INTERP_SIZES = (6, 10)
#: rounds compiled by a traced run (fixed, so counts repeat exactly)
TRACED_ROUNDS = 2
#: seeded VM runs of the optimized program in the interpreter check
INTERP_SEEDS = range(16)
#: state budget of the interpreter's enumeration of the source
INTERP_STATES = 100_000


def ladder_candidates(size: int, variant: int):
    """Generator configs for one ladder variant, in scan order.

    The expected-file generator keeps the first candidate whose IR
    statement count is inside the rung's band (so every program of a
    rung costs about the same) and pins its seed.  At the sizes in
    ``LADDER_INTERP_SIZES`` the last ``LADDER_RACE_FREE`` variants are
    race-free programs whose schedules the interpreter check can
    enumerate.
    """
    race_free = (
        size in LADDER_INTERP_SIZES and variant >= LADDER_VARIANTS - LADDER_RACE_FREE
    )
    base = C.LADDER_BASE + 1000 * size + 100_000 * variant
    for k in range(5000):
        yield C.scalability_config(base + k, size, race_free=race_free)


def universe(expected: dict) -> dict[tuple[int, int], str]:
    """Source of every program the expected file pins, by (size, variant)."""
    out = {}
    for key, entry in expected.items():
        size, v = map(int, key.split("/"))
        config = C.scalability_config(entry["seed"], size, entry["race_free"])
        out[(size, v)] = C.source_of(config)
    return out


def plan(seed: int, rounds: int) -> list[list[tuple[int, int]]]:
    """The seeded rounds of (size, variant), in a shuffled order.

    A round holds ``LADDER_WEIGHTS[size]`` programs of each size.  Each
    size walks a seeded permutation of its variants, so a run repeats
    no program until it has compiled all of that size.
    """
    rng = random.Random(seed)
    perms = {
        size: rng.sample(range(LADDER_VARIANTS), LADDER_VARIANTS)
        for size in LADDER_SIZES
    }
    used = {size: 0 for size in LADDER_SIZES}
    out = []
    for _ in range(rounds):
        sizes = [size for size in LADDER_SIZES for _ in range(LADDER_WEIGHTS[size])]
        rng.shuffle(sizes)
        round_ = []
        for size in sizes:
            round_.append((size, perms[size][used[size] % LADDER_VARIANTS]))
            used[size] += 1
        out.append(round_)
    return out


def statement_count(source: str) -> int:
    from repro.ir.lower import lower_program
    from repro.ir.structured import count_statements
    from repro.lang.parser import parse

    return count_statements(lower_program(parse(source)))


def facade_program(source: str) -> list[tuple[str, float, dict]]:
    """The five stage requests on one fresh session: (stage, seconds, result)."""
    from repro import api
    from repro.session.session import Session

    session = Session()
    out = []
    for stage in C.STAGES:
        t0 = time.perf_counter()
        result = api.compile_source(source, stage, session=session)
        out.append((stage, time.perf_counter() - t0, result.as_dict()))
    return out


def interpreter_check(source: str) -> dict | None:
    """Optimized program on the VM vs every behaviour of the source.

    The VM interpreter enumerates every schedule of the *source*
    program (no compiler pass involved); each seeded run of the
    optimized program must end in one of those outcomes.  For an
    output-deterministic source this is ``deterministic_output``
    equality.  Returns ``None`` when the source's schedules exceed the
    budget, else ``{"outcomes": n, "ok": bool}``.
    """
    from repro.ir.lower import lower_program
    from repro.lang.parser import parse
    from repro.opt.pipeline import optimize
    from repro.vm.compile import compile_program
    from repro.vm.explore import explore
    from repro.vm.machine import run_random

    behaviours = explore(lower_program(parse(source)), max_states=INTERP_STATES)
    if not behaviours.complete:
        return None
    compiled = compile_program(optimize(lower_program(parse(source))).program)
    ok = all(
        run_random(compiled, seed=s, raise_on_deadlock=False).output_key()
        in behaviours.outcomes
        for s in INTERP_SEEDS
    )
    return {"outcomes": len(behaviours.outcomes), "ok": ok}


def expected_all() -> dict[str, dict]:
    """Pick and pin the universe: seed, outputs and interpreter answer."""
    programs = {}
    for size in LADDER_SIZES:
        for v in range(LADDER_VARIANTS):
            low, high = LADDER_BANDS[size]
            for config in ladder_candidates(size, v):
                source = C.source_of(config)
                if not low <= statement_count(source) <= high:
                    continue
                interp = interpreter_check(source) if config.race_free else None
                if not config.race_free or interp is not None:
                    break
            else:
                raise RuntimeError(f"no program for ladder variant {size}/{v}")
            ops = facade_program(source)
            programs[f"{size}/{v}"] = {
                "seed": config.seed,
                "race_free": config.race_free,
                "stmts": statement_count(source),
                "digests": {stage: C.payload_digest(res) for stage, _s, res in ops},
                "interp": interp,
            }
    return programs


def setup(seed: int) -> tuple[dict, dict]:
    """Imports, input generation and one warm-up program (another seed)."""
    expected = C.load_expected("compile_ladder")["programs"]
    sources = universe(expected)
    facade_program(C.source_of(C.warmup_config(6)))
    return expected, sources


# -- untraced run --------------------------------------------------------------


def run(seed: int, seconds: float) -> dict:
    expected, sources = setup(seed)
    latencies: list[float] = []
    top_latencies: list[float] = []
    stmts = 0
    busy = 0.0
    attempted = failed = 0
    mismatches: list[str] = []
    checked: set[tuple[int, int]] = set()
    rounds = iter(plan(seed, rounds=10_000))
    t_end = time.perf_counter() + seconds
    # Whole rounds only, so every run has the same mix of sizes.
    while time.perf_counter() < t_end:
        for size, v in next(rounds):
            key = f"{size}/{v}"
            want = expected[key]
            ops = facade_program(sources[(size, v)])
            # Output checks run outside the timed stage requests.
            for stage, secs, result in ops:
                attempted += 1
                latencies.append(secs * 1e3)
                if size == LADDER_SIZES[-1]:
                    top_latencies.append(secs * 1e3)
                busy += secs
                if C.payload_digest(result) != want["digests"][stage]:
                    failed += 1
                    mismatches.append(f"{key}:{stage}")
            stmts += want["stmts"]
            if want["race_free"] and (size, v) not in checked:
                checked.add((size, v))
                got = interpreter_check(sources[(size, v)])
                if got != {"outcomes": want["interp"]["outcomes"], "ok": True}:
                    failed += 1
                    mismatches.append(f"{key}:interpreter")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": {
            "latency_p50_ms": C.metric(C.percentile(latencies, 50), "ms"),
            "latency_p90_ms": C.metric(C.percentile(latencies, 90), "ms"),
            "latency_p90_ms.high": C.metric(C.percentile(top_latencies, 90), "ms"),
            "throughput_per_s": C.metric(stmts / busy, "1/s"),
            "decided_share": C.metric((attempted - failed) / attempted, "share"),
            "peak_rss_mb": C.metric(C.peak_rss_mb(), "MiB"),
        },
        "info": {"interp_checked": len(checked), "programs": attempted // 5},
    }


# -- traced run: the pipeline composed from the layers' public functions -------


def _build_form(program, prune: bool, spans: C.Spans, counts: dict):
    """``build_cssame`` step by step (Algorithm A.2)."""
    from repro.cfg.builder import build_flow_graph
    from repro.cfg.conflicts import (
        add_conflict_edges,
        add_mutex_edges,
        add_sync_edges,
        collect_access_sites,
        shared_variables,
    )
    from repro.cfg.dominance import compute_postdominators
    from repro.cssa.builder import CSSAForm
    from repro.cssa.pi import place_pi_terms
    from repro.cssame.builder import CSSAMEForm
    from repro.cssame.ordering import prune_pi_terms_by_ordering
    from repro.cssame.rewrite import rewrite_pi_terms
    from repro.mutex.identify import identify_mutex_structures
    from repro.ssa.construct import build_ssa

    with spans.span("cfg.flow_graph"):
        graph = build_flow_graph(program)
    with spans.span("ssa.build"):
        ssa = build_ssa(program, graph)
    with spans.span("cssa.place_pi"):
        shared = shared_variables(graph, collect_access_sites(graph))
        pis = place_pi_terms(program, graph)
    with spans.span("cfg.conflict_edges"):
        add_conflict_edges(graph)
        add_mutex_edges(graph)
        add_sync_edges(graph)
    with spans.span("mutex.identify"):
        pdomtree = compute_postdominators(graph)
        structures = identify_mutex_structures(graph, ssa.domtree, pdomtree)
    rewrite = ordering = None
    if prune:
        with spans.span("cssame.rewrite"):
            rewrite = rewrite_pi_terms(program, graph, structures)
        with spans.span("cssame.ordering"):
            ordering = prune_pi_terms_by_ordering(program, graph, ssa.domtree)
        counts["cssame.args_removed"] += rewrite.args_removed + ordering.args_removed
    form = CSSAMEForm(CSSAForm(program, graph, ssa, pis, shared), structures, rewrite, ordering)
    counts["cfg.blocks"] += len(graph.blocks)
    counts["cssa.pi_terms"] += len(pis)
    counts["cssa.conflict_args"] += sum(len(pi.conflicts) for pi in pis)
    counts["cfg.conflict_edges"] += len(graph.conflict_edges)
    counts["mutex.bodies"] += len(form.mutex_bodies())
    return form


def composed_program(source: str, spans: C.Spans, counts: dict) -> dict[str, dict]:
    """The five stage payloads ({artifacts, diagnostics}) by direct calls."""
    from repro.cfg.dot import to_dot
    from repro.ir.lower import lower_program
    from repro.ir.printer import format_ir
    from repro.ir.structured import clone_program, count_statements
    from repro.lang.lexer import tokenize
    from repro.lang.parser import parse
    from repro.mutex.deadlock import detect_lock_order_cycles
    from repro.mutex.races import detect_races
    from repro.mutex.warnings import SyncWarning, check_synchronization
    from repro.opt.concprop import concurrent_constant_propagation
    from repro.opt.licm import lock_independent_code_motion
    from repro.opt.pdce import parallel_dead_code_elimination
    from repro.opt.simplify import simplify_structure
    from repro.report import measure_form
    from repro.vm.compile import compile_program

    counts["lang.tokens"] += len(tokenize(source))
    out: dict[str, dict] = {}

    with spans.span("api.analyze"):
        with spans.span("lang.parse"):
            tree = parse(source)
        with spans.span("ir.lower"):
            ir = lower_program(tree)
        form = _build_form(clone_program(ir), True, spans, counts)
        rewrite = {
            "args_removed": form.rewrite_stats.args_removed,
            "pis_deleted": form.rewrite_stats.pis_deleted,
        }
        out["analyze"] = {
            "artifacts": {
                "listing": format_ir(form.program),
                "form": "CSSAME",
                "metrics": measure_form(form.program).as_dict(),
                "mutex_bodies": len(form.mutex_bodies()),
                "rewrite": rewrite,
            },
            "diagnostics": [],
        }

    with spans.span("api.diagnostics"):
        cssa = _build_form(clone_program(ir), False, spans, counts)
        with spans.span("mutex.diagnose"):
            warnings = check_synchronization(cssa.graph, cssa.structures)
            for risk in detect_lock_order_cycles(cssa.graph, cssa.structures):
                blocks = tuple(b for bs in risk.witnesses.values() for b in bs)
                warnings.append(SyncWarning("deadlock-risk", risk.message(), blocks))
            races = detect_races(cssa.graph, cssa.structures)
        counts["mutex.races"] += len(races)
        frames = [
            {"kind": w.kind, "message": w.message, "blocks": list(w.blocks)}
            for w in warnings
        ]
        frames += [
            {"kind": "race", "message": r.message(), "race": r.as_dict()} for r in races
        ]
        out["diagnostics"] = {
            "artifacts": {"warnings": len(warnings), "races": len(races)},
            "diagnostics": frames,
        }

    with spans.span("api.optimized"):
        program = clone_program(ir)
        opt_form = _build_form(program, True, spans, counts)
        clone_program(program)  # the report's equality baseline
        phases = {"cssame", "constprop", "pdce", "licm", "final"}
        format_ir(program)
        with spans.span("opt.constprop"):
            cp = concurrent_constant_propagation(
                program, opt_form.graph, fold_output_uses=True
            )
        format_ir(program)
        with spans.span("opt.pdce"):
            pdce = parallel_dead_code_elimination(program)
        format_ir(program)
        with spans.span("opt.licm"):
            licm = lock_independent_code_motion(program)
        format_ir(program)
        with spans.span("opt.simplify"):
            simplify_structure(program)
        counts["opt.constants"] += len(cp.constants)
        counts["opt.removed"] += pdce.total_removed
        counts["opt.moved"] += licm.total_moved
        out["optimized"] = {
            "artifacts": {
                "listing": format_ir(program),
                "phases": sorted(phases),
                "constants": len(cp.constants),
                "removed": pdce.total_removed,
                "moved": licm.total_moved,
                "statements": count_statements(program),
                "metrics": measure_form(program).as_dict(),
            },
            "diagnostics": [],
        }

    with spans.span("api.bytecode"):
        program = clone_program(ir)
        with spans.span("vm.compile"):
            code = compile_program(program)
        counts["vm.instructions"] += len(code)
        out["bytecode"] = {
            "artifacts": {
                "listing": code.disassemble(),
                "instructions": len(code),
                "entry": code.entry,
            },
            "diagnostics": [],
        }

    with spans.span("api.dot"):
        with spans.span("cfg.dot"):
            text = to_dot(form.graph, title="PFG")
        out["dot"] = {"artifacts": {"dot": text}, "diagnostics": []}
    return out


#: per-layer span name -> reported metric name
LAYER_SPANS = {
    "lang.parse": "lang.parse_ms",
    "ir.lower": "ir.lower_ms",
    "cfg.flow_graph": "cfg.flow_graph_ms",
    "ssa.build": "ssa.build_ms",
    "cssa.place_pi": "cssa.place_pi_ms",
    "cfg.conflict_edges": "cfg.conflict_edges_ms",
    "mutex.identify": "mutex.identify_ms",
    "cssame.rewrite": "cssame.rewrite_ms",
    "cssame.ordering": "cssame.ordering_ms",
    "mutex.diagnose": "mutex.diagnose_ms",
    "opt.constprop": "opt.constprop_ms",
    "opt.pdce": "opt.pdce_ms",
    "opt.licm": "opt.licm_ms",
    "opt.simplify": "opt.simplify_ms",
    "vm.compile": "vm.compile_ms",
    "cfg.dot": "cfg.dot_ms",
}
COUNTS = (
    "lang.tokens",
    "cfg.blocks",
    "cssa.pi_terms",
    "cssa.conflict_args",
    "cfg.conflict_edges",
    "mutex.bodies",
    "cssame.args_removed",
    "mutex.races",
    "opt.constants",
    "opt.removed",
    "opt.moved",
    "vm.instructions",
)
#: ``CompileResult.work`` counters reported by the traced run
WORK_COUNTERS = (
    "work.pfg.statements",
    "work.identify-mutex.pairs_examined",
    "work.rewrite-pi.conflict_args",
    "work.ordering.args_examined",
    "work.constprop.lattice_evals",
    "work.pdce.stmts_scanned",
    "work.licm.independence_checks",
)


def traced(seed: int, seconds: float, spans: C.Spans) -> dict:
    expected, sources = setup(seed)
    counts = {name: 0 for name in COUNTS}
    work: dict[str, int] = {}
    attempted = failed = 0
    mismatches: list[str] = []
    facade_s = composed_s = 0.0
    programs = [p for rnd in plan(seed, rounds=TRACED_ROUNDS) for p in rnd]
    for index, (size, v) in enumerate(programs):
        key = f"{size}/{v}"
        source = sources[(size, v)]
        want = expected[key]["digests"]
        t0 = time.perf_counter()
        ops = facade_program(source)
        facade_s += time.perf_counter() - t0
        for _stage, _secs, result in ops:
            for name, value in result["work"].items():
                work[name] = work.get(name, 0) + value
        spans.op = f"{index}:{key}"
        t0 = time.perf_counter()
        composed = composed_program(source, spans, counts)
        composed_s += time.perf_counter() - t0
        for stage, _secs, result in ops:
            attempted += 1
            if not (
                C.payload_digest(result) == want[stage]
                and C.payload_digest(composed[stage]) == want[stage]
            ):
                failed += 1
                mismatches.append(f"{key}:{stage}")
    self_ms = spans.self_ms()
    metrics = {
        metric: C.metric(self_ms.get(span, 0.0), "ms")
        for span, metric in LAYER_SPANS.items()
    }
    metrics["api.facade_ms"] = C.metric(
        sum(ms for name, ms in self_ms.items() if name.startswith("api.")), "ms"
    )
    for name in COUNTS:
        metrics[name] = C.metric(counts[name], "count")
    for name in WORK_COUNTERS:
        metrics[name] = C.metric(work.get(name, 0), "count")
    metrics["trace.overhead_ms"] = C.metric((composed_s - facade_s) * 1e3, "ms")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": metrics,
        "info": {"work": work},
    }
