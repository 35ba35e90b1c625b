"""End-to-end benchmark of the CSSAME stack.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload compile-ladder --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced variant of the workload and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
named in ``BENCHMARK.json`` is present for every workload (a layer a
workload does not exercise reports 0).  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common as C

WORKLOADS = ("compile-ladder", "verify-small", "serve-mix")
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def _module(workload: str):
    if workload == "compile-ladder":
        import compile_ladder as mod
    elif workload == "verify-small":
        import verify_small as mod
    else:
        import serve_mix as mod
    return mod


def _benchmark_spec() -> dict:
    with open(os.path.join(C.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def setup_probe_s(workload: str, seed: int) -> float:
    """Wall time of one fresh process doing only the workload's set-up."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True,
        timeout=170,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    C.require_checkout()
    mod = _module(args.workload)
    if args.setup_only:
        mod.setup(args.seed)
        return 0

    spec = _benchmark_spec()
    if args.trace:
        spans = C.Spans()
        outcome = mod.traced(args.seed, args.seconds, spans)
        spans.dump(os.path.join(C.WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        setups = [setup_probe_s(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        outcome = mod.run(args.seed, args.seconds)
        outcome["metrics"]["setup_s"] = C.metric(statistics.median(setups), "s")
        attempted = max(outcome["attempted"], 1)
        outcome["metrics"]["ok_share"] = C.metric(
            (attempted - outcome["failed"]) / attempted, "share"
        )
        wanted = [m["name"] for m in spec["end_to_end"]]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = outcome["metrics"]
    unknown = sorted(set(metrics) - set(wanted))
    if unknown:
        raise SystemExit(f"e2ebench: {unknown} are not in BENCHMARK.json")
    missing = [name for name in wanted if name not in metrics]
    if missing and not args.trace:
        raise SystemExit(f"e2ebench: workload did not report {missing}")
    for name in missing:
        # A layer this workload does not exercise did no work in it.
        metrics[name] = C.metric(0, units[name])
    for name in wanted:
        if metrics[name]["unit"] != units[name]:
            raise SystemExit(f"e2ebench: {name} reported in {metrics[name]['unit']}")
    for note in outcome.get("mismatches", [])[:20]:
        print(f"mismatch: {note}", file=sys.stderr)
    if outcome.get("info"):
        print(json.dumps(outcome["info"], sort_keys=True), file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0 and not outcome.get("mismatches"),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
