"""Regenerate the expected-output files of the benchmark.

    python3 e2ebench/make_expected.py [compile-ladder|verify-small|serve-mix ...]

Each file pins, for every program of a workload's universe, the digest
of each stage payload (artifacts + diagnostics) or the verification
verdict the benchmark must reproduce.  Regenerating is a deliberate
step: a change to any of these outputs is a behaviour change.
"""

from __future__ import annotations

import json
import os
import sys

import common as C


def _write(name: str, data: dict) -> None:
    os.makedirs(C.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(C.EXPECTED_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def compile_ladder() -> None:
    import compile_ladder as W

    _write("compile_ladder", {"programs": W.expected_all()})


def verify_small() -> None:
    import verify_small as W

    _write("verify_small", {"cap": W.STATE_CAP, "programs": W.expected_all()})


def serve_mix() -> None:
    import serve_mix as W

    _write("serve_mix", {"programs": W.expected_all()})


def main(argv: list[str]) -> int:
    C.require_checkout()
    jobs = {
        "compile-ladder": compile_ladder,
        "verify-small": verify_small,
        "serve-mix": serve_mix,
    }
    for name in argv or list(jobs):
        jobs[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
