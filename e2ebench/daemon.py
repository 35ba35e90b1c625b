"""The serve-mix daemon: a ``CompileServer`` over a persistent store.

    python3 e2ebench/daemon.py --store DIR --max-entries N --jobs J --queue-limit Q

Equivalent to ``repro serve --port 0 --store DIR --jobs J
--queue-limit Q`` plus a bounded memory tier (``max_entries``), which
the CLI does not expose.  Prints ``ready <port>`` once listening, and
exits after a ``shutdown`` request or SIGTERM has drained it.
"""

from __future__ import annotations

import argparse
import sys

import common as C


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--max-entries", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--queue-limit", type=int, required=True)
    parser.add_argument("--deadline-ms", type=float, required=True)
    args = parser.parse_args()
    C.require_checkout()
    from repro.serve.server import CompileServer

    server = CompileServer(
        host="127.0.0.1",
        port=0,
        jobs=args.jobs,
        store_dir=args.store,
        deadline_ms=args.deadline_ms,
        queue_limit=args.queue_limit,
        max_entries=args.max_entries,
    )
    return server.run(lambda host, port: print(f"ready {port}", flush=True))


if __name__ == "__main__":
    sys.exit(main())
