"""The server process of the served workloads.

Builds one durable DBMS with one private view per connection, serves it
with ``AnalystServer`` and talks to the bench process over stdin/stdout in
JSON lines: it prints ``{"port": ..., "gen_s": ...}`` once bound, answers ``report`` with
its peak RSS, server counters and (traced) tracer counters, and is then
SIGKILLed by the parent — it never shuts down cleanly on purpose.

The durability manager gets a ``fixtures.FsyncLedger`` so the parent can cut
``log.wal`` back to what was really flushed before it runs recovery.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

import env

env.require_repro()

import gen  # noqa: E402
from fixtures import FsyncLedger, people_relation  # noqa: E402
from repro.core.dbms import StatisticalDBMS  # noqa: E402
from repro.durability.manager import DurabilityManager  # noqa: E402
from repro.server import AnalystServer  # noqa: E402
from repro.views.materialize import SourceNode, ViewDefinition  # noqa: E402


async def serve(args: argparse.Namespace) -> None:
    recorder = tracer = None
    if args.trace:
        import layers
        from repro.concurrency import ConcurrentTracer
        from spans import Recorder

        recorder = Recorder()
        layers.install(recorder)
        tracer = ConcurrentTracer()

    directory = Path(args.dir)
    ledger = FsyncLedger(Path(args.ledger))
    dbms = StatisticalDBMS(
        tracer=tracer, durability=DurabilityManager(directory, faults=ledger, tracer=tracer)
    )
    gen_s = 0.0
    for view in args.views:
        raw = f"raw_{view}"
        started = time.perf_counter()
        rows = gen.people_rows(args.seed, view, args.rows)
        gen_s += time.perf_counter() - started
        dbms.load_raw(people_relation(raw, rows))
        dbms.create_view(ViewDefinition(view, SourceNode(raw)), analyst="bench")
    server = AnalystServer(dbms, tracer=tracer)
    await server.start()
    print(json.dumps({"port": server.port, "gen_s": gen_s}), flush=True)

    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            return
        command = json.loads(line)
        if command["cmd"] == "report":
            if recorder is not None and command.get("spans"):
                recorder.dump(command["spans"])
            report = {
                "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "rejected": server.rejected,
                "timed_out": server.timed_out,
                "wal_fsyncs": ledger.wal_fsyncs,
                "wal_bytes": ledger.wal_bytes,
                "counters": tracer.counter_totals() if tracer is not None else {},
            }
            print(json.dumps(report), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--views", nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
