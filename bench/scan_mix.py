"""``scan_mix``: in-process SQL over a transposed file larger than its cache.

No server, no WAL.  One relation of ``N_ROWS`` x 10 columns lives in a
``TransposedFile`` behind a 64-page ``BufferPool`` (the data is ~6x the
pool, so scans run against the pager, not against memory); the same rows
live in a 2-shard ``ShardedTransposedFile``; a code-book relation joins to
the group column.  One cycle is seven SQL statements through ``parse`` ->
``plan`` -> iterate, followed by bursts of cell corrections written through
the pool and flushed to the simulated device, each burst then reverted (so
every cycle sees the same data and every statement's rows can be checked
against the first cycle's).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import time
from typing import Any

import env
import gen
from fixtures import with_na
from metrics import summarise
from probe import Timeline

env.require_repro()

from repro.obs.tracer import Tracer  # noqa: E402
from repro.relational import planner, sql  # noqa: E402
from repro.relational.catalog import Catalog  # noqa: E402
from repro.relational.relation import Relation, StoredRelation  # noqa: E402
from repro.relational.schema import Attribute, AttributeRole, Schema, category, measure  # noqa: E402
from repro.relational.sharded import get_executor  # noqa: E402
from repro.relational.types import DataType  # noqa: E402
from repro.storage.disk import SimulatedDisk  # noqa: E402
from repro.storage.pager import BufferPool  # noqa: E402
from repro.storage.sharded import ShardedTransposedFile  # noqa: E402
from repro.storage.transposed import TransposedFile  # noqa: E402

N_ROWS = 20_000
BLOCK = 4096
POOL_PAGES = 64
SHARDS = 2
#: Cycles per second of ``--seconds`` on this host (one cycle is ~1 s).
CYCLES_PER_SECOND = 1.6
BURSTS = 8
BURST_SIZE = 12
STATEMENTS = 7


def schema() -> Schema:
    return Schema(
        [category("G", DataType.CATEGORY)]
        + [measure(f"C{i}") for i in range(1, gen.SCAN_COLUMNS)]
    )


class Estate:
    """Everything one build produces."""

    def __init__(self, rows: list[tuple], tracer: Any) -> None:
        shape = schema()
        self.disk = SimulatedDisk(block_size=BLOCK)
        self.pool = BufferPool(self.disk, capacity=POOL_PAGES, tracer=tracer)
        plain = TransposedFile(self.pool, shape.types, name="t", tracer=tracer)
        plain.append_rows(rows)
        self.pool.flush_all()
        self.plain = StoredRelation("t", shape, plain)
        sharded = ShardedTransposedFile(shape.types, shards=SHARDS, name="ts", block_size=BLOCK)
        sharded.append_rows(rows)
        self.sharded = StoredRelation("ts", shape, sharded)
        codes = Relation(
            "codes",
            Schema(
                [
                    category("CODE", DataType.CATEGORY),
                    Attribute("LABEL", DataType.STR, AttributeRole.CATEGORY),
                ]
            ),
            gen.codebook_rows(),
        )
        self.catalog = Catalog()
        for relation in (self.plain, self.sharded, codes):
            self.catalog.register(relation)
        self.executor = get_executor(sharded, tracer=tracer)

    def close(self) -> None:
        """Stop the shard worker processes and wait for them."""
        self.executor.close()
        for process in multiprocessing.active_children():
            process.join(10)


def execute(estate: Estate, text: str, rec: Any, label: str, vectorized: bool = True) -> tuple[list, str]:
    """Parse, plan and drain one statement; returns (rows, root operator)."""
    pipeline = planner.plan(sql.parse(text), estate.catalog, use_vectorized=vectorized)
    with rec.span(f"relational.exec.{label}"):
        rows = [tuple(row) for row in pipeline]
    return rows, type(pipeline).__name__


def same_rows(got: list[tuple], want: list[tuple]) -> bool:
    """Equal as multisets of rows, floats to rounding of another summation order."""
    if len(got) != len(want):
        return False
    key = lambda row: tuple(str(v) for v in row)  # noqa: E731
    for a, b in zip(sorted(got, key=key), sorted(want, key=key)):
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def run(workload: str, seed: int, seconds: float, traced: bool, rec: Any, min_beyond: int) -> dict:
    cycles = max(2, round(CYCLES_PER_SECOND * seconds))
    statements = gen.scan_statements()
    corrections = gen.scan_corrections(seed, cycles, BURSTS, BURST_SIZE, N_ROWS)
    digests = {"scan_mix.statements": gen.digest(statements), "scan_mix.corrections": gen.digest(corrections)}
    rows = with_na(gen.scan_rows(seed, N_ROWS))
    tracer = Tracer() if traced else None

    line = Timeline()
    estate = None
    for _ in range(3):
        if estate is not None:
            estate.close()
        line.sample()
        estate = line.timed("setup", lambda: Estate(rows, tracer))
    line.sample()
    assert estate is not None

    # Before timing: every statement on the planner's engine against the row
    # engine, which is the reference implementation.
    complaints: list[str] = []
    reference: dict[str, list[tuple]] = {}
    engines: dict[str, str] = {}
    failed = 0
    for label, text in statements:
        reference[label], engines[label] = execute(estate, text, rec, label)
        by_rows, _ = execute(estate, text, rec, label, vectorized=False)
        if not same_rows(reference[label], by_rows):
            failed += 1
            complaints.append(f"{label}: the planner's engine and the row engine disagree")
    if tracer is not None:
        tracer.reset()

    # What the benchmark itself holds (rows, reference results) is not the
    # program's garbage: keep it out of the collector's way while timing.
    gc.collect()
    gc.freeze()
    names = estate.plain.schema.names
    io_before = estate.disk.stats.snapshot()
    sim_before = estate.disk.elapsed_ms()
    window_start = time.monotonic_ns()

    def restore(burst: list, old: list) -> None:
        for (row, column, _), previous in zip(burst, old):
            estate.plain.set_value(row, names[column], previous)

    cycle_starts = []
    for cycle in range(cycles):
        cycle_starts.append(len(line.ops))
        for label, text in statements:
            line.sample()
            got, _ = line.timed("read", lambda: execute(estate, text, rec, label))
            if not same_rows(got, reference[label]):
                failed += 1
                if len(complaints) < 5:
                    complaints.append(f"cycle {cycle} {label}: rows differ from the first cycle's")
        for burst in corrections[cycle]:
            line.sample()
            old = [
                line.timed("write", lambda: estate.plain.set_value(row, names[column], value))
                for row, column, value in burst
            ]
            line.timed("checkpoint", estate.pool.flush_all)
            line.timed("undo", lambda: restore(burst, old))
            line.timed("checkpoint", estate.pool.flush_all)
    line.sample()
    cycle_starts.append(len(line.ops))
    window = (window_start, time.monotonic_ns())

    # A cycle's time is the time of its ops (checking rows is not in it), at
    # reference host speed.
    setups = line.latencies(0, 3)["setup"]
    latency = line.latencies(3)
    cycle_ms = [
        sum(sum(v) for v in line.latencies(first, last).values())
        for first, last in zip(cycle_starts, cycle_starts[1:])
    ]
    wall = sum(cycle_ms) / 1e3
    io = estate.disk.stats.delta_since(io_before)
    sim_io_ms = estate.disk.elapsed_ms() - sim_before
    shard_mode = estate.executor.resolved_mode
    stored = estate.disk.allocated_blocks * BLOCK
    estate.close()

    ops = sum(len(samples) for samples in latency.values())
    writes = len(latency["write"]) + len(latency["undo"])
    times, samples = summarise(setups, latency, cycle_ms, min_beyond)
    end_to_end = {
        **times,
        "ops_per_s": ops / wall,
        "rows_per_s": STATEMENTS * N_ROWS / (times["cycle_p50_ms"] / 1e3),
        "wal_bytes_per_write": io.block_writes * BLOCK / writes,
        "stored_bytes_per_user_byte": stored / (N_ROWS * gen.SCAN_COLUMNS * 8),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "end_to_end": end_to_end,
        "samples": samples,
        "digests": digests,
        "complaints": complaints,
        "wall_s": wall,
        "windows": [window],
        "writes": writes,
        "updates": len(latency["write"]),
        "wal_fsyncs": 0,
        "host_speed": line.median_factor(),
        "scan": {
            "cycles": cycles, "rows": N_ROWS, "engines": engines, "shard_mode": shard_mode,
            "tracer": tracer, "sim_io_ms": sim_io_ms, "io": io,
            "rows_returned": {label: len(rows) for label, rows in reference.items()},
        },
    }
