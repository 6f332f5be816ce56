"""E20 — Sharded scatter-gather aggregation over partitioned views.

Claims reproduced:

* a join-free group-by/aggregate query over a horizontally partitioned
  transposed view can be scattered to per-shard scans whose mergeable
  partial states (counters / exact sums / min-max extremes) gather into
  exactly the single-stream vectorized answer; and
* the scatter-gather path at ``shards=1`` costs no more than a modest
  constant factor over the plain vectorized engine (the partial-state
  protocol is cheap), while higher shard counts expose parallelism to a
  process pool when cores are available.

On a single-core box the executor resolves to serial scatter, so the
sweep shows the protocol's overhead trend rather than wall-clock
speedup; the resolved mode is recorded in the JSON for honest reading.

Environment knobs: ``E20_ROWS`` (default 200000), ``E20_SHARDS``
(comma-separated sweep, default ``1,2,4,8``), ``E20_TRIALS`` (best-of
repeats, default 3).  Persists ``BENCH_e20.json`` at the repo root.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.bench.harness import ExperimentTable, report_table, speedup, write_json
from repro.obs.tracer import Tracer
from repro.relational.catalog import Catalog
from repro.relational.planner import plan
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sharded import ShardExecutor, ShardedGroupBy, get_executor
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile

N_ROWS = int(os.environ.get("E20_ROWS", "200000"))
SHARD_SWEEP = [int(s) for s in os.environ.get("E20_SHARDS", "1,2,4,8").split(",")]
TRIALS = int(os.environ.get("E20_TRIALS", "3"))
BLOCK = 4096
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_e20.json"

QUERY = (
    "SELECT G, count(X) AS n, sum(X) AS s, avg(X) AS a, "
    "min(Y) AS mn, max(Y) AS mx FROM e20 WHERE Y > 100 GROUP BY G"
)

_METRICS: dict[str, float | str] = {}
_TABLES: list[ExperimentTable] = []
_SPANS: dict[str, object] = {}


def _best_of(repeats, operation):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def _schema():
    return Schema([category("G", DataType.STR), measure("X"), measure("Y")])


def _rows():
    for i in range(N_ROWS):
        x = NA if i % 13 == 7 else float((i * 7) % 1000)
        y = float((i * 11) % 2000)
        yield (f"g{i % 5}", x, y)


def build_plain():
    schema = _schema()
    pool = BufferPool(SimulatedDisk(block_size=BLOCK), capacity=64)
    storage = TransposedFile(pool, schema.types, name="e20")
    storage.append_rows(list(_rows()))
    return StoredRelation("e20", schema, storage)


def build_sharded(shards):
    schema = _schema()
    storage = ShardedTransposedFile(
        schema.types, shards=shards, name="e20", block_size=BLOCK
    )
    storage.append_rows(list(_rows()))
    return StoredRelation("e20", schema, storage)


def _run(stored):
    catalog = Catalog()
    catalog.register(stored)
    return list(plan(parse(QUERY), catalog))


def test_e20_sharded_scatter_gather_sweep():
    plain = build_plain()
    reference = _run(plain)
    t_vectorized = _best_of(TRIALS, lambda: _run(plain))

    table = ExperimentTable(
        "E20",
        f"{len(SHARD_SWEEP)}-point shard sweep, {N_ROWS} rows, "
        "5-group filtered aggregate (count/sum/avg/min/max)",
        ["engine", "shards", "time_s", "vs_vectorized"],
    )
    table.add_row("vectorized (single stream)", 1, t_vectorized, 1.0)
    _METRICS["rows"] = N_ROWS
    _METRICS["vectorized_s"] = t_vectorized

    t_one_shard = None
    for shards in SHARD_SWEEP:
        stored = build_sharded(shards)
        got = _run(stored)
        assert got == reference, f"shards={shards} diverged from vectorized"
        executor = get_executor(stored.storage)
        t_sharded = _best_of(TRIALS, lambda: _run(stored))
        table.add_row(
            f"scatter-gather ({executor.resolved_mode})",
            shards,
            t_sharded,
            speedup(t_vectorized, t_sharded),
        )
        _METRICS[f"sharded_{shards}_s"] = t_sharded
        _METRICS[f"sharded_{shards}_mode"] = executor.resolved_mode
        if shards == 1:
            t_one_shard = t_sharded

    table.note(
        "every sweep point returns the identical result rows; partial "
        "states (counters, exact sums, min-max extremes) merge in first-seen order"
    )
    report_table(table)
    _TABLES.append(table)

    # The protocol itself must stay cheap: one shard, no pool, no merge
    # fan-in — at most a modest constant over the plain vectorized path.
    assert t_one_shard is not None
    overhead = t_one_shard / t_vectorized
    _METRICS["one_shard_overhead"] = overhead
    assert overhead <= 1.6, f"shards=1 costs {overhead:.2f}x vs vectorized"


def test_e20_scatter_gather_traces():
    stored = build_sharded(4)
    tracer = Tracer()
    executor = ShardExecutor(stored.storage, mode="serial", tracer=tracer)
    op = ShardedGroupBy(stored, ["G"], _specs(), executor=executor)
    list(op)
    (root,) = [s for s in tracer.roots if s.name == "shard.scatter_gather"]
    assert root.total("shard.scatter") == 4
    assert root.total("shard.gather") >= 4
    _SPANS.update(tracer.to_dict())
    write_json(JSON_PATH, _TABLES, _METRICS, spans=_SPANS or None)


def _specs():
    from repro.relational.aggregates import AggregateSpec

    return [
        AggregateSpec("count", "X", "n"),
        AggregateSpec("sum", "X", "s"),
        AggregateSpec("avg", "X", "a"),
        AggregateSpec("min", "Y", "mn"),
        AggregateSpec("max", "Y", "mx"),
    ]
