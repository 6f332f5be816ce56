"""The benchmark's vocabulary: workloads, metric names, units, bounds, and
the percentile rule.  ``BENCHMARK.json`` is generated from (and tested
against) these tables, so the names a run prints cannot drift from it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

WORKLOADS = [
    (
        "serve_explore",
        "read-dominated serving: wire codec, inline memo hits and MVCC head reads do the "
        "work; a write-path change must show no change here",
    ),
    (
        "serve_clean",
        "write-dominated serving: predicate scan, propagation, version publication, WAL "
        "fsync, group commit and quiescing checkpoints; ends with kill, cut to fsynced, recover",
    ),
    (
        "scan_mix",
        "in-process SQL over a transposed file 6x larger than the buffer pool: relational "
        "engines and storage do all the work, server and durability none",
    ),
    (
        "estate_recover",
        "workspace of managed views: durability used for reading (WAL scan, checkpoint load, "
        "replay), manifests and index, then checkpoints and logged cleaning",
    ),
]

#: name, unit, better, bound, one-line definition.  Every time carries the
#: largest bound the contract allows: on this shared host ten runs of the
#: same code spread by up to 15% even at reference speed (see probe.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of three builds of the workload's initial state through the program's own calls"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "acknowledged ops per second of the timed phase (served: ops of a block / median block time)"),
    ("read_p50_ms", "ms", "lower", 0.25,
     "median latency of a read (query / SQL statement / find)"),
    ("read_p99_ms", "ms", "lower", 0.25,
     "tail latency of a read: p99, or the highest percentile with 10 samples beyond it"),
    ("write_p50_ms", "ms", "lower", 0.25,
     "median latency of a durable write (update / cell correction)"),
    ("write_p95_ms", "ms", "lower", 0.25,
     "tail latency of a write: p95, or the highest percentile with 10 samples beyond it"),
    ("undo_p50_ms", "ms", "lower", 0.25, "median latency of an undo"),
    ("cycle_p50_ms", "ms", "lower", 0.25,
     "median time of one fixed block of the op stream (statement cycle / recover_all sweep)"),
    ("rows_per_s", "1/s", "higher", 0.25,
     "view rows scanned, summarised or recovered per second of cycle time"),
    ("checkpoint_p50_ms", "ms", "lower", 0.25, "median time of one checkpoint"),
    ("wal_bytes_per_write", "B", "lower", 0.02,
     "bytes appended to the log (or written back to the device) per acknowledged write or undo"),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.02,
     "bytes on disk after the last checkpoint / (rows x attributes x 8)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the process that holds the data"),
]

#: name, unit, better, what it is measured around, the end-to-end metric
#: (and workload) it should move.
PER_LAYER = [
    ("server.codec_ms", "ms/op", "lower", "protocol.encode_frame + decode_payload, both ends",
     "read_p50_ms, ops_per_s on serve_explore"),
    ("server.handoff_ms", "ms/op", "lower",
     "decode_payload return -> first TransactionCoordinator.read/write entry",
     "write_p50_ms on serve_clean"),
    ("server.rtt_overhead_ms", "ms/op", "lower", "client RTT - time inside concurrency",
     "read_p50_ms on serve_explore"),
    ("server.inline_hit_share", "ratio", "higher", "_serve_read_inline answers / queries",
     "read_p50_ms, ops_per_s on serve_explore"),
    ("server.worker_ops", "count", "lower", "ops reaching the worker pool", "evidence for ROADMAP 3b"),
    ("server.replica_ops", "count", "lower", "ops reaching the ReplicaPool", "evidence for ROADMAP 3b"),
    ("server.rejected", "count", "lower", "server.rejected", "failed share"),
    ("server.timed_out", "count", "lower", "server.timed_out", "failed share"),
    ("server.slo_miss_share", "ratio", "lower", "reads > 20 ms, writes > 100 ms",
     "read_p99_ms, write_p95_ms"),
    ("concurrency.lock_wait_ms", "ms/write", "lower", "lock.wait_s", "write_p95_ms on serve_clean"),
    ("concurrency.publish_ms", "ms/write", "lower", "VersionChain.publish_version",
     "write_p50_ms on serve_clean; read_p99_ms on serve_explore"),
    ("concurrency.cow_copied_share", "ratio", "lower", "mvcc.cow_copied / (copied + shared)",
     "concurrency.publish_ms, peak_rss_mb"),
    ("concurrency.warm_keys_per_write", "count", "lower", "mvcc.warm / writes",
     "write_p50_ms on serve_explore"),
    ("concurrency.commit_wait_ms", "ms/write", "lower", "GroupCommitter.wait",
     "write_p50_ms on serve_clean"),
    ("concurrency.group_commit_batch", "txns/fsync", "higher",
     "wal.group_commit.txns / .batches", "write_p95_ms on serve_clean"),
    ("concurrency.pin_us", "us/read", "lower", "VersionChain.pin + unpin", "read_p99_ms on serve_explore"),
    ("concurrency.live_versions_max", "count", "lower", "VersionChain.live at each publish",
     "peak_rss_mb on served workloads"),
    ("core.update_self_ms", "ms/write", "lower", "AnalystSession.update self time",
     "write_p50_ms on serve_clean"),
    ("core.propagate_ms", "ms/call", "lower", "UpdatePropagator.propagate (live writes and recovery replay)",
     "write_p50_ms on serve_clean; cycle_p50_ms on estate_recover"),
    ("core.undo_ms", "ms/undo", "lower", "AnalystSession.undo", "undo_p50_ms on serve_clean"),
    ("core.compute_miss_ms", "ms/miss", "lower",
     "SnapshotReader.compute / AnalystSession.compute that reached stats", "read_p99_ms on serve_explore"),
    ("summary.hit_share", "ratio", "higher", "summary.hit.* + memo hits / all lookups",
     "read_p50_ms on serve_explore"),
    ("summary.lookup_us", "us", "lower", "SummaryDatabase.lookup", "read_p50_ms on serve_explore"),
    ("summary.refresh_per_write", "count", "lower", "SummaryDatabase.refresh / writes", "core.propagate_ms"),
    ("summary.stale_per_write", "count", "lower", "SummaryDatabase.mark_stale / writes", "read_p99_ms"),
    ("incremental.maintained_share", "ratio", "higher",
     "rule.*.incremental / (incremental + recompute + invalidate)", "write_p50_ms on serve_clean"),
    ("incremental.recompute_per_write", "count", "lower", "rule.*.recompute / writes",
     "write_p95_ms on serve_clean"),
    ("incremental.apply_ms", "ms/call", "lower",
     "maintainer apply_batch / on_update, per propagate call", "core.propagate_ms"),
    ("views.predicate_scan_ms", "ms/update", "lower", "views.updates.apply_update / update_rows",
     "write_p50_ms, ops_per_s on serve_clean"),
    ("views.rows_examined_per_update", "count", "lower", "predicate evaluations / rows changed",
     "views.predicate_scan_ms"),
    ("views.materialize_s", "s", "lower", "views.materialize.materialize", "setup_s"),
    ("relational.parse_plan_ms", "ms/stmt", "lower", "sql.parse + planner.plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.groupby", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.filter", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.median", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.wide", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.join", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.sharded", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.exec_ms.topk", "ms", "lower", "iterating the plan", "cycle_p50_ms on scan_mix"),
    ("relational.engine.vectorized", "count", "higher", "operator class at the plan root, per cycle",
     "which exec_ms an engine change can move"),
    ("relational.engine.row", "count", "lower", "operator class at the plan root, per cycle",
     "which exec_ms an engine change can move"),
    ("relational.engine.sharded", "count", "higher", "operator class at the plan root, per cycle",
     "which exec_ms an engine change can move"),
    ("relational.rows_examined_per_result", "ratio", "lower", "rows scanned / rows returned",
     "rows_per_s on scan_mix"),
    ("relational.shard_process_scatters", "count", "higher", "shard.scatter in process mode",
     "relational.exec_ms.sharded"),
    ("storage.pool_hit_share", "ratio", "higher", "pool.hit / (hit + miss)", "cycle_p50_ms on scan_mix"),
    ("storage.pool_evictions", "count/cycle", "lower", "pool.eviction", "cycle_p50_ms on scan_mix"),
    ("storage.pages_read_per_stmt", "count", "lower", "transposed.pages_read", "relational.exec_ms.*"),
    ("storage.fetch_ms", "ms/cycle", "lower", "BufferPool.fetch_page + unpin", "cycle_p50_ms on scan_mix"),
    ("storage.sim_io_ms", "ms/cycle", "lower", "SimulatedDisk.elapsed_ms (cost model)",
     "the paper's I/O argument"),
    ("durability.wal_append_ms", "ms/write", "lower", "WriteAheadLog.append_many minus its fsync",
     "write_p50_ms on serve_clean"),
    ("durability.fsync_ms", "ms/fsync", "lower", "WriteAheadLog.sync (the sandbox's fsync)",
     "write_p50_ms, write_p95_ms on serve_clean"),
    ("durability.fsyncs_per_write", "ratio", "lower", "WAL fsyncs / writes", "write_p50_ms on serve_clean"),
    ("durability.checkpoint_ms", "ms", "lower", "Checkpointer.write",
     "checkpoint_p50_ms on estate_recover; write_p95_ms on serve_clean"),
    ("durability.checkpoint_bytes", "B", "lower", "size of each checkpoint written",
     "stored_bytes_per_user_byte"),
    ("durability.checkpoint_stalled_ops", "count", "lower",
     "ops in flight on the other connection during a checkpoint", "write_p95_ms on serve_clean"),
    ("durability.scan_ms", "ms/view", "lower", "WriteAheadLog.scan", "cycle_p50_ms on estate_recover"),
    ("durability.load_ms", "ms/view", "lower", "Checkpointer.load", "cycle_p50_ms on estate_recover"),
    ("durability.replay_ops_per_s", "1/s", "higher", "replayed ops / (recover - scan - load)",
     "cycle_p50_ms on estate_recover"),
    ("durability.acked_writes_lost", "count", "lower", "model vs recovered view after kill + cut",
     "must be 0"),
    ("metadata.codec_ms", "ms/view", "lower", "metadata.persistence *_to_dict / *_from_dict",
     "checkpoint_p50_ms, cycle_p50_ms on estate_recover"),
    ("workspace.manifest_read_ms", "ms/view", "lower", "read_manifest", "cycle_p50_ms on estate_recover"),
    ("workspace.manifest_write_ms", "ms/view", "lower", "write_manifest", "cycle_p50_ms on estate_recover"),
    ("workspace.index_rebuild_ms", "ms", "lower", "WorkspaceIndex.rebuild", "cycle_p50_ms on estate_recover"),
    ("workspace.find_us", "us", "lower", "Workspace.find", "read_p50_ms on estate_recover"),
    ("stats.compute_ms", "ms/miss", "lower", "repro.stats.descriptive under a miss", "core.compute_miss_ms"),
    ("trace.overhead_share", "ratio", "lower", "traced / untraced cycle_p50_ms",
     "validity of every row above"),
    ("budget.update_covered_share", "ratio", "higher",
     "layer self times of an update / client-observed latency", "the parts add up to the whole"),
] + [
    (f"share.{layer}", "ratio", "lower", f"{layer} self time / all layers' self time, timed phase",
     "which layer a workload stresses")
    for layer in (
        "server", "concurrency", "core", "summary", "incremental", "views",
        "relational", "storage", "durability", "workspace", "metadata", "stats",
    )
]

END_TO_END_NAMES = [row[0] for row in END_TO_END]
PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
BOUNDS = {row[0]: row[3] for row in END_TO_END}
BETTER = {row[0]: row[2] for row in END_TO_END}

#: At least this many samples must lie beyond a reported percentile.
MIN_BEYOND = 10
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75)


class TooFewSamples(ValueError):
    pass


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q`` quantile (nearest rank), refused unless at least
    ``min_beyond`` samples lie beyond it."""
    n = len(samples)
    beyond = n - math.ceil(q * n)
    if n == 0 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; need {min_beyond}"
        )
    return sorted(samples)[math.ceil(q * n) - 1]


def tail(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> tuple[float, float]:
    """``(value, quantile used)``: the ``q`` quantile, or the highest rung of
    the ladder below it that the sample count supports."""
    for rung in TAIL_LADDER:
        if rung <= q:
            try:
                return percentile(samples, rung, min_beyond), rung
            except TooFewSamples:
                continue
    raise TooFewSamples(f"{len(samples)} samples support no tail percentile")


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


def summarise(
    setups_ms: Sequence[float],
    latency: dict[str, list[float]],
    cycle_ms: Sequence[float],
    min_beyond: int,
    read_tail: float = 0.99,
) -> tuple[dict[str, float], dict[str, object]]:
    """The time metrics every workload derives the same way from its samples
    (``latency`` by op class: read, write, undo, checkpoint), and the sample
    count behind each."""
    reads, writes = latency["read"], latency["write"]
    read_value, read_q = tail(reads, read_tail, min_beyond)
    write_value, write_q = tail(writes, 0.95, min_beyond)
    values = {
        "setup_s": median(setups_ms) / 1e3,
        "read_p50_ms": median(reads),
        "read_p99_ms": read_value,
        "write_p50_ms": median(writes),
        "write_p95_ms": write_value,
        "undo_p50_ms": median(latency["undo"]),
        "cycle_p50_ms": median(cycle_ms),
        "checkpoint_p50_ms": median(latency["checkpoint"]),
    }
    samples = {
        "setup_s": len(setups_ms),
        "read_p50_ms": len(reads),
        "read_p99_ms": f"p{read_q * 100:g} of {len(reads)}",
        "write_p50_ms": len(writes),
        "write_p95_ms": f"p{write_q * 100:g} of {len(writes)}",
        "undo_p50_ms": len(latency["undo"]),
        "cycle_p50_ms": len(cycle_ms),
        "checkpoint_p50_ms": len(latency["checkpoint"]),
    }
    return values, samples


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def benchmark_json(run_seconds: int) -> dict:
    """The contents of ``BENCHMARK.json`` at the root of the repository."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }
