"""From the spans and counters of a traced run to the per-layer table.

Every number here comes from a ``--trace 1`` run: spans recorded by
``spans.Recorder`` in the bench process and (served workloads) in the server
child, the program's own tracer counters, and counts the wrappers took.
End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import json
import subprocess
from collections import defaultdict
from typing import Any

import env
import metrics
import spans as sp

WRITE_LAYERS = ("views", "core", "incremental", "durability")


def _inside(span: list, windows: list[tuple[int, int]]) -> bool:
    return any(lo <= span[2] and span[3] <= hi for lo, hi in windows)


def _merge_served(rec: sp.Recorder, served: dict) -> list[list]:
    """One span list for a served run: the bench process's client spans plus
    the server child's, each request's server spans hung under a
    ``server.request`` span (first byte decoded -> reply encoded) that is
    itself a child of the client's span for that request."""
    merged = [list(span) for span in rec.spans]
    offset = max((span[0] for span in merged), default=0) + 1
    with open(served["spans_path"], encoding="utf-8") as handle:
        child = json.load(handle)
    served["child_counts"] = child["counts"]
    server = []
    for sid, name, start, end, parent, request in child["spans"]:
        server.append(
            [sid + offset, name, start, end, parent + offset if parent else None, request]
        )
    next_id = max((span[0] for span in server), default=offset) + 1
    client_root = {
        span[5]: span[0] for span in merged if span[1].startswith("client.") and span[4] is None
    }
    decoded = {s[5]: s for s in server if s[1] == "server.codec.decode" and s[4] is None}
    encoded = {s[5]: s for s in server if s[1] == "server.codec.encode" and s[4] is None}
    roots = {}
    for request, first in decoded.items():
        last = encoded.get(request)
        if last is None or request not in client_root:
            continue
        roots[request] = next_id
        server.append(
            [next_id, "server.request", first[2], last[3], client_root[request], request]
        )
        next_id += 1
    sp.adopt_orphans(server, roots)
    return merged + server


class Table:
    """Spans of the timed phase, with the sums the metrics need."""

    def __init__(self, all_spans: list[list], windows: list[tuple[int, int]]) -> None:
        self.spans = [span for span in all_spans if _inside(span, windows)]
        self.selfs = sp.self_times(self.spans)
        self.names = sp.by_name(self.spans, self.selfs)
        self.layers = sp.layer_self_ms(self.names)

    def total(self, *names: str) -> float:
        return sum(self.names[n]["total_ms"] for n in names if n in self.names)

    def self_ms(self, *names: str) -> float:
        return sum(self.names[n]["self_ms"] for n in names if n in self.names)

    def calls(self, *names: str) -> float:
        return sum(self.names[n]["calls"] for n in names if n in self.names)

    def mean(self, *names: str) -> float:
        return _ratio(self.total(*names), self.calls(*names))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _prefixed(counters: dict[str, float], prefix: str, suffix: str = "") -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))


def _misses(table: Table) -> tuple[int, float]:
    """Computes that reached ``stats``: (count, their total ms)."""
    parent = {span[0]: span[4] for span in table.spans}
    by_id = {span[0]: span for span in table.spans}
    missed = set()
    for span in table.spans:
        if span[1] != "stats.compute":
            continue
        cursor = parent.get(span[0])
        while cursor is not None:
            if by_id[cursor][1] in ("core.compute", "core.snapshot_compute"):
                missed.add(cursor)
                break
            cursor = parent.get(cursor)
    return len(missed), sum((by_id[i][3] - by_id[i][2]) / 1e6 for i in missed)


def _untraced_cycle_ms(workload: str, result: dict, untraced_command: list[str]) -> float:
    """``cycle_p50_ms`` of the same run without tracing: from ``bench/out`` if
    this checkout already ran it at this seed and size, else run now."""
    saved = env.OUT / f"{workload}-untraced.json"
    if saved.exists():
        record = json.loads(saved.read_text())
        if record["host"]["op_stream_digests"] == result["digests"] and record["correct"]:
            return record["end_to_end"]["cycle_p50_ms"]
    done = subprocess.run(untraced_command, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line["metrics"]["cycle_p50_ms"]["value"]


def per_layer(
    workload: str, result: dict, rec: sp.Recorder, untraced_command: list[str]
) -> dict[str, float]:
    out = {name: 0.0 for name in metrics.PER_LAYER_NAMES}
    served = result.get("served")
    counts = dict(rec.counts)
    counters: dict[str, float] = {}
    if served is not None:
        all_spans = _merge_served(rec, served)
        for key, value in served["child_counts"].items():
            counts[key] = counts.get(key, 0) + value
        before = served["before"]["counters"]
        counters = {
            key: value - before.get(key, 0) for key, value in served["report"]["counters"].items()
        }
    else:
        all_spans = rec.spans
        tracer = (result.get("scan") or result.get("estate"))["tracer"]
        counters = tracer.counter_totals()
    table = Table(all_spans, result["windows"])

    if served is not None:
        _served_metrics(out, table, served, result)
    writes = result["writes"]
    updates = result["updates"]
    undos = writes - updates

    out["concurrency.lock_wait_ms"] = _ratio(counters.get("lock.wait_s", 0) * 1e3, writes)
    out["concurrency.publish_ms"] = _ratio(table.total("concurrency.publish"), writes)
    copied, shared = counters.get("mvcc.cow_copied", 0), counters.get("mvcc.cow_shared", 0)
    out["concurrency.cow_copied_share"] = _ratio(copied, copied + shared)
    out["concurrency.warm_keys_per_write"] = _ratio(counters.get("mvcc.warm", 0), writes)
    out["concurrency.commit_wait_ms"] = _ratio(table.total("concurrency.commit_wait"), writes)
    out["concurrency.group_commit_batch"] = _ratio(
        counters.get("wal.group_commit.txns", 0), counters.get("wal.group_commit.batches", 0)
    )
    out["concurrency.live_versions_max"] = counts.get("concurrency.live_versions_max", 0)

    out["core.update_self_ms"] = _ratio(table.self_ms("core.update"), updates)
    out["core.propagate_ms"] = table.mean("core.propagate")
    out["core.undo_ms"] = _ratio(table.total("core.undo"), undos)
    misses, miss_ms = _misses(table)
    out["core.compute_miss_ms"] = _ratio(miss_ms, misses)
    out["stats.compute_ms"] = _ratio(table.self_ms("stats.compute"), misses)

    hits = _prefixed(counters, "summary.hit.") + counters.get("mvcc.memo_hit", 0)
    out["summary.hit_share"] = _ratio(hits, hits + _prefixed(counters, "summary.miss.") + misses)
    out["summary.lookup_us"] = table.mean("summary.lookup") * 1e3
    out["summary.refresh_per_write"] = _ratio(table.calls("summary.refresh"), writes)
    out["summary.stale_per_write"] = _ratio(table.calls("summary.mark_stale"), writes)

    maintained = _prefixed(counters, "rule.", ".incremental")
    recomputed = _prefixed(counters, "rule.", ".recompute")
    invalidated = _prefixed(counters, "rule.", ".invalidate")
    out["incremental.maintained_share"] = _ratio(maintained, maintained + recomputed + invalidated)
    out["incremental.recompute_per_write"] = _ratio(recomputed, writes)
    out["incremental.apply_ms"] = _ratio(
        table.self_ms("incremental.apply"), table.calls("core.propagate")
    )

    out["views.predicate_scan_ms"] = _ratio(
        table.total("views.apply_update", "views.update_rows"), updates
    )
    out["views.rows_examined_per_update"] = _ratio(
        counts.get("views.rows_examined", 0), counts.get("views.rows_changed", 0)
    )
    out["views.materialize_s"] = (
        sum((s[3] - s[2]) for s in all_spans if s[1] == "views.materialize") / 1e9
    )

    scan = result.get("scan")
    if scan is not None:
        _scan_metrics(out, table, scan, counters)

    out["durability.wal_append_ms"] = _ratio(table.self_ms("durability.wal_append"), writes)
    out["durability.fsync_ms"] = table.mean("durability.fsync")
    out["durability.fsyncs_per_write"] = _ratio(result["wal_fsyncs"], writes)
    out["durability.checkpoint_ms"] = table.mean("durability.checkpoint_write")
    out["durability.checkpoint_bytes"] = _ratio(
        counts.get("durability.checkpoint_bytes", 0),
        sum(1 for s in all_spans if s[1] == "durability.checkpoint_write"),
    )
    out["durability.scan_ms"] = table.mean("durability.wal_scan")
    out["durability.load_ms"] = table.mean("durability.checkpoint_load")
    replay_ms = (
        table.total("durability.recover")
        - table.total("durability.wal_scan", "durability.checkpoint_load")
    )
    replayed = counts.get("durability.replayed_ops", 0) * _ratio(
        table.calls("durability.recover"),
        sum(1 for s in all_spans if s[1] == "durability.recover"),
    )
    out["durability.replay_ops_per_s"] = _ratio(replayed, replay_ms / 1e3)
    out["metadata.codec_ms"] = _ratio(
        table.self_ms("metadata.codec"),
        table.calls("durability.recover", "durability.checkpoint_write"),
    )

    out["workspace.manifest_read_ms"] = table.mean("workspace.manifest_read")
    out["workspace.manifest_write_ms"] = table.mean("workspace.manifest_write")
    out["workspace.index_rebuild_ms"] = table.mean("workspace.index_rebuild")
    out["workspace.find_us"] = table.mean("workspace.find") * 1e3

    # Layer shares are taken over the closed loop alone where a workload
    # keeps some ops (serve_explore's idle checkpoints) outside it.
    shares = table
    if "share_windows" in result:
        shares = Table(all_spans, result["share_windows"])
    attributed = sum(shares.layers.values())
    for layer, ms in shares.layers.items():
        out[f"share.{layer}"] = _ratio(ms, attributed)
    untraced = _untraced_cycle_ms(workload, result, untraced_command)
    out["trace.overhead_share"] = result["end_to_end"]["cycle_p50_ms"] / untraced - 1.0

    result["span_table"] = {
        "by_name": table.names,
        "layer_self_ms": table.layers,
        "update_budget": result.get("update_budget", {}),
    }
    env.OUT.mkdir(exist_ok=True)
    (env.OUT / f"{workload}-spans.json").write_text(json.dumps(table.spans))
    return out


def _served_metrics(out: dict, table: Table, served: dict, result: dict) -> None:
    kinds: dict[int, str] = {}
    n_ops = 0
    for conn, ops in enumerate(served["streams"]):
        base = (conn + 1) * 10_000_000
        for i, op in enumerate(ops):
            kinds[base + i] = op[0]
        n_ops += len(ops)

    out["server.codec_ms"] = _ratio(table.total("server.codec.encode", "server.codec.decode"), n_ops)
    by_request: dict[Any, dict[str, list]] = defaultdict(dict)
    for span in table.spans:
        if span[5] in kinds and span[1] in (
            "server.codec.decode", "server.request", "concurrency.write", "concurrency.read",
            "server.execute",
        ):
            slot = by_request[span[5]]
            # The server-side decode of a request precedes its client-side
            # decode of the reply; keep the first of each name.
            if span[1] not in slot or span[2] < slot[span[1]][2]:
                slot[span[1]] = span
    handoffs = []
    for slot in by_request.values():
        entry = slot.get("concurrency.write") or slot.get("concurrency.read")
        if entry is not None and "server.codec.decode" in slot:
            handoffs.append((entry[2] - slot["server.codec.decode"][3]) / 1e6)
    out["server.handoff_ms"] = _ratio(sum(handoffs), len(handoffs))
    client_ms = sum(
        (s[3] - s[2]) / 1e6 for s in table.spans if s[1].startswith("client.") and s[4] is None
    )
    inside = table.total("concurrency.write", "concurrency.read", "concurrency.checkpoint")
    out["server.rtt_overhead_ms"] = _ratio(client_ms - inside, n_ops)
    queries = [r for r, kind in kinds.items() if kind == "query" and r in by_request]
    inline = [r for r in queries if "server.execute" not in by_request[r]]
    out["server.inline_hit_share"] = _ratio(len(inline), len(queries))
    executed = [r for r, slot in by_request.items() if "server.execute" in slot]
    out["server.replica_ops"] = sum(1 for r in executed if kinds[r] == "query")
    out["server.worker_ops"] = len(executed) - out["server.replica_ops"]
    out["server.rejected"] = served["report"]["rejected"]
    out["server.timed_out"] = served["report"]["timed_out"]
    from served import SLO_MS

    judged = missed = 0
    for kind, limit in SLO_MS.items():
        judged += len(served["latency"][kind])
        missed += sum(1 for ms in served["latency"][kind] if ms > limit)
    out["server.slo_miss_share"] = _ratio(missed + result["failed"], judged + result["failed"])
    out["concurrency.pin_us"] = _ratio(
        table.total("concurrency.pin") * 1e3, len(queries) - len(inline)
    )
    out["durability.acked_writes_lost"] = served["lost"]

    # Ops of the other connection in flight while a checkpoint ran.
    stalled = checkpoints = 0
    traces = served["traces"]
    for conn, ops in enumerate(served["streams"]):
        for i, op in enumerate(ops):
            if op[0] != "checkpoint":
                continue
            checkpoints += 1
            lo, hi = traces[conn].starts[i], traces[conn].ends[i]
            for other, trace in enumerate(traces):
                if other != conn:
                    stalled += sum(1 for s, e in zip(trace.starts, trace.ends) if s < hi and e > lo)
    out["durability.checkpoint_stalled_ops"] = _ratio(stalled, checkpoints)

    # The update budget: what share of client-observed update latency lies
    # inside measured spans, and which layers hold it.
    parent = {span[0]: span[4] for span in table.spans}
    root_of: dict[int, int] = {}

    def root(sid: int) -> int:
        path = []
        while sid not in root_of and parent.get(sid) is not None:
            path.append(sid)
            sid = parent[sid]
        top = root_of.get(sid, sid)
        for node in path:
            root_of[node] = top
        return top

    update_roots = {
        s[0] for s in table.spans
        if s[1] == "client.update" and s[4] is None and kinds.get(s[5]) == "update"
    }
    observed = sum((s[3] - s[2]) / 1e6 for s in table.spans if s[0] in update_roots)
    layer_ms: dict[str, float] = defaultdict(float)
    publish_ms = 0.0
    for span in table.spans:
        if span[0] in update_roots or root(span[0]) not in update_roots:
            continue
        ms = table.selfs[span[0]] / 1e6
        layer_ms[sp.layer_of(span[1])] += ms
        if span[1] == "concurrency.publish":
            publish_ms += ms
    covered = sum(layer_ms.values())
    out["budget.update_covered_share"] = _ratio(covered, observed)
    n_updates = max(1, len(update_roots))
    result["update_budget"] = {
        "client_observed_ms_per_update": observed / n_updates,
        "covered_ms_per_update": covered / n_updates,
        "layer_self_ms_per_update": {k: v / n_updates for k, v in sorted(layer_ms.items())},
        "write_path_share": _ratio(
            sum(layer_ms[layer] for layer in WRITE_LAYERS) + publish_ms, observed
        ),
    }


def _scan_metrics(out: dict, table: Table, scan: dict, counters: dict) -> None:
    cycles = scan["cycles"]
    statements = cycles * len(scan["engines"])
    out["relational.parse_plan_ms"] = _ratio(
        table.total("relational.parse", "relational.plan"), statements
    )
    for label in scan["engines"]:
        out[f"relational.exec_ms.{label}"] = table.mean(f"relational.exec.{label}")
    for engine in scan["engines"].values():
        kind = "sharded" if engine.startswith("Sharded") else (
            "vectorized" if engine.startswith("Vec") else "row"
        )
        out[f"relational.engine.{kind}"] += 1
    out["relational.rows_examined_per_result"] = _ratio(
        len(scan["engines"]) * scan["rows"], sum(scan["rows_returned"].values())
    )
    if scan["shard_mode"] == "process":
        out["relational.shard_process_scatters"] = counters.get("shard.scatter", 0)
    hit, miss = counters.get("pool.hit", 0), counters.get("pool.miss", 0)
    out["storage.pool_hit_share"] = _ratio(hit, hit + miss)
    out["storage.pool_evictions"] = _ratio(counters.get("pool.eviction", 0), cycles)
    out["storage.pages_read_per_stmt"] = _ratio(counters.get("transposed.pages_read", 0), statements)
    out["storage.fetch_ms"] = _ratio(table.total("storage.fetch"), cycles)
    out["storage.sim_io_ms"] = _ratio(scan["sim_io_ms"], cycles)
