"""E19 — Multi-analyst service throughput and latency under load.

The 1982 paper envisions "several concrete views over a single raw
database" with each view private to one analyst (SS3.2) — but every
analyst still flows through the shared Management Database, the published
registry, and (here) one wire server.  E19 measures what that sharing
costs: N concurrent analysts fire a query-heavy mix (80% snapshot reads,
20% serialized writes) at one :class:`~repro.server.AnalystServer` and we
record throughput and p50/p95 per-request latency at each concurrency
level.

Expected shape (v2, MVCC): reads pin published versions and acquire no
lock at all, so read-mostly throughput keeps climbing past the old
8-analyst cliff; the write fraction still serializes on the EXCLUSIVE
lock and group commit amortizes its fsyncs.  With 20% writes the
*overall* p95 is arithmetically the write tail (its p75), so the table
reports read and write percentiles separately — on a single-core box
the write tail is dominated by thread-wakeup chains (executor handoff,
post-fsync GIL reacquisition), not by lock contention; the read p95 is
the number that tracks the MVCC claim.  Alongside the printed table the
run persists ``BENCH_e19.json`` (with the server's ``server.*`` /
``lock.*`` / ``mvcc.*`` / ``wal.*`` counters as its ``spans``, plus
per-level ``c{n}_lock_wait`` / ``c{n}_snapshot_violations`` and split
``c{n}_read_p95_ms`` / ``c{n}_write_p95_ms`` metrics) at the repo root.

Noise control (levels through 8 are gated on monotone throughput, but
only while they fit the host's cores — past ``os.cpu_count()`` the clients
time-share the cores with the server and a closed loop reads lower for
that reason alone; the structural asserts run at every level):
every level through 8 issues the same total request volume, each level
runs :data:`TRIALS` times keeping the best-throughput trial, and a
warmup client touches each query combination once so the measured run
starts with the summary snapshot warm.

CI smoke: ``E19_LEVELS`` (comma-separated), ``E19_ROWS``,
``E19_REQUESTS`` and ``E19_TRIALS`` shrink the run without editing this
file.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.bench.harness import ExperimentTable, report_table, write_json
from repro.concurrency import ConcurrentTracer
from repro.core.dbms import StatisticalDBMS
from repro.durability.manager import DurabilityManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.server import AnalystServer, ServerClient, ServerThread
from repro.views.materialize import SourceNode, ViewDefinition


def _env_levels(default=(1, 2, 4, 8, 16, 32)):
    raw = os.environ.get("E19_LEVELS", "")
    if raw.strip():
        return tuple(int(part) for part in raw.replace(",", " ").split())
    return default


N_ROWS = int(os.environ.get("E19_ROWS", "500"))
CONCURRENCY_LEVELS = _env_levels()
REQUESTS_PER_ANALYST = int(os.environ.get("E19_REQUESTS", "80"))
#: Trials per level; the best-throughput trial is reported (classic
#: noise control for closed-loop benches on a shared/single-core box —
#: a stray scheduler stall shows up as a slow *trial*, not a slow server).
TRIALS = int(os.environ.get("E19_TRIALS", "2"))
WRITE_EVERY = 5  # 1 write per 5 requests = 20% writes
MAX_WORKERS = 8
#: Consecutive levels through 8 must not regress by more than this factor
#: (scheduling jitter aside, MVCC read scaling is monotone to the core
#: count — so only levels within ``os.cpu_count()`` are compared; the
#: strict check happens on the committed BENCH_e19.json).
MONOTONE_SLACK = 0.85
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_e19.json"


def build_dbms(directory, tracer):
    schema = Schema([measure("x"), measure("y")])
    rows = [(float(i), float(i % 97)) for i in range(N_ROWS)]
    dbms = StatisticalDBMS(
        tracer=tracer, durability=DurabilityManager(directory)
    )
    dbms.load_raw(Relation("census", schema, rows))
    dbms.create_view(ViewDefinition("v", SourceNode("census")), analyst="seed")
    return dbms


def warm_summaries(port):
    """Touch every query combination once so the measured run starts with
    the head version's summary snapshot warm (steady-state behaviour —
    the cold first-miss cost is a bootstrap artifact, not the per-request
    cost E19 is after)."""
    with ServerClient(port=port, timeout_s=60) as conn:
        conn.handshake("warmup")
        conn.open_view("v")
        for function in ("mean", "var", "sum"):
            conn.query("v", function, "y")


def requests_per_analyst(concurrency):
    """Per-analyst request count, scaled so every level through 8 issues
    the same total volume (8 × REQUESTS_PER_ANALYST): equal sample sizes
    and comparable run windows keep one scheduler stall from poisoning a
    small level's throughput figure."""
    return max(REQUESTS_PER_ANALYST, 8 * REQUESTS_PER_ANALYST // concurrency)


def drive_analyst(port, index, n_requests, latencies_out):
    """One analyst's request loop; appends ``(is_write, latency_s)``."""
    latencies = []
    with ServerClient(port=port, timeout_s=60) as conn:
        conn.handshake(f"analyst{index}")
        conn.open_view("v")
        for i in range(n_requests):
            start = time.perf_counter()
            # Phase-shift each analyst's write slot so writes spread over
            # the cycle instead of arriving in synchronized bursts (every
            # analyst still sends exactly 20% writes).
            is_write = (i + index) % WRITE_EVERY == WRITE_EVERY - 1
            if is_write:
                value = float(index * 10_000 + i)
                conn.update(
                    "v",
                    {"y": value},
                    where={"attribute": "x", "equals": float(i % N_ROWS)},
                )
            else:
                conn.query("v", ("mean", "var", "sum")[i % 3], "y")
            latencies.append((is_write, time.perf_counter() - start))
    latencies_out.extend(latencies)


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_level(tmp_path, concurrency):
    """Best of :data:`TRIALS` runs at one concurrency level."""
    trials = [
        _run_level_once(tmp_path, concurrency, trial)
        for trial in range(TRIALS)
    ]
    return max(trials, key=lambda r: r["throughput_rps"])


def _run_level_once(tmp_path, concurrency, trial):
    """One concurrency level against a fresh served DBMS."""
    tracer = ConcurrentTracer()
    directory = tmp_path / f"wal_c{concurrency}_t{trial}"
    server = AnalystServer(
        build_dbms(directory, tracer),
        tracer=tracer,
        max_workers=MAX_WORKERS,
        max_inflight=MAX_WORKERS,
        # Deep enough that 32 one-request-in-flight analysts never see a
        # queue-depth rejection.
        max_queue=8 * MAX_WORKERS,
    )
    thread = ServerThread(server).start()
    try:
        warm_summaries(thread.port)
        n_requests = requests_per_analyst(concurrency)
        per_thread = [[] for _ in range(concurrency)]
        workers = [
            threading.Thread(
                target=drive_analyst,
                args=(thread.port, i, n_requests, per_thread[i]),
                daemon=True,
            )
            for i in range(concurrency)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
        elapsed = time.perf_counter() - started
        samples = [s for bucket in per_thread for s in bucket]
        counters = tracer.counter_totals()
    finally:
        thread.stop()
    latencies = [latency for _, latency in samples]
    reads = [latency for is_write, latency in samples if not is_write]
    writes = [latency for is_write, latency in samples if is_write]
    requests = len(latencies)
    return {
        "concurrency": concurrency,
        "requests": requests,
        "elapsed_s": elapsed,
        "throughput_rps": requests / elapsed if elapsed else 0.0,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        # Split percentiles: lock-free snapshot reads vs durable writes.
        # The overall p95 at 20% writes *is* the write tail (its p75), so
        # the read path's latency needs its own column to be visible.
        "read_p95_ms": percentile(reads, 0.95) * 1e3,
        "write_p50_ms": percentile(writes, 0.50) * 1e3,
        "write_p95_ms": percentile(writes, 0.95) * 1e3,
        "counters": counters,
    }


def test_e19_concurrent_sessions(tmp_path):
    table = ExperimentTable(
        "E19",
        f"Concurrent analysts over one wire server ({N_ROWS}-row view, "
        f"{MAX_WORKERS} workers, 20% writes)",
        [
            "analysts",
            "requests",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "read_p95_ms",
            "write_p95_ms",
        ],
    )
    results = []
    for concurrency in CONCURRENCY_LEVELS:
        result = run_level(tmp_path, concurrency)
        results.append(result)
        table.add_row(
            result["concurrency"],
            result["requests"],
            result["throughput_rps"],
            result["p50_ms"],
            result["p95_ms"],
            result["read_p95_ms"],
            result["write_p95_ms"],
        )
        counters = result["counters"]
        # Sanity: every request was answered and the service counters moved.
        assert result["requests"] == concurrency * requests_per_analyst(
            concurrency
        )
        assert counters["server.request"] >= result["requests"]
        # MVCC discipline: writers publish versions and still take the
        # view lock; readers pin versions and take NO lock — grants
        # are bounded by writes + one registry lock per handshake + the
        # one-time per-view bootstrap, regardless of how many reads ran.
        # +1 for the warmup client's handshake, +1 for the per-view
        # bootstrap read.
        writes = concurrency * (requests_per_analyst(concurrency) // WRITE_EVERY)
        assert counters["lock.grant"] > 0  # the write fraction still locks
        assert counters["lock.grant"] <= writes + concurrency + 2, (
            f"read path took locks: {counters['lock.grant']} grants "
            f"for {writes} writes at c={concurrency}"
        )
        assert counters.get("mvcc.publish", 0) > 0
        assert counters.get("mvcc.pin", 0) > 0
        assert "txn.snapshot_violation" not in counters
    # Throughput through 8 analysts must not regress (the old read-lock
    # path fell off a cliff at 8); slack absorbs scheduler jitter.  Past
    # the core count a lower reading is oversubscription (four clients on
    # two cores: 0.77-0.85x of two), so the gate stops there.
    cores = os.cpu_count() or 1
    gated = [r for r in results if r["concurrency"] <= min(8, cores)]
    table.note(
        "MVCC v2: reads pin published versions lock-free; writes "
        "serialize + group-commit (the overall p95 is the durable-write "
        "tail, see read_p95_ms for the lock-free read path)"
    )
    table.note(
        f"monotone-throughput gate on levels {[r['concurrency'] for r in gated]} "
        f"(<= min(8, {cores} cores)); every level ran the structural asserts"
    )
    report_table(table)

    for prev, nxt in zip(gated, gated[1:]):
        assert nxt["throughput_rps"] >= MONOTONE_SLACK * prev["throughput_rps"], (
            f"throughput regressed {prev['concurrency']}->"
            f"{nxt['concurrency']} analysts: "
            f"{prev['throughput_rps']:.0f} -> {nxt['throughput_rps']:.0f} rps"
        )

    metrics = {
        f"c{r['concurrency']}_throughput_rps": r["throughput_rps"]
        for r in results
    }
    metrics.update(
        {f"c{r['concurrency']}_p95_ms": r["p95_ms"] for r in results}
    )
    metrics.update(
        {f"c{r['concurrency']}_read_p95_ms": r["read_p95_ms"] for r in results}
    )
    metrics.update(
        {
            f"c{r['concurrency']}_write_p95_ms": r["write_p95_ms"]
            for r in results
        }
    )
    metrics.update(
        {
            f"c{r['concurrency']}_lock_wait": r["counters"].get("lock.wait", 0)
            for r in results
        }
    )
    metrics.update(
        {
            f"c{r['concurrency']}_snapshot_violations": r["counters"].get(
                "txn.snapshot_violation", 0
            )
            for r in results
        }
    )
    write_json(
        JSON_PATH,
        [table],
        metrics,
        spans={
            "counters_by_level": {
                f"c{r['concurrency']}": r["counters"] for r in results
            }
        },
        params={
            "rows": N_ROWS,
            "max_workers": MAX_WORKERS,
            "concurrency_levels": list(CONCURRENCY_LEVELS),
            "requests_per_analyst": REQUESTS_PER_ANALYST,
            "write_fraction": 1 / WRITE_EVERY,
            "trials": TRIALS,
        },
    )
