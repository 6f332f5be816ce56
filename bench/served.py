"""The two served workloads: ``serve_explore`` and ``serve_clean``.

Load shape: the server runs in its own child process (``server_child.py``);
the bench process holds two closed-loop ``ServerClient`` connections, one
thread each, each on its own private view (two, because this host has two
cores; closed loop, because an analyst waits for each reply).  Flush
policy: the program's own — the WAL is fsynced on every commit batch.

Every reply is kept and checked after the timed phase against a numpy
model of the connection's view; then the child is SIGKILLed, ``log.wal`` is
cut back to the last fsynced length, recovery runs, and the recovered views
must equal the model of the acknowledged ops.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import env
import gen
from fixtures import cut_wal_to_ledger
from metrics import median, summarise
from probe import HostSpeed, Timeline
from model import ViewModel, agrees, lost_cells

env.require_repro()

from repro.core.errors import ReproError  # noqa: E402
from repro.durability.recovery import recover  # noqa: E402
from repro.server import ServerClient  # noqa: E402

N_ROWS = 20_000
CONNECTIONS = 2
#: Ops per connection per second of ``--seconds``, measured on this host so
#: the timed phase lasts about ``--seconds``.
OPS_PER_SECOND = {"serve_explore": 3900, "serve_clean": 66}
CYCLE_OPS = {"serve_explore": 1950, "serve_clean": 30}
EXPLORE_WRITE_EVERY = 330
EXPLORE_UNDO_EVERY = 660
CLEAN_CHECKPOINT_EVERY = 150
AUDIT_STREAM_FACTOR = 60
AUDIT_BLOCK = 100
#: serve_explore checkpoints an idle server after the loop, so that its
#: timed phase stays free of quiesce stalls.
EXPLORE_IDLE_CHECKPOINTS = 5
SLO_MS = {"read": 20.0, "write": 100.0, "undo": 100.0}
#: Wire op -> op class of the metrics.
OP_CLASS = {"query": "read", "update": "write", "undo": "undo", "checkpoint": "checkpoint"}
#: The read tail asked for.  On serve_explore the top 1% of reads straddles
#: ordinary reads (0.3 ms) and reads that waited for a writer's GIL slice
#: (5 ms), about half each, so a p99 flips between the two from run to run.
READ_TAIL = {"serve_explore": 0.95, "serve_clean": 0.99}


def view_names(workload: str) -> list[str]:
    return [f"{workload}_{conn}" for conn in range(CONNECTIONS)]


def op_streams(workload: str, seed: int, n_ops: int) -> list[list[list]]:
    if workload == "serve_explore":
        return [
            gen.explore_ops(
                seed, conn, n_ops, N_ROWS, EXPLORE_WRITE_EVERY, EXPLORE_UNDO_EVERY
            )
            for conn in range(CONNECTIONS)
        ]
    # The auditor (connection 1) reads for as long as the cleaner cleans: its
    # stream is longer than it can get through in that time.
    return [
        gen.clean_ops(seed, 0, n_ops, N_ROWS, min(CLEAN_CHECKPOINT_EVERY, n_ops)),
        gen.clean_ops(seed, 1, n_ops * AUDIT_STREAM_FACTOR, N_ROWS, 0),
    ]


# -- the server child ---------------------------------------------------------


@dataclass
class Child:
    process: subprocess.Popen
    directory: Path
    ledger: Path
    port: int
    gen_s: float

    def report(self, spans_path: Path | None = None) -> dict:
        """Peak RSS and counters so far; a traced child also dumps its spans."""
        assert self.process.stdin and self.process.stdout
        command = {"cmd": "report", "spans": str(spans_path) if spans_path else None}
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def kill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream:
                stream.close()


def spawn(workload: str, seed: int, traced: bool, root: Path, tag: str) -> Child:
    directory = root / f"db-{tag}"
    ledger = root / f"fsynced-{tag}"
    process = subprocess.Popen(
        [
            sys.executable, str(env.BENCH / "server_child.py"),
            "--dir", str(directory), "--ledger", str(ledger),
            "--rows", str(N_ROWS), "--seed", str(seed),
            "--views", *view_names(workload), "--trace", str(int(traced)),
        ],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    assert process.stdout
    line = process.stdout.readline()
    if not line:
        process.wait()
        raise RuntimeError(f"server child exited with {process.returncode} before binding")
    hello = json.loads(line)
    return Child(process, directory, ledger, hello["port"], hello["gen_s"])


def connect_and_warm(child: Child, workload: str) -> list[ServerClient]:
    """Open both connections and let caches fill: every statistic the
    workload asks for is computed once, and one update + undo builds the
    incremental maintainers, so the timed phase starts in steady state."""
    clients = []
    for conn, view in enumerate(view_names(workload)):
        client = ServerClient(port=child.port, timeout_s=60)
        client.handshake(f"analyst{conn}")
        client.open_view(view)
        for function in gen.EXPLORE_FUNCTIONS:
            for attribute in gen.MEASURES:
                client.query(view, function, attribute)
        for attribute in gen.MEASURES:
            client.update(view, {attribute: 1}, where={"attribute": "PERSON_ID", "equals": 0})
            client.undo(view, 1)
        clients.append(client)
    return clients


# -- the closed loop ----------------------------------------------------------


@dataclass
class Trace:
    """What one connection saw: per op ``(start_ns, end_ns, reply)``."""

    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    replies: list[Any] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)
    error: BaseException | None = None


def drive(
    client: ServerClient, view: str, conn: int, ops: list[list], block: int, trace: Trace,
    rec: Any, stop: threading.Event | None, leads: bool,
) -> None:
    """One analyst's closed loop.  Request ids are unique across
    connections so the traced run can tie server spans to client ops.  The
    host-speed probe runs between blocks, when no request is outstanding.  A
    connection that ``leads`` sets ``stop`` when its stream ends; one that
    follows stops at the next block boundary after that."""
    clock = time.monotonic_ns
    base = (conn + 1) * 10_000_000
    requests = []
    for op in ops:
        kind = op[0]
        if kind == "query":
            requests.append(("query", {"view": view, "function": op[1], "attribute": op[2]}))
        elif kind == "update":
            requests.append(
                (
                    "update",
                    {
                        "view": view,
                        "assignments": {op[1]: op[3]},
                        "where": {"attribute": "PERSON_ID", "equals": op[2]},
                    },
                )
            )
        elif kind == "undo":
            requests.append(("undo", {"view": view, "count": op[1]}))
        else:
            requests.append(("checkpoint", {}))
    try:
        for i, (kind, params) in enumerate(requests):
            if i % block == 0:
                if stop is not None and not leads and stop.is_set():
                    break
                trace.host.sample()
            request_id = base + i
            start = clock()
            try:
                with rec.span(f"client.{kind}", request_id):
                    reply = client.call(kind, id=request_id, **params)
            except ReproError as exc:
                reply = exc
            trace.ends.append(clock())
            trace.starts.append(start)
            trace.replies.append(reply)
        trace.host.sample()
    except BaseException as exc:  # surfaced by the caller after join
        trace.error = exc
    finally:
        if stop is not None and leads:
            stop.set()


def check_replies(ops: list[list], trace: Trace, model: ViewModel) -> tuple[int, list[str]]:
    """Replay one connection's acknowledged ops through the model; returns
    (failed ops, first few complaints)."""
    failed = 0
    complaints: list[str] = []
    for i, (op, reply) in enumerate(zip(ops, trace.replies)):
        kind = op[0]
        problem = None
        if isinstance(reply, BaseException):
            problem = f"{kind} refused: {reply}"
        elif kind == "query":
            want = model.answer(op[1], op[2])
            if not agrees(reply.get("value"), want):
                problem = f"{op[1]}({op[2]}) answered {reply.get('value')!r}, model says {want!r}"
        elif kind == "update":
            model.update(op[1], op[2], float(op[3]))
        elif kind == "undo":
            undone = model.undo(op[1])
            if reply.get("undone") != undone:
                problem = f"undo({op[1]}) undid {reply.get('undone')}, model says {undone}"
        if problem is not None:
            failed += 1
            if len(complaints) < 5:
                complaints.append(f"op {i}: {problem}")
    return failed, complaints


def lost_writes(directory: Path, views: list[str], models: list[ViewModel]) -> int:
    """Recover the durability directory and count cells that differ from the
    model of acknowledged ops."""
    dbms, _ = recover(directory)
    lost = sum(lost_cells(dbms.view(name), model) for name, model in zip(views, models))
    if dbms.durability is not None:
        dbms.durability.close()
    return lost


# -- the workload -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, rec: Any, min_beyond: int) -> dict:
    n_ops = max(CYCLE_OPS[workload] * 2, int(OPS_PER_SECOND[workload] * seconds))
    n_ops -= n_ops % CYCLE_OPS[workload]
    streams = op_streams(workload, seed, n_ops)
    digests = {f"{workload}.conn{conn}": gen.digest(ops) for conn, ops in enumerate(streams)}
    views = view_names(workload)
    root = env.scratch(workload)

    # Set-up, three times over; the last build is the one measured against.
    line = Timeline()
    child = None
    clients: list[ServerClient] = []

    def set_up(attempt: int) -> float:
        nonlocal child, clients
        child = spawn(workload, seed, traced, root, str(attempt))
        clients = connect_and_warm(child, workload)
        return child.gen_s

    gen_ms = []
    for attempt in range(3):
        if child is not None:
            for client in clients:
                client.close()
            child.kill()
        line.sample()
        # The child's own row generation is the benchmark's work, not set-up.
        gen_ms.append(line.timed("setup", lambda: set_up(attempt)) * 1e3)
    line.sample()
    assert child is not None

    before = child.report()
    # serve_explore: both connections drive.  serve_clean: connection 0
    # drives and connection 1 audits until it is done.
    drivers = [0, 1] if workload == "serve_explore" else [0]
    blocks = [CYCLE_OPS[workload] if conn in drivers else AUDIT_BLOCK for conn in range(CONNECTIONS)]
    stop = None if len(drivers) == CONNECTIONS else threading.Event()
    traces = [Trace() for _ in range(CONNECTIONS)]
    threads = [
        threading.Thread(
            target=drive,
            args=(
                clients[conn], views[conn], conn, streams[conn], blocks[conn], traces[conn],
                rec, stop, conn in drivers,
            ),
        )
        for conn in range(CONNECTIONS)
    ]
    windows = [[time.monotonic_ns(), 0]]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    windows[0][1] = time.monotonic_ns()
    for trace in traces:
        if trace.error is not None:
            child.kill()
            raise trace.error

    # serve_explore takes its checkpoints from an idle server, after the loop.
    if workload == "serve_explore":
        windows.append([time.monotonic_ns(), 0])
        for _ in range(EXPLORE_IDLE_CHECKPOINTS):
            line.sample()
            line.timed("checkpoint", clients[0].checkpoint)
        line.sample()
        windows[1][1] = time.monotonic_ns()

    spans_path = root / "server-spans.json"
    report = child.report(spans_path)
    stored = env.directory_bytes(child.directory)
    child.kill()
    for client in clients:
        client.close()

    # Correctness: every reply against the model, then the crash check.
    models = [ViewModel(gen.people_rows(seed, view, N_ROWS)) for view in views]
    failed = 0
    complaints: list[str] = []
    for conn in range(CONNECTIONS):
        # The warm-up's update + undo pairs left the data as generated.
        bad, said = check_replies(streams[conn], traces[conn], models[conn])
        failed += bad
        complaints += [f"conn {conn} {line}" for line in said]
    cut_wal_to_ledger(child.directory, child.ledger)
    lost = lost_writes(child.directory, views, models)
    if lost:
        complaints.append(f"{lost} acknowledged cell(s) missing after kill + recover")

    # Metrics.  Every op's time is taken at reference host speed: divided by
    # the probe's factor for the block of the op stream it belongs to.
    scaled = line.latencies()
    setups = [ms - own for ms, own in zip(scaled["setup"], gen_ms)]
    latency: dict[str, list[float]] = {
        "read": [], "write": [], "undo": [], "checkpoint": scaled.get("checkpoint", []),
    }
    idle_checkpoints = len(latency["checkpoint"])
    cycles: list[float] = []
    acked = 0
    for conn, (ops, trace) in enumerate(zip(streams, traces)):
        block = blocks[conn]
        done = len(trace.ends) - len(trace.ends) % block
        acked += done
        for first in range(0, done, block):
            last = first + block - 1
            factor = trace.host.factor(trace.starts[first], trace.ends[last])
            for i in range(first, last + 1):
                latency[OP_CLASS[ops[i][0]]].append(
                    (trace.ends[i] - trace.starts[i]) / 1e6 / factor
                )
            if conn in drivers:
                cycles.append((trace.ends[last] - trace.starts[first]) / 1e6 / factor)
    reads_per_cycle = len(latency["read"]) / (len(cycles) / len(drivers))
    # Checkpoints truncate the log, so bytes appended are counted by the
    # child's ledger at the write call, not read off the file's length.
    wal_bytes = report["wal_bytes"] - before["wal_bytes"]
    writes = len(latency["write"]) + len(latency["undo"])
    times, samples = summarise(setups, latency, cycles, min_beyond, READ_TAIL[workload])
    end_to_end = {
        **times,
        # From the median block, not the total: one disturbed stretch of a
        # run must not move the rate.
        "ops_per_s": len(drivers) * CYCLE_OPS[workload] / (times["cycle_p50_ms"] / 1e3),
        "rows_per_s": reads_per_cycle * N_ROWS / (times["cycle_p50_ms"] / 1e3),
        "wal_bytes_per_write": wal_bytes / writes,
        "stored_bytes_per_user_byte": stored / (CONNECTIONS * N_ROWS * len(gen.PEOPLE_COLUMNS) * 8),
        "peak_rss_mb": report["ru_maxrss_kb"] / 1024,
    }
    return {
        "correct": failed == 0 and lost == 0,
        "attempted": acked + idle_checkpoints,
        "failed": failed,
        "end_to_end": end_to_end,
        "samples": samples,
        "digests": digests,
        "complaints": complaints,
        "wall_s": wall,
        "host_speed": median([trace.host.median_factor() for trace in traces]),
        "windows": [tuple(window) for window in windows],
        "share_windows": [tuple(windows[0])],
        "writes": writes,
        "updates": len(latency["write"]),
        "wal_fsyncs": report["wal_fsyncs"] - before["wal_fsyncs"],
        "served": {
            "report": report, "before": before, "spans_path": str(spans_path), "streams": streams,
            "traces": traces, "lost": lost, "latency": latency,
        },
    }
