"""``estate_recover``: a workspace of managed views, recovered as a fleet.

In-process.  Set-up builds ``VIEWS`` managed views of ``ROWS`` people rows,
each with 14 cached summary entries, a checkpoint, and then ``SETUP_OPS``
logged cleaning ops (an ``undo(2)`` every tenth) left in the WAL, so that
recovery has a checkpoint to load *and* a log to replay through the real
propagator.  Timed: ``SWEEPS`` x ``Workspace(root).recover_all()`` (recovery
is idempotent, it does not truncate the log), then — on the opened views —
rounds of logged cleaning ops followed by one checkpoint per view, then
``find`` calls against the manifest index.

Checked: after the first sweep and after the last checkpoint every view's
rows equal the model of the logged ops, and every non-stale summary entry
equals recomputation from those rows.
"""

from __future__ import annotations

import gc
import resource
import time
from pathlib import Path
from typing import Any

import env
import gen
from fixtures import FsyncLedger, people_relation
from metrics import summarise
from probe import Timeline
from model import ViewModel, agrees, lost_cells

env.require_repro()

from repro.relational.types import is_na  # noqa: E402
from repro.views.materialize import SourceNode, ViewDefinition  # noqa: E402
from repro.workspace.space import Workspace  # noqa: E402

VIEWS = 8
ROWS = 3_000
SETUP_OPS = 40
#: Timed sizes per second of ``--seconds`` on this host.
SWEEPS_PER_SECOND = 1.6
ROUNDS_PER_SECOND = 0.6
ROUND_OPS = 20
#: A read is a batch of FIND_BATCH finds (one find is 5 us, which is timer and
#: allocator jitter more than it is work).
FIND_BATCH = 10
FIND_BATCHES_PER_SECOND = 60
BATCHES_PER_SAMPLE = 10
SUMMARY_KEYS = (
    [(function, "INCOME") for function in gen.EXPLORE_FUNCTIONS]
    + [("mean", "AGE"), ("median", "AGE"), ("max", "AGE")]
    + [("mean", "HOURS_WORKED"), ("sum", "HOURS_WORKED")]
)


def apply_ops(session: Any, model: ViewModel, ops: list[list], line: Timeline | None = None) -> None:
    """Run logged cleaning ops on a session and on its model alike."""
    for op in ops:
        if op[0] == "update":
            work = lambda: session.update_cells(op[1], [(op[2], op[3])])  # noqa: E731
            kind = "write"
        else:
            count = min(op[1], len(session.view.history))
            work = lambda: session.undo(count)  # noqa: E731
            kind = "undo"
        if line is not None:
            line.timed(kind, work)
        else:
            work()
        if kind == "write":
            model.update(op[1], op[2], float(op[3]))
        else:
            model.undo(count)


def build(
    root: Path, rows_by_view: list[list[tuple]], seed: int, tracer: Any, flush: FsyncLedger
) -> list[ViewModel]:
    """One estate: create, cache summaries, checkpoint, then log ops."""
    workspace = Workspace(root, faults=flush, tracer=tracer)
    definition = ViewDefinition("people_view", SourceNode("people"))
    models = []
    for i, rows in enumerate(rows_by_view):
        managed = workspace.create(
            definition, people_relation("people", rows),
            {"wave": i, "edition": "1980" if i % 2 else "1970"}, analyst="bench",
        )
        session = managed.session("bench")
        for function, attribute in SUMMARY_KEYS:
            session.compute(function, attribute)
        managed.checkpoint()
        model = ViewModel(rows)
        apply_ops(session, model, gen.estate_updates(seed, i, SETUP_OPS, ROWS, "setup"))
        managed.dbms.durability.close()  # release the handle; the log stays as written
        models.append(model)
    return models


def check_views(views: list[Any], models: dict[int, ViewModel]) -> tuple[int, list[str]]:
    """Rows against the model; non-stale summary entries against the rows."""
    failed = 0
    complaints: list[str] = []
    for managed in views:
        wave = managed.workspace.index.get(managed.space_id).parameters["wave"]
        model = models[wave]
        lost = lost_cells(managed.view, model)
        if lost:
            failed += 1
            complaints.append(f"view {wave}: {lost} cell(s) differ from the logged ops")
        for entry in managed.view.summary.entries():
            if entry.stale or len(entry.key.attributes) != 1:
                continue
            want = model.answer(entry.key.function, entry.key.attributes[0])
            got = entry.result
            if is_na(got) or not agrees(got, want, entry.epsilon):
                failed += 1
                if len(complaints) < 5:
                    complaints.append(
                        f"view {wave}: cached {entry.key.function}({entry.key.attributes[0]}) "
                        f"= {got!r}, recomputation says {want!r}"
                    )
    return failed, complaints


def run(workload: str, seed: int, seconds: float, traced: bool, rec: Any, min_beyond: int) -> dict:
    sweeps = max(2, round(SWEEPS_PER_SECOND * seconds))
    rounds = max(1, round(ROUNDS_PER_SECOND * seconds))
    n_finds = FIND_BATCH * max(20, round(FIND_BATCHES_PER_SECOND * seconds))
    rows_by_view = [gen.people_rows(seed, f"estate{i}", ROWS) for i in range(VIEWS)]
    cleaning = [
        [gen.estate_updates(seed, i, ROUND_OPS, ROWS, f"round{r}") for i in range(VIEWS)]
        for r in range(rounds)
    ]
    finds = gen.estate_finds(seed, n_finds, VIEWS)
    digests = {
        "estate_recover.setup": gen.digest(
            [gen.estate_updates(seed, i, SETUP_OPS, ROWS, "setup") for i in range(VIEWS)]
        ),
        "estate_recover.cleaning": gen.digest(cleaning),
        "estate_recover.finds": gen.digest(finds),
    }
    tracer = None
    if traced:
        from repro.concurrency import ConcurrentTracer  # recover_all is threaded

        tracer = ConcurrentTracer()
    scratch = env.scratch(workload)
    flush = FsyncLedger()

    line = Timeline()
    root = scratch
    models: dict[int, ViewModel] = {}
    for attempt in range(3):
        root = scratch / f"estate-{attempt}"
        line.sample()
        built = line.timed("setup", lambda: build(root, rows_by_view, seed, tracer, flush))
        models = dict(enumerate(built))

    failed = 0
    complaints: list[str] = []
    windows = []
    # What the benchmark itself holds (rows, models) is not the program's
    # garbage: keep it out of the collector's way while timing.
    gc.collect()
    gc.freeze()
    for sweep in range(sweeps):
        line.sample()
        report = line.timed(
            "sweep", lambda: Workspace(root, faults=flush, tracer=tracer).recover_all()
        )
        windows.append(line.ops[-1][1:])
        if len(report.succeeded) != VIEWS or report.quarantined or report.degraded:
            failed += 1
            complaints.append(f"sweep {sweep}: {report.summary()}")
        if sweep == 0:
            check = Workspace(root)
            views, _ = check.open_many(check.ids())
            bad, said = check_views(views, models)
            failed += bad
            complaints += said
            for managed in views:
                managed.dbms.durability.close()

    workspace = Workspace(root, faults=flush, tracer=tracer)
    views, _ = workspace.open_many(workspace.ids())
    for managed in views:
        flush.adopt(managed.dbms.durability)
    by_wave = {workspace.index.get(m.space_id).parameters["wave"]: m for m in views}
    wal_bytes = 0
    fsyncs_before = flush.wal_fsyncs
    window_start = time.monotonic_ns()
    for batch in cleaning:
        for wave, managed in sorted(by_wave.items()):
            wal = managed.directory / "log.wal"
            before = wal.stat().st_size
            line.sample()
            apply_ops(managed.session("bench"), models[wave], batch[wave], line)
            wal_bytes += wal.stat().st_size - before
        for wave, managed in sorted(by_wave.items()):
            line.sample()
            line.timed("checkpoint", lambda: workspace.checkpoint(managed.space_id))
    def find_batch(queries: list[dict]) -> None:
        for query in queries:
            workspace.find(**query)

    for batch in range(0, n_finds, FIND_BATCH):
        if batch % (FIND_BATCH * BATCHES_PER_SAMPLE) == 0:
            line.sample()
        line.timed("read", lambda: find_batch(finds[batch : batch + FIND_BATCH]))
    line.sample()
    windows.append((window_start, time.monotonic_ns()))

    stored = env.directory_bytes(root)
    bad, said = check_views(views, models)
    failed += bad
    complaints += said
    for managed in views:
        managed.dbms.durability.close()

    latency = line.latencies()
    setups = latency.pop("setup")
    sweep_ms = latency.pop("sweep")
    timed = sum(sum(samples) for samples in latency.values()) / 1e3 + sum(sweep_ms) / 1e3
    ops = sweeps * VIEWS + sum(len(samples) for samples in latency.values()) + n_finds - n_finds // FIND_BATCH
    writes = len(latency["write"]) + len(latency["undo"])
    times, samples = summarise(setups, latency, sweep_ms, min_beyond)
    end_to_end = {
        **times,
        "ops_per_s": ops / timed,
        "rows_per_s": VIEWS * ROWS / (times["cycle_p50_ms"] / 1e3),
        "wal_bytes_per_write": wal_bytes / writes,
        "stored_bytes_per_user_byte": stored / (VIEWS * ROWS * len(gen.PEOPLE_COLUMNS) * 8),
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
        "wall_s": timed,
        "windows": windows,
        "writes": writes,
        "updates": len(latency["write"]),
        "wal_fsyncs": flush.wal_fsyncs - fsyncs_before,
        "host_speed": line.median_factor(),
        "estate": {"tracer": tracer, "sweeps": sweeps, "views": VIEWS},
    }
