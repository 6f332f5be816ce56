"""E17 — Vectorized columnar execution and batched delta propagation.

Claims reproduced:

* executing a q-of-m-column query chunk-at-a-time straight off a
  transposed file's page chains beats the row engine (which reconstructs
  full m-column tuples and evaluates bound expressions row by row) by
  >= 3x on a 100k-row, 2-of-10-column scan; and
* coalescing a burst of deltas into one propagation sweep (one entry scan,
  one ``apply_batch`` per live maintainer) beats per-delta propagation by
  >= 2x on a 1k-delta burst.

Alongside the printed tables the run persists ``BENCH_e17.json`` at the
repo root so future PRs can track the perf trajectory machine-readably.
``E17_ROWS``, ``E17_TRACER_ROWS`` and ``E17_ROUNDS`` size a smoke run.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.bench.harness import ExperimentTable, report_table, speedup, write_json
from repro.core.session import AnalystSession
from repro.incremental.differencing import Delta
from repro.metadata.management import ManagementDatabase
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relational.expressions import col
from repro.relational.operators import Project, Select
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema, measure
from repro.relational.types import DataType
from repro.relational.vectorized import VecProject, VecScan, VecSelect
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.views.updates import update_rows
from repro.views.view import ConcreteView
from repro.workloads.census import generate_microdata

N_ROWS = int(os.environ.get("E17_ROWS", "100000"))
#: The 2% disabled-tracer gate times a longer scan than the speedup test:
#: at 100k rows a scan is ~40 ms and scheduler noise alone reaches the gate.
TRACER_ROWS = int(os.environ.get("E17_TRACER_ROWS", "300000"))
TRACER_ROUNDS = int(os.environ.get("E17_ROUNDS", "9"))
N_COLS = 10
BLOCK = 4096
N_DELTAS = 1_000
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_e17.json"

#: Collected across tests in this module, flushed by the last one.
_METRICS: dict[str, float] = {}
_TABLES: list[ExperimentTable] = []
_SPANS: dict[str, object] = {}


def _best_of(repeats, operation):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def build_transposed(tracer=None, rows=N_ROWS):
    types = [DataType.FLOAT] * N_COLS
    disk = SimulatedDisk(block_size=BLOCK)
    pool = BufferPool(disk, capacity=64, tracer=tracer)
    storage = TransposedFile(pool, types, tracer=tracer)
    storage.append_rows(
        [
            tuple(float((i * 7 + c * 13) % 1000) for c in range(N_COLS))
            for i in range(rows)
        ]
    )
    pool.flush_all()
    schema = Schema([measure(f"C{c}") for c in range(N_COLS)])
    return StoredRelation("e17", schema, storage)


def test_e17_vectorized_scan_speedup():
    stored = build_transposed()
    predicate = col("C1") > 250.0
    wanted = ["C1", "C7"]

    def run_rows():
        return list(Project(Select(stored, predicate), wanted))

    def run_vectorized():
        return VecProject(
            VecSelect(VecScan(stored, columns=wanted), predicate), wanted
        ).rows()

    assert run_rows() == run_vectorized()  # same rows before timing

    # The engines are timed turn about and the gate reads the median of the
    # per-round ratios: a host whose speed shifts for seconds at a time moves
    # a ratio of two separately taken minima, not the ratio within a round.
    rounds = [
        (_best_of(2, run_rows), _best_of(2, run_vectorized)) for _ in range(5)
    ]
    t_rows = min(rows for rows, _ in rounds)
    t_vec = min(vec for _, vec in rounds)
    gain = statistics.median(speedup(rows, vec) for rows, vec in rounds)

    table = ExperimentTable(
        "E17",
        f"2-of-{N_COLS}-column filtered scan, {N_ROWS} rows (transposed file)",
        ["engine", "time_s", "speedup"],
    )
    table.add_row("row engine (tuple reconstruction)", t_rows, 1.0)
    table.add_row("vectorized (column chunks)", t_vec, gain)
    table.note(
        "vectorized path reads only the 2 queried columns' page chains and "
        "compiles the predicate once per pipeline"
    )
    report_table(table)
    _TABLES.append(table)
    _METRICS["scan_row_engine_s"] = t_rows
    _METRICS["scan_vectorized_s"] = t_vec
    _METRICS["scan_speedup"] = gain
    assert gain >= 3.0, f"vectorized scan only {gain:.2f}x faster"


def test_e17_disabled_tracer_overhead():
    """Instrumentation acceptance: with tracing disabled the hooks cost
    under 2% on the vectorized scan; an enabled tracer records the full
    page/chunk breakdown (persisted as the ``spans`` of BENCH_e17.json)."""
    predicate = col("C1") > 250.0
    wanted = ["C1", "C7"]

    def scan(stored):
        return VecProject(
            VecSelect(VecScan(stored, columns=wanted), predicate), wanted
        ).rows()

    plain = build_transposed(rows=TRACER_ROWS)  # default: the disabled path
    injected = build_transposed(tracer=NULL_TRACER, rows=TRACER_ROWS)
    tracer = Tracer()
    traced = build_transposed(tracer=tracer, rows=TRACER_ROWS)

    # Pair the timings round by round and compare medians of the paired
    # ratios: machine drift moves both halves of a back-to-back pair
    # together, so the ratio isolates the hooks' cost from the noise that
    # dominates independently-timed minima.
    rounds, repeats = TRACER_ROUNDS, 3
    for stored in (plain, injected, traced):
        scan(stored)  # warm page memos and allocator before timing
    tracer.reset()  # drop the counters charged while loading/warming
    span = tracer.span("e17.vectorized_scan", rows=TRACER_ROWS, columns=len(wanted))
    null_ratios, enabled_ratios = [], []
    t_plain = t_null = t_enabled = float("inf")
    for _ in range(rounds):
        # Best-of-k minima shed one-sided scheduler spikes; bracketing the
        # round with the baseline cancels linear drift.
        before = _best_of(repeats, lambda: scan(plain))
        round_null = _best_of(repeats, lambda: scan(injected))
        with span:
            round_enabled = _best_of(repeats, lambda: scan(traced))
        after = _best_of(repeats, lambda: scan(plain))
        baseline = (before + after) / 2
        null_ratios.append(round_null / baseline)
        enabled_ratios.append(round_enabled / baseline)
        t_plain = min(t_plain, before, after)
        t_null = min(t_null, round_null)
        t_enabled = min(t_enabled, round_enabled)

    overhead = statistics.median(null_ratios) - 1.0
    enabled_overhead = statistics.median(enabled_ratios) - 1.0
    table = ExperimentTable(
        "E17c",
        f"Tracer overhead on the vectorized scan, {TRACER_ROWS} rows "
        f"({rounds} rounds, best of {repeats})",
        ["tracer", "time_s", "overhead_vs_disabled"],
    )
    table.add_row("disabled (default NULL_TRACER)", t_plain, "baseline")
    table.add_row("disabled (injected NULL_TRACER)", t_null, f"{overhead:+.2%}")
    table.add_row("enabled Tracer", t_enabled, f"{enabled_overhead:+.2%}")
    table.note(
        "overheads are medians of per-round paired ratios; disabled hooks "
        "are attribute lookups + empty no-op calls, with counter-name "
        "f-strings guarded behind tracer.enabled"
    )
    report_table(table)
    _TABLES.append(table)
    _METRICS["tracer_disabled_overhead"] = overhead
    _METRICS["tracer_enabled_overhead"] = enabled_overhead

    span = tracer.find("e17.vectorized_scan")
    assert span.total("transposed.chunks") > 0
    assert span.total("transposed.pages_read") > 0
    assert span.total("pool.hit") + span.total("pool.miss") > 0
    _SPANS.update(tracer.to_dict())

    assert overhead < 0.02, f"disabled tracer costs {overhead:.2%} on the scan"


def build_session():
    data = generate_microdata(5_000, seed=17, bad_value_rate=0.02)
    view = ConcreteView("e17", data.copy("e17"))
    session = AnalystSession(ManagementDatabase(), view, analyst="e17")
    for fn in ["count", "sum", "mean", "std", "var", "min", "max", "median"]:
        session.compute(fn, "INCOME")
    return session


def make_cell_updates() -> list[tuple[int, float]]:
    return [(i, 50_000.0 + (i * 37) % 5_000) for i in range(N_DELTAS)]


def test_e17_batched_propagation_speedup():
    per_delta_session = build_session()
    batched_session = build_session()

    # Both strategies write the same cells through the logged-update layer;
    # they differ only in how the resulting deltas reach the maintainers.
    start = time.perf_counter()
    for row, value in make_cell_updates():
        per_delta_session.update_cells("INCOME", [(row, value)])
    t_per_delta = time.perf_counter() - start

    start = time.perf_counter()
    deltas: list[Delta] = []
    rows: list[int] = []
    for row, value in make_cell_updates():
        deltas.append(
            update_rows(batched_session.view, "INCOME", [(row, value)])
        )
        rows.append(row)
    batched_session.propagator.propagate_batch("INCOME", deltas, rows)
    t_batched = time.perf_counter() - start

    assert (
        per_delta_session.view.column("INCOME")
        == batched_session.view.column("INCOME")
    )

    gain = speedup(t_per_delta, t_batched)

    table = ExperimentTable(
        "E17b",
        f"Propagating a {N_DELTAS}-delta burst to INCOME (8 cached functions)",
        ["strategy", "time_s", "speedup"],
    )
    table.add_row("per-delta propagate()", t_per_delta, 1.0)
    table.add_row("coalesced propagate_batch()", t_batched, gain)
    table.note(
        "the batch sweeps the attribute's summary entries once and each "
        "maintainer sees one apply_batch call for the whole burst"
    )
    report_table(table)
    _TABLES.append(table)
    _METRICS["propagation_per_delta_s"] = t_per_delta
    _METRICS["propagation_batched_s"] = t_batched
    _METRICS["propagation_speedup"] = gain

    write_json(JSON_PATH, _TABLES, _METRICS, spans=_SPANS or None)
    assert gain >= 2.0, f"batched propagation only {gain:.2f}x faster"
