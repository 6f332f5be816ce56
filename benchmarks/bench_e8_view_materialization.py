"""E8 — Concrete-view materialization amortizes tape cost (paper SS2.3).

Claim: "Using concrete views requires some additional tape storage but
avoids the generation of the view from tape storage each time it is used.
Thus, the cost of materializing the view is amortized over its period of
use."

Workload: an analysis that uses its view u times (u column scans).  The
virtual strategy re-derives the view from tape every use; the concrete
strategy pays the tape once plus u disk column scans.  Costs are model
milliseconds from the tape (mount + stream) and disk (seek + transfer)
cost models.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentTable, report_table, speedup
from repro.storage.disk import DiskCostModel, SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.views.materialize import RawDatabase, SourceNode, ViewDefinition, materialize
from repro.workloads.census import generate_microdata

USES = [1, 2, 5, 10, 50]


@pytest.fixture(scope="module")
def setup():
    raw = RawDatabase()
    micro = generate_microdata(20_000, seed=31, bad_value_rate=0.0)
    raw.store(micro)
    return raw, micro


def tape_cost_of_one_derivation(raw):
    before = raw.tape.stats.snapshot()
    raw.tape.unmount()  # each use is a fresh analysis step: remount
    _, report = materialize(ViewDefinition("v", SourceNode("census_micro")), raw)
    return report.tape_time_ms


def disk_cost_of_one_use(micro):
    disk = SimulatedDisk(block_size=4096, cost_model=DiskCostModel())
    pool = BufferPool(disk, capacity=8)
    tf = TransposedFile(pool, micro.schema.types)
    tf.append_rows(list(micro))
    pool.flush_all()
    pool.clear()
    disk.reset_stats()
    list(tf.scan_column(micro.schema.index_of("INCOME")))
    return disk.elapsed_ms(), tf


def test_e8_break_even(setup, benchmark):
    raw, micro = setup
    tape_per_use = tape_cost_of_one_derivation(raw)
    disk_per_use, tf = disk_cost_of_one_use(micro)

    table = ExperimentTable(
        "E8",
        "Concrete view vs re-deriving from tape (model ms, cumulative)",
        ["uses", "virtual_from_tape", "concrete_view", "concrete_advantage"],
    )
    break_even = None
    for uses in USES:
        virtual = tape_per_use * uses
        concrete = tape_per_use + disk_per_use * uses
        if break_even is None and concrete < virtual:
            break_even = uses
        table.add_row(uses, round(virtual), round(concrete), speedup(virtual, concrete))
    table.note(
        f"tape per use: {tape_per_use:.0f}ms (mount-dominated); disk column "
        f"scan: {disk_per_use:.0f}ms; break-even at u={break_even}"
    )
    report_table(table)

    # The mount cost makes the concrete view win from the second use on.
    assert break_even is not None and break_even <= 2
    assert tape_per_use > 50 * disk_per_use

    benchmark(lambda: list(tf.scan_column(5)))


def test_e8_derivation_detection_avoids_tape(setup, benchmark):
    """SS2.3's duplicate check measured: the second analyst's identical

    request costs zero tape blocks."""
    from repro.core.dbms import StatisticalDBMS

    raw, micro = setup
    dbms = StatisticalDBMS()
    dbms.load_raw(micro.copy("micro2"))
    first = dbms.create_view(ViewDefinition("a1", SourceNode("micro2")))
    streamed_after_first = dbms.raw.tape.stats.blocks_streamed
    second = dbms.create_view(ViewDefinition("a2", SourceNode("micro2")))
    streamed_after_second = dbms.raw.tape.stats.blocks_streamed

    table = ExperimentTable(
        "E8b",
        "Duplicate view request (tape blocks streamed)",
        ["request", "tape_blocks", "served_from"],
    )
    table.add_row("first analyst", streamed_after_first, "tape")
    table.add_row(
        "second analyst (identical)",
        streamed_after_second - streamed_after_first,
        "existing view",
    )
    report_table(table)

    assert second.reused is not None
    assert streamed_after_second == streamed_after_first

    benchmark(lambda: dbms.registry.find_match(ViewDefinition("probe", SourceNode("micro2"))))
