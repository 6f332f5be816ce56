"""E4 — Transposed files vs row store (paper SS2.6).

Claims reproduced:

* a statistical operation touching q of m columns reads ~q/m of the pages
  under a transposed layout, but every page under a row store;
* the "informational" query ("find the average salary and population of
  all white males in the 21-40 age group" — i.e. whole-row access) is
  where transposed files lose: one page access *per column* instead of one
  total.

Workload: an m=8-column numeric data set; scans of q columns for q in
{1, 2, 4, 8} and point row lookups, measured in simulated block reads.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentTable, report_table, speedup
from repro.relational.types import DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.transposed import TransposedFile

N_ROWS = 20_000
N_COLS = 8
BLOCK = 4096


def build_files():
    types = [DataType.FLOAT] * N_COLS
    heap_disk = SimulatedDisk(block_size=BLOCK)
    heap_pool = BufferPool(heap_disk, capacity=8)
    heap = HeapFile(heap_pool, types)
    tf_disk = SimulatedDisk(block_size=BLOCK)
    tf_pool = BufferPool(tf_disk, capacity=8)
    transposed = TransposedFile(tf_pool, types)
    rows = [
        tuple(float(i * N_COLS + c) for c in range(N_COLS)) for i in range(N_ROWS)
    ]
    for row in rows:
        heap.insert(row)
    transposed.append_rows(rows)
    heap_pool.flush_all()
    tf_pool.flush_all()
    return (heap_disk, heap_pool, heap), (tf_disk, tf_pool, transposed)


@pytest.fixture(scope="module")
def files():
    return build_files()


def reads_for(disk, pool, operation):
    pool.clear()
    disk.reset_stats()
    operation()
    return disk.stats.block_reads


def test_e4_column_scans(files, benchmark):
    (heap_disk, heap_pool, heap), (tf_disk, tf_pool, transposed) = files
    table = ExperimentTable(
        "E4",
        f"Statistical scans: q of {N_COLS} columns, {N_ROWS} rows (block reads)",
        ["q_columns", "row_store", "transposed", "transposed_advantage"],
    )
    for q in (1, 2, 4, 8):
        columns = list(range(q))
        heap_reads = reads_for(
            heap_disk,
            heap_pool,
            lambda: [None for _ in heap.scan()],
        )
        tf_reads = reads_for(
            tf_disk,
            tf_pool,
            lambda: [None for _ in transposed.scan_columns(columns)],
        )
        table.add_row(q, heap_reads, tf_reads, speedup(heap_reads, tf_reads))
        if q == 1:
            assert tf_reads * (N_COLS - 1) < heap_reads * N_COLS
        if q == N_COLS:
            # Full-width scans are roughly a wash.
            assert tf_reads <= heap_reads * 1.6
    table.note("row store reads every page regardless of q (SS2.6)")
    report_table(table)

    benchmark(lambda: max(transposed.scan_column(3)))


def test_e4_informational_queries(files, benchmark):
    (heap_disk, heap_pool, heap), (tf_disk, tf_pool, transposed) = files
    from repro.storage.records import RID

    # One whole-row read: heap needs 1 page; transposed needs N_COLS pages.
    heap_reads = reads_for(heap_disk, heap_pool, lambda: heap.get(RID(heap.page_nos[37], 0)))
    tf_reads = reads_for(tf_disk, tf_pool, lambda: transposed.get_row(12_345))

    table = ExperimentTable(
        "E4b",
        "Informational (whole-row) query cost (block reads)",
        ["layout", "block_reads"],
    )
    table.add_row("row store", heap_reads)
    table.add_row("transposed", tf_reads)
    table.note("the transposed file's known weakness (SS2.6)")
    report_table(table)

    assert heap_reads == 1
    assert tf_reads == N_COLS

    benchmark(lambda: transposed.get_row(12_345))
