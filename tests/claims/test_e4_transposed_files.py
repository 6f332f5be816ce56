"""E4: a transposed file reads ~q/m of the pages a row store reads (§2.6).

A statistical operation touching q of m columns reads a fraction of the
pages under a transposed layout, while a row store reads every page.  The
"informational" whole-row query is where transposed files lose: one page
access per column instead of one.  Costs are simulated block reads over an
m = 8 column, 20 000-row data set.
"""

import pytest

from repro.relational.types import DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool
from repro.storage.records import RID
from repro.storage.transposed import TransposedFile

N_ROWS = 20_000
N_COLS = 8


@pytest.fixture(scope="module")
def files():
    types = [DataType.FLOAT] * N_COLS
    heap_pool = BufferPool(SimulatedDisk(block_size=4096), capacity=8)
    heap = HeapFile(heap_pool, types)
    tf_pool = BufferPool(SimulatedDisk(block_size=4096), capacity=8)
    transposed = TransposedFile(tf_pool, types)
    rows = [tuple(float(i * N_COLS + c) for c in range(N_COLS)) for i in range(N_ROWS)]
    for row in rows:
        heap.insert(row)
    transposed.append_rows(rows)
    heap_pool.flush_all()
    tf_pool.flush_all()
    return heap, transposed


def block_reads(structure, operation):
    pool = structure.pool
    pool.clear()
    pool.disk.reset_stats()
    operation()
    return pool.disk.stats.block_reads


def test_a_column_scan_reads_its_share_of_the_pages(files):
    heap, transposed = files
    heap_reads = block_reads(heap, lambda: list(heap.scan()))
    reads = {
        q: block_reads(transposed, lambda q=q: list(transposed.scan_columns(range(q))))
        for q in (1, 2, 4, 8)
    }
    for q, q_reads in reads.items():
        assert q_reads * N_COLS == q * reads[N_COLS]  # exactly q/m of the file
    assert reads[1] * (N_COLS - 1) < heap_reads * N_COLS
    assert reads[N_COLS] <= heap_reads * 1.6  # a full-width scan is about a wash


def test_a_whole_row_costs_one_page_per_column(files):
    heap, transposed = files
    assert block_reads(heap, lambda: heap.get(RID(heap.page_nos[37], 0))) == 1
    assert block_reads(transposed, lambda: transposed.get_row(12_345)) == N_COLS
