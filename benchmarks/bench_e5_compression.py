"""E5 — Run-length compression down columns vs across rows (paper SS2.6).

Claim: "run-length compression techniques are more likely to improve
storage efficiency when they are applied down a column rather than across
a row", because category columns (and sorted measures) form long runs that
row interleaving destroys.

Workload: a census-like data set sorted by its category attributes (the
cross-product order of SS2.1), measured as encoded bytes per layout, plus
page counts for compressed vs plain transposed storage.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentTable, report_table, speedup
from repro.relational.types import DataType
from repro.storage import compression as comp
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.workloads.census import generate_census_summary


@pytest.fixture(scope="module")
def census():
    # Cross-product order: SEX major, then RACE, AGE_GROUP, REGION — the
    # natural load order, giving category columns long runs.
    return generate_census_summary(sexes=2, races=5, age_groups=4, regions=25, seed=3)


def test_e5_column_vs_row_rle(census, benchmark):
    category_attrs = ["SEX", "RACE", "AGE_GROUP", "REGION"]
    dtypes = {
        "SEX": DataType.STR,
        "RACE": DataType.CATEGORY,
        "AGE_GROUP": DataType.CATEGORY,
        "REGION": DataType.CATEGORY,
    }
    table = ExperimentTable(
        "E5",
        f"RLE effectiveness, {len(census)} rows (category attributes)",
        ["layout", "raw_bytes", "rle_bytes", "ratio"],
    )
    total_raw = 0
    total_rle = 0
    for attr in category_attrs:
        report = comp.compare_rle(census.column(attr), dtypes[attr])
        total_raw += report.raw_bytes
        total_rle += report.compressed_bytes
    table.add_row("down columns", total_raw, total_rle, speedup(total_raw, total_rle))

    rows = [tuple(row[:4]) for row in census]
    row_stream = comp.row_serialized(rows, [dtypes[a] for a in category_attrs])
    # Across rows, values of different attributes interleave; runs die.
    row_runs = comp.rle_runs(row_stream)
    row_rle_bytes = sum(
        len(comp._encode_value(v, DataType.STR if isinstance(v, str) else DataType.INT)) + 4
        for v, _ in row_runs
    ) + 4
    table.add_row(
        "across rows", total_raw, row_rle_bytes, speedup(total_raw, row_rle_bytes)
    )
    table.note("column runs per attribute vs interleaved row stream")
    report_table(table)

    assert total_rle * 3 < row_rle_bytes  # columns compress far better

    benchmark(lambda: comp.rle_encode_bytes(census.column("AGE_GROUP"), DataType.CATEGORY))


def test_e5_compressed_pages_reduce_io(census, benchmark):
    """Fewer pages means fewer I/Os for the same column scan."""
    table = ExperimentTable(
        "E5b",
        "Transposed column pages: plain vs RLE (AGE_GROUP column)",
        ["encoding", "pages", "scan_block_reads"],
    )
    results = {}
    for compress in (None, "rle"):
        disk = SimulatedDisk(block_size=1024)
        pool = BufferPool(disk, capacity=4)
        tf = TransposedFile(pool, [DataType.CATEGORY], compress=compress)
        tf.append_rows([(value,) for value in census.column("AGE_GROUP")])
        pool.flush_all()
        pool.clear()
        disk.reset_stats()
        scanned = list(tf.scan_column(0))
        assert scanned == census.column("AGE_GROUP")
        results[compress] = (tf.column_page_count(0), disk.stats.block_reads)
        table.add_row(compress or "plain", *results[compress])
    report_table(table)
    assert results["rle"][1] < results[None][1]

    disk = SimulatedDisk(block_size=1024)
    pool = BufferPool(disk, capacity=4)
    tf = TransposedFile(pool, [DataType.CATEGORY], compress="rle")
    tf.append_rows([(value,) for value in census.column("AGE_GROUP")])
    benchmark(lambda: list(tf.scan_column(0)))
