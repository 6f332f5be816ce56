"""E5: run-length compression works down columns, not across rows (§2.6).

"Run-length compression techniques are more likely to improve storage
efficiency when they are applied down a column rather than across a row":
category columns in the cross-product load order of §2.1 form long runs
that row interleaving destroys.  Fewer pages then mean fewer reads for the
same column scan.
"""

import pytest

from repro.relational.types import DataType
from repro.storage import compression as comp
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.workloads.census import generate_census_summary

CATEGORY_TYPES = {
    "SEX": DataType.STR,
    "RACE": DataType.CATEGORY,
    "AGE_GROUP": DataType.CATEGORY,
    "REGION": DataType.CATEGORY,
}


@pytest.fixture(scope="module")
def census():
    # SEX major, then RACE, AGE_GROUP, REGION: the natural load order.
    return generate_census_summary(sexes=2, races=5, age_groups=4, regions=25, seed=3)


def test_columns_compress_far_better_than_rows(census):
    column_bytes = sum(
        comp.compare_rle(census.column(attr), dtype).compressed_bytes
        for attr, dtype in CATEGORY_TYPES.items()
    )
    rows = [tuple(row[:4]) for row in census]
    row_stream = comp.row_serialized(rows, list(CATEGORY_TYPES.values()))
    row_bytes = 4 + sum(
        len(comp._encode_value(v, DataType.STR if isinstance(v, str) else DataType.INT)) + 4
        for v, _ in comp.rle_runs(row_stream)
    )
    assert column_bytes * 3 < row_bytes


def test_a_compressed_column_scans_in_fewer_reads(census):
    ages = census.column("AGE_GROUP")
    reads = {}
    for compress in (None, "rle"):
        disk = SimulatedDisk(block_size=1024)
        pool = BufferPool(disk, capacity=4)
        column = TransposedFile(pool, [DataType.CATEGORY], compress=compress)
        column.append_rows([(value,) for value in ages])
        pool.flush_all()
        pool.clear()
        disk.reset_stats()
        assert list(column.scan_column(0)) == ages
        reads[compress] = disk.stats.block_reads
    assert reads["rle"] < reads[None]
