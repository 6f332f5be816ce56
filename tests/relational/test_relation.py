"""Tests for Relation and StoredRelation."""

import math

import pytest

from repro.core.errors import SchemaError, StorageError
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import NA, DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile


def schema():
    return Schema([category("k", DataType.INT), measure("v", DataType.FLOAT)])


class TestRelation:
    def test_construction_and_len(self):
        rel = Relation("r", schema(), [(1, 1.0), (2, 2.0)])
        assert len(rel) == 2

    def test_validation(self):
        with pytest.raises(SchemaError):
            Relation("r", schema(), [("bad", 1.0)], validate=True)

    @pytest.mark.parametrize("ragged", [(2,), (2, 2.0, "extra")])
    def test_ragged_row_refused_even_unvalidated(self, ragged):
        with pytest.raises(SchemaError):
            Relation("r", schema(), [(1, 1.0), ragged, (3, 3.0)], validate=False)

    def test_uniformly_wrong_width_refused(self):
        with pytest.raises(SchemaError):
            Relation("r", schema(), [(1,), (2,)])

    def test_from_columns(self):
        rel = Relation.from_columns("r", schema(), [[1, 2], [1.0, NA]])
        assert list(rel) == [(1, 1.0), (2, NA)]
        with pytest.raises(SchemaError):
            Relation.from_columns("r", schema(), [[1, 2], [1.0]])
        with pytest.raises(SchemaError):
            Relation.from_columns("r", schema(), [[1, 2]])

    def test_set_value_returns_old(self):
        rel = Relation("r", schema(), [(1, 1.0)])
        old = rel.set_value(0, "v", 9.0)
        assert old == 1.0
        assert rel.row(0) == (1, 9.0)

    def test_column(self):
        rel = Relation("r", schema(), [(1, 1.0), (2, NA)])
        assert rel.column("v") == [1.0, NA]

    def test_column_array_maps_na_to_nan(self):
        rel = Relation("r", schema(), [(1, 1.0), (2, NA)])
        arr = rel.column_array("v")
        assert arr[0] == 1.0 and math.isnan(arr[1])

    def test_column_array_rejects_strings(self):
        s = Schema([measure("s", DataType.STR)])
        rel = Relation("r", s, [("x",)])
        with pytest.raises(SchemaError):
            rel.column_array("s")

    def test_copy_independent(self):
        rel = Relation("r", schema(), [(1, 1.0)])
        dup = rel.copy("r2")
        dup.set_value(0, "v", 5.0)
        assert rel.row(0) == (1, 1.0)

    def test_pretty_renders(self):
        rel = Relation("r", schema(), [(1, 1.0), (2, NA)])
        text = rel.pretty()
        assert "k" in text and "NA" in text

    def test_pretty_truncates(self):
        rel = Relation("r", schema(), [(i, float(i)) for i in range(20)])
        assert "more rows" in rel.pretty(limit=5)


class TestStoredRelation:
    def make(self, rows):
        disk = SimulatedDisk(block_size=256)
        pool = BufferPool(disk, capacity=32)
        tf = TransposedFile(pool, schema().types)
        rel = StoredRelation.load("r", schema(), rows, tf)
        return disk, pool, rel

    def test_iter_matches_rows(self):
        rows = [(i, float(i)) for i in range(100)]
        _, _, rel = self.make(rows)
        assert list(rel) == rows
        assert len(rel) == 100

    def test_column_accounted(self):
        disk, pool, rel = self.make([(i, float(i)) for i in range(500)])
        pool.clear()
        disk.reset_stats()
        values = rel.column("v")
        assert values == [float(i) for i in range(500)]
        assert disk.stats.block_reads > 0
        # Only column v's pages, not k's.
        assert disk.stats.block_reads == rel.storage.column_page_count(1)

    def test_columns_zip(self):
        _, _, rel = self.make([(i, float(i)) for i in range(10)])
        assert list(rel.columns(["v", "k"])) == [(float(i), i) for i in range(10)]

    def test_get_row(self):
        _, _, rel = self.make([(i, float(i)) for i in range(10)])
        assert rel.get_row(7) == (7, 7.0)

    def test_set_value(self):
        _, _, rel = self.make([(1, 1.0)])
        old = rel.set_value(0, "v", 2.0)
        assert old == 1.0
        assert rel.column("v") == [2.0]

    def test_materialize(self):
        _, _, rel = self.make([(1, 1.0)])
        mem = rel.materialize()
        assert isinstance(mem, Relation)
        assert list(mem) == [(1, 1.0)]

    def test_type_mismatch_rejected(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk)
        tf = TransposedFile(pool, [DataType.STR])
        with pytest.raises(StorageError, match="match"):
            StoredRelation("r", schema(), tf)
