"""The vectorized execution engine: chunks, kernels, operators, planner hook."""

import numpy as np
import pytest

from repro.core.errors import ExpressionError, QueryError, StorageError
from repro.relational.aggregates import AggregateSpec, GroupBy
from repro.relational.catalog import Catalog
from repro.relational.expressions import col, func
from repro.relational.operators import Project, Select
from repro.relational.planner import plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.relational.vectorized import (
    ColumnChunk,
    ColumnVector,
    VecGroupBy,
    VecProject,
    VecScan,
    VecSelect,
    VectorOperator,
    as_chunk_pipeline,
    chunks_from_rows,
    supports_column_chunks,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile


def sample_schema():
    return Schema(
        [category("G", DataType.STR), measure("X"), measure("Y"), measure("W")]
    )


def sample_rows():
    return [
        ("a", 1.0, 10.0, 1.0),
        ("b", 2.0, NA, 2.0),
        ("a", NA, 30.0, 1.0),
        ("b", 4.0, 40.0, 0.5),
        ("a", 5.0, 50.0, 2.0),
        ("c", -1.0, 0.0, 1.0),
    ]


def sample_relation():
    return Relation("t", sample_schema(), sample_rows())


class TestColumnVector:
    def test_from_values_derives_mask(self):
        vec = ColumnVector.from_values([1.0, NA, float("nan"), 2.0])
        assert vec.mask == [False, True, True, False]

    def test_no_na_means_no_mask(self):
        assert ColumnVector.from_values([1.0, 2.0]).mask is None

    def test_take_compacts_mask(self):
        vec = ColumnVector.from_values([1.0, NA, 3.0])
        taken = vec.take([0, 2])
        assert taken.to_list() == [1.0, 3.0]
        assert taken.mask is None


class TestTypedColumnVector:
    def typed(self):
        return ColumnVector(np.array([1.5, 0.0, -2.0, 0.0]), np.array([False, True, False, True]))

    def test_list_view_puts_na_at_masked_slots(self):
        vec = self.typed()
        assert vec.typed and vec.kind == "float64"
        assert vec.to_list() == [1.5, NA, -2.0, NA]
        assert list(vec) == vec.to_list()
        assert [type(v) for v in vec] == [float, type(NA), float, type(NA)]
        assert vec.item(1) is NA and type(vec.item(2)) is float

    def test_take_by_bool_array_and_by_positions(self):
        vec = self.typed()
        kept = vec.take(np.array([True, False, True, False]))
        assert kept.data.tolist() == [1.5, -2.0] and kept.mask is None
        picked = vec.take([3, 0])
        assert picked.to_list() == [NA, 1.5]
        assert picked.mask.tolist() == [True, False]

    def test_slice_and_concat(self):
        vec = self.typed()
        assert vec.slice(0, 1).mask is None
        joined = ColumnVector.concat([vec.slice(0, 1), vec.slice(1, 4)])
        assert joined.to_list() == vec.to_list()
        assert joined.mask.tolist() == vec.mask.tolist()

    def test_compress_with_a_bool_array_is_boolean_indexing(self):
        schema = Schema([measure("X"), category("G", DataType.STR)])
        chunk = ColumnChunk(schema, [self.typed(), ColumnVector(["a", "b", "c", "d"])], 4)
        kept = chunk.compress(np.array([False, True, True, False]))
        assert kept.length == 2
        assert list(kept.iter_rows()) == [(NA, "b"), (-2.0, "c")]
        assert chunk.compress(np.ones(4, bool)) is chunk


class TestColumnChunk:
    def test_iter_rows_round_trip(self):
        chunks = list(chunks_from_rows(sample_schema(), sample_rows(), chunk_size=4))
        assert [c.length for c in chunks] == [4, 2]
        rebuilt = [row for c in chunks for row in c.iter_rows()]
        assert rebuilt == sample_rows()

    def test_compress_keeps_truthy_positions(self):
        (chunk,) = chunks_from_rows(sample_schema(), sample_rows(), chunk_size=10)
        kept = chunk.compress([True, False, True, False, False, False])
        assert kept.length == 2
        assert list(kept.iter_rows()) == [sample_rows()[0], sample_rows()[2]]

    def test_compress_all_kept_is_identity(self):
        (chunk,) = chunks_from_rows(sample_schema(), sample_rows(), chunk_size=10)
        assert chunk.compress([True] * 6) is chunk


class TestOperators:
    def test_scan_prunes_columns(self):
        scan = VecScan(sample_relation(), columns=["X", "W"], chunk_size=4)
        assert scan.schema.names == ["X", "W"]
        assert scan.rows() == [(r[1], r[3]) for r in sample_rows()]

    def test_scan_rejects_bad_chunk_size(self):
        with pytest.raises(QueryError):
            VecScan(sample_relation(), chunk_size=0)

    def test_select_matches_row_engine(self):
        rel = sample_relation()
        pred = (col("X") > 1) & (col("Y") <= 40)
        vec = VecSelect(VecScan(rel, chunk_size=2), pred)
        assert vec.rows() == list(Select(rel, pred))

    def test_select_na_comparison_fails_predicate(self):
        rel = sample_relation()
        vec = VecSelect(VecScan(rel, chunk_size=3), col("Y") >= 0)
        assert vec.rows() == list(Select(rel, col("Y") >= 0))
        assert all(row[2] is not NA for row in vec.rows())

    def test_project_computed_column(self):
        rel = sample_relation()
        items = ["G", ("double_x", col("X") * 2), ("logy", func("log", col("Y")))]
        vec = VecProject(VecScan(rel, chunk_size=4), items)
        row_op = Project(rel, items)
        assert vec.schema.names == row_op.schema.names
        assert vec.rows() == list(row_op)

    def test_groupby_matches_row_engine(self):
        rel = sample_relation()
        specs = [
            AggregateSpec("count", None, "n"),
            AggregateSpec("sum", "X", "sx"),
            AggregateSpec("mean", "Y", "my"),
            AggregateSpec("weighted_avg", "X", "wx", weight="W"),
        ]
        vec = VecGroupBy(VecScan(rel, chunk_size=2), ["G"], specs)
        row_op = GroupBy(rel, ["G"], specs)
        assert vec.schema.names == row_op.schema.names
        assert vec.schema.types == row_op.schema.types
        assert vec.rows() == list(row_op)

    def test_groupby_grand_total_on_empty_keys(self):
        rel = sample_relation()
        specs = [AggregateSpec("count", None, "n"), AggregateSpec("sum", "X", "sx")]
        vec = VecGroupBy(VecScan(rel, chunk_size=3), [], specs)
        assert vec.rows() == list(GroupBy(rel, [], specs))

    def test_groupby_validation_mirrors_row_engine(self):
        rel = sample_relation()
        with pytest.raises(QueryError):
            VecGroupBy(VecScan(rel), ["G"], [AggregateSpec("nope", "X", "a")])
        with pytest.raises(QueryError):
            VecGroupBy(VecScan(rel), ["G"], [])

    def test_compare_type_error_matches_row_engine(self):
        rel = sample_relation()
        vec = VecSelect(VecScan(rel, chunk_size=4), col("G") < 3)
        with pytest.raises(ExpressionError):
            vec.rows()

    def test_vector_operator_iterates_as_rows(self):
        scan = VecScan(sample_relation(), chunk_size=4)
        assert isinstance(scan, VectorOperator)
        assert list(iter(scan)) == sample_rows()


class TestChunkPipelineLift:
    def test_relation_supports_chunks(self):
        assert supports_column_chunks(sample_relation())

    def test_lift_passthrough_for_vector_operator(self):
        scan = VecScan(sample_relation())
        assert as_chunk_pipeline(scan) is scan

    def test_row_only_source_declines(self):
        class RowsOnly:
            schema = sample_schema()

            def __iter__(self):
                return iter(sample_rows())

        assert not supports_column_chunks(RowsOnly())
        assert as_chunk_pipeline(RowsOnly()) is None


def transposed_relation(compress=None):
    schema = Schema([measure(f"C{i}") for i in range(10)])
    disk = SimulatedDisk(block_size=512)
    pool = BufferPool(disk, capacity=32)
    storage = TransposedFile(pool, schema.types, compress=compress)
    rows = [tuple(float(r * 10 + c) for c in range(10)) for r in range(200)]
    stored = StoredRelation.load("wide", schema, rows, storage)
    pool.flush_all()
    return disk, pool, stored, rows


class TestTransposedChunkScan:
    def test_chunks_match_rows(self):
        _, _, stored, rows = transposed_relation()
        scan = VecScan(stored, columns=["C2", "C7"], chunk_size=64)
        assert scan.rows() == [(r[2], r[7]) for r in rows]

    def test_q_of_m_scan_reads_only_q_columns_pages(self):
        disk, pool, stored, _ = transposed_relation()
        pool.clear()
        disk.reset_stats()
        VecScan(stored, columns=["C2", "C7"], chunk_size=64).rows()
        q_reads = disk.stats.block_reads
        expected = stored.storage.column_page_count(2) + stored.storage.column_page_count(7)
        assert q_reads == expected

        pool.clear()
        disk.reset_stats()
        list(iter(stored))  # the row engine's feed touches every chain
        assert disk.stats.block_reads > q_reads

    def test_empty_column_list_rejected(self):
        _, _, stored, _ = transposed_relation()
        with pytest.raises(StorageError):
            list(stored.scan_column_chunks([]))

    def test_chunk_sizes_cover_page_boundaries(self):
        _, _, stored, rows = transposed_relation()
        for chunk_size in (1, 7, 64, 200, 500):
            got = [
                value
                for chunk in stored.scan_column_chunks([3], chunk_size)
                for value in chunk[0]
            ]
            assert got == [r[3] for r in rows], chunk_size


class TestTypedKernelsKeepPythonSemantics:
    """Over typed vectors a kernel is numpy only where numpy answers as Python.

    Each expression sits where numpy alone would answer otherwise: an int64
    past 2**53 compared with a float, int64 arithmetic that overflows, an
    integer division past 2**53, bools added, a zero divisor, ``inf - inf``.
    """

    ROWS = [
        (2**53, 2**53 + 1, 1.5, True),
        (2**53 + 1, -(2**53) - 1, float("inf"), True),
        (2**62, 2**62, -0.0, False),
        (-(2**63), 3, 0.0, True),
        (7, NA, NA, NA),
        (0, 2**63 - 1, 2.5, False),
    ]
    EXPRESSIONS = [
        col("K") > 9007199254740992.0,
        col("K") == 9007199254740992.0,
        col("K") <= col("X"),
        col("K") == col("J"),
        col("K").between(0.0, 9007199254740992.0),
        col("K").is_in([9007199254740992.0, 7]),
        col("B") == 1,
        col("X") + col("X") > 0,
        (col("X") - col("X")).is_na(),
    ]
    ITEMS = [
        ("kk", col("K") * col("J")),
        ("ksum", col("K") + col("J")),
        ("kdiv", col("K") / col("J")),
        ("kx", col("K") - col("X")),
        ("bb", col("B") + col("B")),
        ("xz", col("X") / 0),
        ("xx", col("X") - col("X")),
        ("k3", col("K") / 3),
    ]

    def relation(self):
        schema = Schema(
            [
                measure("K", DataType.INT),
                measure("J", DataType.INT),
                measure("X"),
                measure("B", DataType.BOOL),
            ]
        )
        pool = BufferPool(SimulatedDisk(block_size=512), capacity=8)
        return StoredRelation.load("k", schema, self.ROWS, TransposedFile(pool, schema.types))

    @staticmethod
    def same(got, want):
        assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("predicate", EXPRESSIONS, ids=repr)
    def test_selection(self, predicate):
        stored = self.relation()
        got = VecSelect(VecScan(stored, chunk_size=4), predicate).rows()
        self.same(got, list(Select(stored, predicate)))

    @pytest.mark.parametrize("item", ITEMS, ids=lambda item: item[0])
    def test_computed_column(self, item):
        stored = self.relation()
        got = VecProject(VecScan(stored, chunk_size=4), [item]).rows()
        self.same(got, list(Project(stored, [item])))


class TestDecodedPageMemo:
    def test_consecutive_probes_decode_once(self, monkeypatch):
        _, _, stored, rows = transposed_relation(compress="rle")
        from repro.storage import compression as comp

        calls = {"n": 0}
        original = comp.rle_decode_column

        def counting(body, dtype, count):
            calls["n"] += 1
            return original(body, dtype, count)

        monkeypatch.setattr(comp, "rle_decode_column", counting)
        for row in range(10):  # all on the first page of the column
            assert stored.storage.get_value(row, 4) == rows[row][4]
        assert calls["n"] == 1

    def test_set_invalidates_memo(self):
        _, _, stored, _ = transposed_relation()
        storage = stored.storage
        assert storage.get_value(5, 0) == 50.0
        storage.set_value(5, 0, -1.0)
        assert storage.get_value(5, 0) == -1.0

    def test_append_invalidates_open_page_memo(self):
        schema = Schema([measure("A")])
        pool = BufferPool(SimulatedDisk(block_size=512), capacity=8)
        storage = TransposedFile(pool, schema.types)
        storage.append_row((1.0,))
        assert storage.get_value(0, 0) == 1.0  # memoizes the open page
        storage.append_row((2.0,))
        assert storage.get_value(1, 0) == 2.0


class TestPlannerHook:
    def catalog(self):
        catalog = Catalog()
        catalog.register(sample_relation())
        return catalog

    def test_join_free_query_plans_vectorized(self):
        pipeline = plan(parse("SELECT X, Y FROM t WHERE X > 1"), self.catalog())
        assert isinstance(pipeline, VectorOperator)

    def test_heap_backed_source_stays_row_wise(self):
        from repro.storage.heapfile import HeapFile

        schema = sample_schema()
        pool = BufferPool(SimulatedDisk(block_size=512), capacity=8)
        stored = StoredRelation.load(
            "h", schema, sample_rows(), HeapFile(pool, schema.types)
        )
        catalog = Catalog()
        catalog.register(stored)
        pipeline = plan(parse("SELECT X FROM h"), catalog)
        assert not isinstance(pipeline, VectorOperator)

    def test_vectorized_results_match_row_semantics(self):
        catalog = self.catalog()
        rel = sample_relation()
        text = "SELECT G, sum(X) AS sx FROM t WHERE X > 0 GROUP BY G"
        got = list(plan(parse(text), catalog))
        expected = list(
            GroupBy(
                Select(rel, col("X") > 0), ["G"], [AggregateSpec("sum", "X", "sx")]
            )
        )
        assert got == expected
