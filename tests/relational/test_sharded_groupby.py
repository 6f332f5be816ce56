"""Sharded tables through the one chunk engine: plan shape and exact answers.

A grouped query over a :class:`ShardedTransposedFile` plans as over any
transposed file — ``VecScan`` over the interleaved global-order chunk feed,
then ``VecSelect`` and ``VecGroupBy`` — so every answer is the row
engine's, in value, in type and in the sign of a zero.
"""

import math
import multiprocessing
import random

import pytest

from repro.core.errors import SchemaError
from repro.relational.aggregates import (
    AGGREGATES,
    AggregateSpec,
    GroupBy,
    group_by_schema,
    resolve_aggregate,
)
from repro.relational.catalog import Catalog
from repro.relational.planner import plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.relational.vectorized import VecGroupBy, VecProject, VecScan, VectorOperator
from repro.storage.sharded import ShardedTransposedFile


def sample_schema():
    return Schema(
        [category("G", DataType.STR), measure("X"), measure("Y")]
    )


def sample_rows(n=40):
    rows = []
    for i in range(n):
        x = NA if i % 7 == 3 else float(i % 11)
        y = NA if i % 5 == 4 else float(i)
        rows.append((f"g{i % 3}", x, y))
    return rows


def sharded_relation(rows=None, shards=4, name="t"):
    rows = rows if rows is not None else sample_rows()
    schema = sample_schema()
    storage = ShardedTransposedFile(schema.types, shards=shards, name=name)
    return StoredRelation.load(name, schema, rows, storage)


def operators(op):
    """The plan's operator classes, root first, down the ``child`` links."""
    while op is not None:
        yield type(op)
        op = getattr(op, "child", None)


def grouped_over_sharded_scan(pipeline):
    """Whether the plan is VecGroupBy over a VecScan of the sharded table."""
    found = list(operators(pipeline))
    return VecGroupBy in found and found[-1] is VecScan


def assert_identical(got, want):
    """Row for row, cell for cell: equal, of one type, zeros of one sign."""
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for a, b in zip(got_row, want_row):
            assert a == b and type(a) is type(b), (got_row, want_row)
            if isinstance(a, float):
                assert math.copysign(1, a) == math.copysign(1, b), (got_row, want_row)


class TestPlannerLowering:
    def catalog(self, stored):
        catalog = Catalog()
        catalog.register(stored)
        return catalog

    def test_sum_and_count_plan_vec_groupby(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, sum(X) AS sx, count(Y) AS cy FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert grouped_over_sharded_scan(pipeline)
        assert isinstance(pipeline, VectorOperator)

    def test_median_falls_back_to_single_stream(self):
        # The one stream is the chunk engine's over the interleaved scan.
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, median(X) AS mx FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert grouped_over_sharded_scan(pipeline)

    def test_count_distinct_plans_vec_groupby(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, count(DISTINCT X) AS d FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert grouped_over_sharded_scan(pipeline)

    def test_quantile_plans_vec_groupby(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, quantile_75(X) AS q3 FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert grouped_over_sharded_scan(pipeline)

    def test_projection_still_falls_back(self):
        stored = sharded_relation()
        pipeline = plan(parse("SELECT G, X FROM t"), self.catalog(stored))
        assert list(operators(pipeline)) == [VecProject, VecScan]

    def test_results_match_row_engine(self):
        rows = sample_rows()
        stored = sharded_relation(rows)
        text = (
            "SELECT G, count(*) AS n, sum(X) AS sx, avg(Y) AS ay, "
            "min(X) AS mn, max(Y) AS mx FROM t WHERE Y > 2 GROUP BY G"
        )
        got = list(plan(parse(text), self.catalog(stored)))
        rel = Relation("t", sample_schema(), rows)
        row_catalog = Catalog()
        row_catalog.register(rel)
        assert_identical(got, list(plan(parse(text), row_catalog, use_vectorized=False)))

    @pytest.mark.parametrize("use_vectorized", [True, False])
    @pytest.mark.parametrize("table", ["t", "ts"])
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT G, weighted_avg(X, NOPE) AS w FROM {} GROUP BY G",
            "SELECT G, sum(X) AS s FROM {} WHERE NOPE > 1 GROUP BY G",
        ],
    )
    def test_unknown_column_rejected_at_plan_time(self, text, table, use_vectorized):
        # Used to plan and fail only while iterating, naming the pruned
        # scan's schema.
        catalog = Catalog()
        catalog.register(Relation("t", sample_schema(), sample_rows()))
        catalog.register(sharded_relation(name="ts"))
        full_schema = r"no attribute 'NOPE'; schema has \['G', 'X', 'Y'\]"
        with pytest.raises(SchemaError, match=full_schema):
            plan(parse(text.format(table)), catalog, use_vectorized=use_vectorized)

    def test_var_matches_two_pass_within_tolerance(self):
        # No tolerance is needed: both engines run the two-pass evaluator.
        rows = sample_rows()
        stored = sharded_relation(rows)
        text = "SELECT G, var(Y) AS vy, std(Y) AS sy FROM t GROUP BY G"
        got = list(plan(parse(text), self.catalog(stored)))
        rel = Relation("t", sample_schema(), rows)
        row_catalog = Catalog()
        row_catalog.register(rel)
        assert_identical(got, list(plan(parse(text), row_catalog, use_vectorized=False)))


class TestIntegerSums:
    """An INT column's sum and mean are exact, and the sum stays an int."""

    def run(self, rows, vectorized=True):
        schema = Schema([category("G", DataType.CATEGORY), measure("K", DataType.INT)])
        storage = ShardedTransposedFile(schema.types, shards=2, name="ts")
        catalog = Catalog()
        catalog.register(StoredRelation.load("ts", schema, rows, storage))
        text = "SELECT G, sum(K) AS s, avg(K) AS a FROM ts GROUP BY G"
        return list(plan(parse(text), catalog, use_vectorized=vectorized))

    def test_a_sum_past_two_to_the_53_is_exact(self):
        rows = [(0, 2**53), (0, 1), (0, 1)]
        got = self.run(rows)
        assert got == self.run(rows, vectorized=False)
        assert got == [(0, 2**53 + 2, (2**53 + 2) / 3)]
        assert type(got[0][1]) is int

    def test_a_one_row_sum_is_an_int(self):
        got = self.run([(1, 25)])
        assert got == [(1, 25, 25.0)]
        assert [type(v) for v in got[0]] == [int, int, float]


class TestShardCountInvariance:
    def test_identical_results_across_shard_counts(self):
        rows = sample_rows(60)
        text = "SELECT G, count(X) AS n, sum(X) AS s, avg(Y) AS a FROM t GROUP BY G"
        results = []
        for shards in (1, 2, 4, 8):
            stored = sharded_relation(rows, shards=shards)
            catalog = Catalog()
            catalog.register(stored)
            results.append(list(plan(parse(text), catalog)))
        assert all(r == results[0] for r in results[1:])


def aggregate_sql(func):
    """The select item computing ``func`` into ``out``, as the parser reads it."""
    found = resolve_aggregate(func)
    if found.arity == 0:
        return "count(*) AS out"
    return f"{func}(X, Y) AS out" if found.arity == 2 else f"{func}(X) AS out"


@pytest.mark.parametrize("func", sorted(AGGREGATES) + ["quantile_25"])
def test_a_table_row_is_a_whole_aggregate(func):
    """Adding a row to the aggregate table is the whole job of adding one:
    the schema check accepts it, the vectorized engine equals the row
    reference exactly, and so does SQL over a sharded table at every shard
    count."""
    found = resolve_aggregate(func)
    spec = AggregateSpec(
        func,
        "X" if found.arity else None,
        "out",
        weight="Y" if found.arity == 2 else None,
    )
    rows = sample_rows()
    rel = Relation("t", sample_schema(), rows)
    assert group_by_schema(rel.schema, ["G"], [spec]).names == ["G", "out"]
    want = list(GroupBy(rel, ["G"], [spec]))
    assert_identical(VecGroupBy(VecScan(rel, chunk_size=7), ["G"], [spec]).rows(), want)
    text = f"SELECT G, {aggregate_sql(func)} FROM t GROUP BY G"
    for shards in (1, 2, 4):
        catalog = Catalog()
        catalog.register(sharded_relation(rows, shards=shards))
        pipeline = plan(parse(text), catalog)
        assert grouped_over_sharded_scan(pipeline)
        assert_identical(list(pipeline), want)


class TestExtremes:
    """Sharded min/max equal the row engine's, in value and in type."""

    SCHEMA = Schema(
        [category("G", DataType.CATEGORY), measure("K", DataType.INT), measure("X")]
    )
    ROWS = [
        (0, 7, 2.5),
        (1, NA, NA),
        (0, -(2**62), 0.5),
        (2, 3, NA),
        (0, 2**62, -1.5),
        (1, NA, NA),
        (2, 3, 4.0),
        (0, 7, -1.5),
    ]

    def both(self, text):
        storage = ShardedTransposedFile(self.SCHEMA.types, shards=2, name="ts")
        stored = StoredRelation.load("ts", self.SCHEMA, self.ROWS, storage)
        catalog = Catalog()
        catalog.register(stored)
        pipeline = plan(parse(text), catalog)
        assert grouped_over_sharded_scan(pipeline)
        return list(pipeline), list(plan(parse(text), catalog, use_vectorized=False))

    def test_int_float_and_na_only_groups(self):
        got, want = self.both(
            "SELECT G, min(K) AS a, max(K) AS b, min(X) AS c, max(X) AS d FROM ts GROUP BY G"
        )
        assert got == want == [
            (0, -(2**62), 2**62, -1.5, 2.5),
            (1, NA, NA, NA, NA),
            (2, 3, 3, 4.0, 4.0),
        ]
        assert_identical(got, want)

    def test_an_empty_selection(self):
        got, want = self.both("SELECT min(K) AS a, max(X) AS b FROM ts WHERE X > 100.0")
        assert got == want == [(NA, NA)]


class TestAnswersAsOneFile:
    """Inputs on which per-shard partials merged to wrong answers: each
    answer over two shards is now the row engine's over the same table."""

    def both(self, schema, rows, text):
        storage = ShardedTransposedFile(schema.types, shards=2, name="ts")
        catalog = Catalog()
        catalog.register(StoredRelation.load("ts", schema, rows, storage))
        got = list(plan(parse(text), catalog))
        want = list(plan(parse(text), catalog, use_vectorized=False))
        assert_identical(got, want)
        return got

    def test_var_of_floats_far_from_zero(self):
        # Merged power sums cancelled to a negative variance (-14.35).
        rng = random.Random(1)
        schema = Schema([category("G", DataType.CATEGORY), measure("X")])
        rows = [(0, 1e8 + rng.random()) for _ in range(1000)]
        ((_, var),) = self.both(schema, rows, "SELECT G, var(X) AS v FROM ts GROUP BY G")
        assert var == pytest.approx(0.0838, abs=5e-4)

    def test_var_of_large_ints(self):
        # Merged power sums of 2**40 + i rounded the variance away to 0.0.
        schema = Schema([category("G", DataType.CATEGORY), measure("K", DataType.INT)])
        rows = [(0, 2**40 + i) for i in range(100)]
        ((_, var),) = self.both(schema, rows, "SELECT G, var(K) AS v FROM ts GROUP BY G")
        assert var == pytest.approx(841.6667, abs=1e-4)

    def test_median_and_count_distinct_are_exact(self):
        # Merged t-digests and HyperLogLogs estimated 493.83 and 10 265.
        rng = random.Random(2)
        schema = Schema([category("G", DataType.CATEGORY), measure("X")])
        rows = [(i % 3, round(rng.random() * 1000, 3)) for i in range(30_000)]
        got = self.both(
            schema,
            rows,
            "SELECT G, median(X) AS m, count(DISTINCT X) AS d FROM ts GROUP BY G",
        )
        assert got[0] == (0, 494.2025, 9946)

    def test_min_keeps_the_sign_of_the_first_least_zero(self):
        # The extreme-only partial answered -0.0; min() keeps the first 0.0.
        schema = Schema([category("G", DataType.CATEGORY), measure("X")])
        rows = [(0, 5.0), (0, 0.0), (0, -0.0)]
        ((_, least),) = self.both(schema, rows, "SELECT G, min(X) AS m FROM ts GROUP BY G")
        assert math.copysign(1, least) == 1.0


def test_a_sharded_query_starts_no_process():
    stored = sharded_relation(sample_rows(400), shards=2)
    catalog = Catalog()
    catalog.register(stored)
    text = "SELECT G, count(*) AS n, sum(X) AS s, median(Y) AS m FROM t GROUP BY G"
    assert len(list(plan(parse(text), catalog))) == 3
    assert multiprocessing.active_children() == []
