"""Scatter-gather group-by: planner lowering, merge math, process mode."""

import pickle
import random

import pytest

from repro.core.errors import QueryError, SchemaError
from repro.obs.tracer import Tracer
from repro.relational.aggregates import (
    AGGREGATES,
    AggregateSpec,
    GroupBy,
    group_by_schema,
    resolve_aggregate,
)
from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.planner import plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sharded import (
    ShardedGroupBy,
    ShardExecutor,
    gather_rows,
    get_executor,
    is_mergeable,
    is_sharded_source,
)
from repro.relational.sql import parse
from repro.relational.types import NA, DataType, is_na
from repro.relational.vectorized import VecGroupBy, VecScan, VectorOperator
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


def contains_sharded(op):
    while op is not None:
        if isinstance(op, ShardedGroupBy):
            return True
        op = getattr(op, "child", None)
    return False


class TestPlannerLowering:
    def catalog(self, stored):
        catalog = Catalog()
        catalog.register(stored)
        return catalog

    def test_mergeable_aggregates_lower_to_scatter_gather(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, sum(X) AS sx, count(Y) AS cy FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert contains_sharded(pipeline)
        assert isinstance(pipeline, VectorOperator)

    def test_median_falls_back_to_single_stream(self):
        # Historical name kept for the diff: since the t-digest partials,
        # median no longer falls back — it lowers to scatter-gather.
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, median(X) AS mx FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert contains_sharded(pipeline)

    def test_count_distinct_lowers_to_sharded(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, count(DISTINCT X) AS d FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert contains_sharded(pipeline)

    def test_quantile_lowers_to_sharded(self):
        stored = sharded_relation()
        pipeline = plan(
            parse("SELECT G, quantile_75(X) AS q3 FROM t GROUP BY G"),
            self.catalog(stored),
        )
        assert contains_sharded(pipeline)

    def test_projection_still_falls_back(self):
        stored = sharded_relation()
        pipeline = plan(parse("SELECT G, X FROM t"), self.catalog(stored))
        assert not contains_sharded(pipeline)

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
        expected = list(plan(parse(text), row_catalog, use_vectorized=False))
        assert sorted(map(repr, got)) == sorted(map(repr, expected))

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
        # Used to plan and fail only while iterating — on the sharded path
        # from inside the worker, naming the pruned scan's schema.
        catalog = Catalog()
        catalog.register(Relation("t", sample_schema(), sample_rows()))
        catalog.register(sharded_relation(name="ts"))
        full_schema = r"no attribute 'NOPE'; schema has \['G', 'X', 'Y'\]"
        with pytest.raises(SchemaError, match=full_schema):
            plan(parse(text.format(table)), catalog, use_vectorized=use_vectorized)

    def test_var_matches_two_pass_within_tolerance(self):
        rows = sample_rows()
        stored = sharded_relation(rows)
        text = "SELECT G, var(Y) AS vy, std(Y) AS sy FROM t GROUP BY G"
        got = {r[0]: r[1:] for r in plan(parse(text), self.catalog(stored))}
        rel = Relation("t", sample_schema(), rows)
        row_catalog = Catalog()
        row_catalog.register(rel)
        expected = {
            r[0]: r[1:] for r in plan(parse(text), row_catalog, use_vectorized=False)
        }
        assert set(got) == set(expected)
        for key, (vy, sy) in expected.items():
            assert got[key][0] == pytest.approx(vy, rel=1e-9)
            assert got[key][1] == pytest.approx(sy, rel=1e-9)


class TestIntegerSums:
    """An INT column's sum and mean merge exactly, and the sum stays an int."""

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


class TestShardedGroupByOperator:
    def test_rejects_unmergeable_spec(self):
        stored = sharded_relation()
        with pytest.raises(QueryError, match="no mergeable partial"):
            ShardedGroupBy(stored, ["G"], [AggregateSpec("mode", "X", "m")])

    def test_rejects_unsharded_source(self):
        rel = Relation("t", sample_schema(), sample_rows())
        with pytest.raises(QueryError, match="sharded"):
            ShardedGroupBy(rel, ["G"], [AggregateSpec("sum", "X", "s")])

    def test_grand_total_over_empty_selection(self):
        stored = sharded_relation()
        op = ShardedGroupBy(
            stored,
            [],
            [AggregateSpec("count", None, "n"), AggregateSpec("sum", "X", "s")],
            where=col("Y") > 1e9,
        )
        assert list(op) == [(0, NA)]

    def test_group_order_follows_first_appearance(self):
        rows = [("b", 1.0, 1.0), ("a", 2.0, 2.0), ("b", 3.0, 3.0), ("c", 4.0, 4.0)]
        stored = sharded_relation(rows, shards=2)
        op = ShardedGroupBy(stored, ["G"], [AggregateSpec("sum", "X", "s")])
        assert [r[0] for r in op] == ["b", "a", "c"]

    def test_tracer_counts_scatter_and_gather(self):
        stored = sharded_relation(shards=4)
        tracer = Tracer()
        executor = get_executor(stored.storage, tracer=tracer)
        op = ShardedGroupBy(
            stored, ["G"], [AggregateSpec("sum", "X", "s")], executor=executor
        )
        list(op)
        (root,) = [s for s in tracer.roots if s.name == "shard.scatter_gather"]
        assert root.total("shard.scatter") == 4
        assert root.attrs["shards"] == 4

    def test_mergeable_funcs_frozen(self):
        assert all(map(is_mergeable, ("count", "sum", "avg", "min", "max", "var", "std")))
        # Sketch partials lifted the last two single-stream stragglers.
        assert all(map(is_mergeable, ("median", "count_distinct", "quantile_90")))
        # count(*) needs no partial object: every group carries its size.
        assert is_mergeable("count_star")
        assert not is_mergeable("mode")


@pytest.mark.parametrize("func", sorted(AGGREGATES) + ["quantile_25"])
def test_a_table_row_is_a_whole_aggregate(func):
    """Adding a row to the aggregate table is the whole job of adding one:
    the schema check accepts it, the vectorized engine equals the row
    reference exactly, and a row with a partial factory gives that answer
    at every shard count (the sketch partials are exact at this scale:
    unit centroids, sparse registers; power sums round in the last bits)."""
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
    want = VecGroupBy(VecScan(rel, chunk_size=7), ["G"], [spec]).rows()
    assert want == list(GroupBy(rel, ["G"], [spec]))
    assert is_mergeable(func) == (found.arity == 0 or found.partial is not None)
    if not is_mergeable(func):
        return
    for shards in (1, 2, 4):
        stored = sharded_relation(rows, shards=shards)
        executor = ShardExecutor(stored.storage, mode="serial")
        got = list(ShardedGroupBy(stored, ["G"], [spec], executor=executor))
        assert [key for key, _ in got] == [key for key, _ in want]
        for (_, live), (_, exact) in zip(got, want):
            if is_na(exact):
                assert is_na(live)
            else:
                assert live == pytest.approx(exact, rel=1e-9)


class TestProcessMode:
    def test_process_pool_matches_serial(self):
        rows = sample_rows(30)
        stored = sharded_relation(rows, shards=2, name="p")
        serial = ShardExecutor(stored.storage, mode="serial")
        process = ShardExecutor(stored.storage, mode="process")
        try:
            specs = [AggregateSpec("sum", "X", "s"), AggregateSpec("count", "Y", "n")]
            a = list(
                ShardedGroupBy(stored, ["G"], specs, executor=serial)
            )
            b = list(
                ShardedGroupBy(stored, ["G"], specs, executor=process)
            )
            assert a == b
        finally:
            process.close()

    def test_the_shipped_partials_are_small(self):
        """Each shard ships a few scalars per group and aggregate, not the
        values: the scan_mix-shaped query's partials pickle to under 4 KB."""
        rng = random.Random(1982)
        schema = Schema(
            [category("G", DataType.CATEGORY)] + [measure(f"C{i}") for i in range(1, 5)]
        )
        rows = []
        for _ in range(20_000):
            values = [round(rng.uniform(0.0, 1000.0), 1) for _ in range(4)]
            if rng.random() < 0.02:
                values[0] = NA
            rows.append((rng.randrange(8), *values))
        storage = ShardedTransposedFile(schema.types, shards=2, name="mix")
        stored = StoredRelation.load("mix", schema, rows, storage)
        query = parse(
            "SELECT G, count(C1) AS n, sum(C1) AS s, avg(C2) AS a, min(C3) AS mn, "
            "max(C3) AS mx FROM mix WHERE C4 > 200 GROUP BY G"
        )
        specs = [
            AggregateSpec("count", "C1", "n"),
            AggregateSpec("sum", "C1", "s"),
            AggregateSpec("avg", "C2", "a"),
            AggregateSpec("min", "C3", "mn"),
            AggregateSpec("max", "C3", "mx"),
        ]
        executor = ShardExecutor(storage, mode="process")
        try:
            per_shard = executor.run(
                schema, ["G", "C1", "C2", "C3", "C4"], query.where, ["G"], specs
            )
        finally:
            executor.close()
        assert sum(len(pickle.dumps(partials)) for partials in per_shard) <= 4096
        catalog = Catalog()
        catalog.register(stored)
        want = list(plan(query, catalog, use_vectorized=False))
        got = gather_rows(per_shard, ["G"], specs)
        assert [row[0] for row in got] == [row[0] for row in want]
        for row, reference in zip(got, want):
            assert row[1] == reference[1] and row[4:] == reference[4:]
            assert row[2:4] == pytest.approx(reference[2:4], rel=1e-12)

    def test_process_pool_sees_writes_after_version_bump(self):
        rows = [("a", 1.0, 1.0), ("a", 2.0, 2.0)]
        stored = sharded_relation(rows, shards=2, name="q")
        executor = ShardExecutor(stored.storage, mode="process")
        try:
            specs = [AggregateSpec("sum", "X", "s")]
            first = list(ShardedGroupBy(stored, ["G"], specs, executor=executor))
            assert first == [("a", 3.0)]
            stored.storage.set_value(0, 1, 10.0)
            second = list(ShardedGroupBy(stored, ["G"], specs, executor=executor))
            assert second == [("a", 12.0)]
        finally:
            executor.close()


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

    def both(self, text, mode):
        storage = ShardedTransposedFile(self.SCHEMA.types, shards=2, name="ts")
        stored = StoredRelation.load("ts", self.SCHEMA, self.ROWS, storage)
        catalog = Catalog()
        catalog.register(stored)
        executor = get_executor(storage)  # the one the planner's plan takes
        executor.mode = mode
        try:
            pipeline = plan(parse(text), catalog)
            assert contains_sharded(pipeline)
            return list(pipeline), list(plan(parse(text), catalog, use_vectorized=False))
        finally:
            executor.close()

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_int_float_and_na_only_groups(self, mode):
        got, want = self.both(
            "SELECT G, min(K) AS a, max(K) AS b, min(X) AS c, max(X) AS d FROM ts GROUP BY G",
            mode,
        )
        assert got == want == [
            (0, -(2**62), 2**62, -1.5, 2.5),
            (1, NA, NA, NA, NA),
            (2, 3, 3, 4.0, 4.0),
        ]
        assert [[type(v) for v in row] for row in got] == [
            [type(v) for v in row] for row in want
        ]

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_an_empty_selection(self, mode):
        got, want = self.both(
            "SELECT min(K) AS a, max(X) AS b FROM ts WHERE X > 100.0", mode
        )
        assert got == want == [(NA, NA)]


class TestSourceProbe:
    def test_sharded_stored_relation_detected(self):
        assert is_sharded_source(sharded_relation())

    def test_plain_relation_rejected(self):
        assert not is_sharded_source(Relation("t", sample_schema(), sample_rows()))
