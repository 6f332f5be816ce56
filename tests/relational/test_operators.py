"""Tests for relational operators."""

import pytest

from repro.core.errors import QueryError
from repro.relational.expressions import col
from repro.relational.operators import (
    Distinct,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Rename,
    Select,
    Sort,
    SortMergeJoin,
    Union,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import NA, DataType


def rel(name, cols, rows):
    return Relation(name, Schema([measure(c, DataType.FLOAT) for c in cols]), rows)


def people(extra_rows=()):
    schema = Schema(
        [
            category("id", DataType.INT),
            category("dept", DataType.INT),
            measure("salary", DataType.FLOAT),
        ]
    )
    return Relation(
        "people",
        schema,
        [(1, 10, 100.0), (2, 10, 200.0), (3, 20, 300.0), (4, 30, NA), *extra_rows],
    )


def depts():
    schema = Schema(
        [category("dept_id", DataType.INT), measure("name", DataType.STR)]
    )
    return Relation("depts", schema, [(10, "eng"), (20, "ops")])


class TestSelectProject:
    def test_select(self):
        got = Select(people(), col("salary") > 150).rows()
        assert [r[0] for r in got] == [2, 3]

    def test_select_na_excluded(self):
        got = Select(people(), col("salary") < 1e9).rows()
        assert len(got) == 3  # NA row fails the predicate

    def test_project_names(self):
        out = Project(people(), ["salary", "id"])
        assert out.schema.names == ["salary", "id"]
        assert out.rows()[0] == (100.0, 1)

    def test_project_computed(self):
        out = Project(people(), [("double", col("salary") * 2)])
        assert out.rows()[0] == (200.0,)
        assert out.schema.names == ["double"]

    def test_rename(self):
        out = Rename(people(), {"salary": "pay"})
        assert "pay" in out.schema


class TestJoins:
    def test_hash_join_inner(self):
        got = HashJoin(people(), depts(), ["dept"], ["dept_id"]).rows()
        assert len(got) == 3
        assert got[0][-1] == "eng"

    def test_hash_join_left(self):
        got = HashJoin(people(), depts(), ["dept"], ["dept_id"], how="left").rows()
        assert len(got) == 4
        unmatched = [r for r in got if r[1] == 30][0]
        assert unmatched[-1] is NA

    def test_hash_join_na_keys_never_match(self):
        left = people(extra_rows=[(5, NA, 10.0)])
        got = HashJoin(left, depts(), ["dept"], ["dept_id"]).rows()
        assert all(r[0] != 5 for r in got)

    def test_sort_merge_matches_hash(self):
        hj = sorted(HashJoin(people(), depts(), ["dept"], ["dept_id"]).rows())
        smj = sorted(SortMergeJoin(people(), depts(), ["dept"], ["dept_id"]).rows())
        assert hj == smj

    def test_sort_merge_duplicates(self):
        left = rel("l", ["k"], [(1.0,), (1.0,), (2.0,)])
        right = rel2 = Relation(
            "r",
            Schema([measure("k2", DataType.FLOAT)]),
            [(1.0,), (1.0,)],
        )
        got = SortMergeJoin(left, right, ["k"], ["k2"]).rows()
        assert len(got) == 4  # 2x2 cross within the key group

    def test_nested_loop_theta(self):
        left = rel("l", ["a"], [(1.0,), (5.0,)])
        right = Relation("r", Schema([measure("b", DataType.FLOAT)]), [(3.0,)])
        got = NestedLoopJoin(left, right, col("a") > col("b")).rows()
        assert got == [(5.0, 3.0)]

    def test_join_key_validation(self):
        with pytest.raises(QueryError):
            HashJoin(people(), depts(), [], [])
        with pytest.raises(QueryError):
            HashJoin(people(), depts(), ["dept"], [])
        with pytest.raises(QueryError):
            HashJoin(people(), depts(), ["dept"], ["dept_id"], how="outer")


class TestSortDistinctUnionLimit:
    def test_sort_asc(self):
        got = Sort(people(), ["salary"]).rows()
        values = [r[2] for r in got]
        assert values[:3] == [100.0, 200.0, 300.0]
        assert values[3] is NA  # NA sorts last

    def test_sort_desc_na_still_last(self):
        got = Sort(people(), ["salary"], descending=True).rows()
        values = [r[2] for r in got]
        assert values[:3] == [300.0, 200.0, 100.0]
        assert values[3] is NA

    def test_sort_multiple_keys(self):
        data = rel("d", ["a", "b"], [(1.0, 2.0), (1.0, 1.0), (0.0, 9.0)])
        got = Sort(data, ["a", "b"]).rows()
        assert got == [(0.0, 9.0), (1.0, 1.0), (1.0, 2.0)]

    def test_sort_requires_keys(self):
        with pytest.raises(QueryError):
            Sort(people(), [])

    def test_distinct(self):
        data = rel("d", ["a"], [(1.0,), (1.0,), (2.0,)])
        assert Distinct(data).rows() == [(1.0,), (2.0,)]

    def test_union(self):
        a = rel("a", ["x"], [(1.0,)])
        b = rel("b", ["x"], [(2.0,)])
        assert Union(a, b).rows() == [(1.0,), (2.0,)]

    def test_union_type_mismatch_rejected(self):
        a = rel("a", ["x"], [(1.0,)])
        b = Relation("b", Schema([measure("x", DataType.STR)]), [("s",)])
        with pytest.raises(QueryError, match="union"):
            Union(a, b)

    def test_limit(self):
        assert len(Limit(people(), 2).rows()) == 2
        assert len(Limit(people(), 0).rows()) == 0
        with pytest.raises(QueryError):
            Limit(people(), -1)


class TestComposition:
    def test_pipeline(self):
        joined = HashJoin(people(), depts(), ["dept"], ["dept_id"])
        filtered = Select(joined, col("salary") >= 200)
        projected = Project(filtered, ["id", "name"])
        top = Limit(Sort(projected, ["id"], descending=True), 1)
        assert top.rows() == [(3, "ops")]

    def test_lazy_evaluation(self):
        # Iterating twice re-evaluates (operators are restartable).
        sel = Select(people(), col("salary") > 150)
        assert sel.rows() == sel.rows()
