"""Planner edge cases: pushdown, index residuals, NA semantics, combos."""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.index import AttributeIndex
from repro.relational.operators import HashJoin, Select
from repro.relational.planner import execute, plan
from repro.relational.relation import Relation
from repro.relational.schema import Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.relational.vectorized import VecSelect
from repro.workloads.census import figure1_dataset


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(figure1_dataset("census"), "census")
    schema = Schema(
        [category("CODE", DataType.CATEGORY), measure("LABEL", DataType.STR)]
    )
    cat.register(Relation("codes", schema, [(1, "a"), (2, "b")]), "codes")
    return cat


class TestPushdown:
    def test_mixed_conjuncts_split_correctly(self, catalog):
        q = parse(
            "SELECT * FROM census JOIN codes ON AGE_GROUP = CODE "
            "WHERE SEX = 'M' AND LABEL = 'a' AND POPULATION > LABEL"
        )
        # POPULATION > LABEL references both sides: must stay above the join,
        # where it runs as a chunk kernel over the join's output.
        pipeline = plan(q, catalog)
        assert isinstance(pipeline, VecSelect)
        assert isinstance(pipeline.child, HashJoin)

    def test_all_pushed_leaves_join_on_top(self, catalog):
        q = parse(
            "SELECT * FROM census JOIN codes ON AGE_GROUP = CODE WHERE SEX = 'F'"
        )
        assert isinstance(plan(q, catalog), HashJoin)

    def test_pushdown_preserves_semantics(self, catalog):
        text = (
            "SELECT SEX, LABEL FROM census JOIN codes ON AGE_GROUP = CODE "
            "WHERE SEX = 'M' AND LABEL = 'b'"
        )
        got = execute(text, catalog)
        # Manual evaluation without pushdown:
        census = catalog.get("census")
        codes = catalog.get("codes")
        joined = HashJoin(census, codes, ["AGE_GROUP"], ["CODE"])
        filtered = Select(joined, (col("SEX") == "M") & (col("LABEL") == "b"))
        manual = [(r[0], r[6]) for r in filtered]
        assert sorted(got) == sorted(manual)


class TestIndexResiduals:
    def test_residual_with_na_rows(self):
        schema = Schema([measure("k", DataType.INT), measure("v", DataType.FLOAT)])
        rows = [(1, 10.0), (1, NA), (1, 30.0), (2, 5.0)]
        relation = Relation("r", schema, rows, validate=False)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "k", AttributeIndex.build(relation, "k"))
        got = execute("SELECT v FROM r WHERE k = 1 AND v > 5", catalog)
        # The NA row fails the residual predicate (unknown -> false).
        assert sorted(row[0] for row in got) == [10.0, 30.0]

    def test_index_on_between_combined_with_equality(self):
        schema = Schema([measure("a", DataType.INT), measure("b", DataType.INT)])
        rows = [(i, i % 3) for i in range(100)]
        relation = Relation("r", schema, rows)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "a", AttributeIndex.build(relation, "a"))
        got = execute("SELECT a FROM r WHERE a BETWEEN 10 AND 20 AND b = 0", catalog)
        assert sorted(row[0] for row in got) == [12, 15, 18]


class TestCombos:
    def test_left_join_group_having_order_limit(self, catalog):
        got = execute(
            "SELECT LABEL, SUM(POPULATION) AS POP FROM census "
            "LEFT JOIN codes ON AGE_GROUP = CODE "
            "GROUP BY LABEL HAVING POP > 1000 ORDER BY POP DESC LIMIT 2",
            catalog,
        )
        assert len(got) == 2
        pops = [row[1] for row in got]
        assert pops == sorted(pops, reverse=True)

    def test_aggregate_over_index_scan(self):
        schema = Schema([category("g", DataType.INT), measure("v", DataType.FLOAT)])
        rows = [(i % 5, float(i)) for i in range(1000)]
        relation = Relation("r", schema, rows)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "g", AttributeIndex.build(relation, "g"))
        got = execute("SELECT COUNT(*) AS n FROM r WHERE g = 3", catalog)
        assert got.row(0)[0] == 200
