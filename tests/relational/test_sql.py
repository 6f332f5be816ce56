"""Tests for the SQL-subset parser and planner (executed end to end)."""

import pytest

from repro.core.errors import QueryError
from repro.relational.catalog import Catalog
from repro.relational.planner import execute, plan
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.workloads.census import age_group_codebook, figure1_dataset


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(figure1_dataset("census"), "census")
    cat.register(age_group_codebook().to_relation(), "age_codes")
    return cat


class TestParser:
    def test_basic_shape(self):
        q = parse("SELECT a, b FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5")
        assert q.table == "t"
        assert [i.name for i in q.select] == ["a", "b"]
        assert q.order_by == ["b"] and q.order_desc
        assert q.limit == 5

    def test_star(self):
        q = parse("SELECT * FROM t")
        assert q.select[0].kind == "star"

    def test_aggregates(self):
        q = parse("SELECT COUNT(*), SUM(x) AS total, WEIGHTED_AVG(v, w) AS wa FROM t GROUP BY g")
        kinds = [i.agg_func for i in q.select]
        assert kinds == ["count_star", "sum", "weighted_avg"]
        assert q.select[2].agg_weight == "w"

    def test_count_distinct(self):
        q = parse("SELECT COUNT(DISTINCT x) FROM t")
        assert q.select[0].agg_func == "count_distinct"

    def test_an_aggregate_is_whatever_the_table_resolves(self):
        q = parse("SELECT g, Quantile_75(x), MEAN(x), median(x) AS m FROM t GROUP BY g")
        assert [(i.agg_func, i.alias) for i in q.select[1:]] == [
            ("quantile_75", "quantile_75_x"), ("avg", "avg_x"), ("median", "m"),
        ]
        with pytest.raises(QueryError, match=r"malformed quantile aggregate 'QUANTILE_7X'"):
            parse("SELECT g, QUANTILE_7X(x) FROM t GROUP BY g")
        with pytest.raises(
            QueryError,
            match=r"unknown aggregate function 'RMS'; known: \['AVG', 'COUNT', "
            r".*'WEIGHTED_AVG'\] and QUANTILE_NN",
        ):
            parse("SELECT g, RMS(x) FROM t GROUP BY g")
        with pytest.raises(QueryError, match=r"SUM\(\*\) is not supported"):
            parse("SELECT SUM(*) FROM t")
        # Scalar functions are still expressions, not aggregates.
        assert parse("SELECT LOG(x) AS lx FROM t").select[0].kind == "expr"

    def test_join_clause(self):
        q = parse("SELECT * FROM a JOIN b ON x = y AND u = v")
        assert q.join.table == "b"
        assert q.join.left_keys == ["x", "u"]
        assert q.join.right_keys == ["y", "v"]

    def test_string_literals(self):
        q = parse("SELECT * FROM t WHERE name = 'O''Brien'")
        assert "O'Brien" in q.where.canonical()

    def test_between_in_isna(self):
        parse("SELECT * FROM t WHERE a BETWEEN 1 AND 2")
        parse("SELECT * FROM t WHERE a IN (1, 2, 3)")
        parse("SELECT * FROM t WHERE a IS NA")
        parse("SELECT * FROM t WHERE a IS NOT NULL")

    def test_arithmetic_in_select(self):
        q = parse("SELECT a / 1000 AS ka FROM t")
        assert q.select[0].alias == "ka"

    def test_computed_item_needs_alias(self):
        with pytest.raises(QueryError, match="alias"):
            parse("SELECT a + 1 FROM t")

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse("SELECT FROM t")
        with pytest.raises(QueryError):
            parse("SELECT * FROM t WHERE")
        with pytest.raises(QueryError, match="trailing"):
            parse("SELECT * FROM t EXTRA")

    def test_limit_must_be_int(self):
        with pytest.raises(QueryError):
            parse("SELECT * FROM t LIMIT 2.5")

    def test_negative_literals(self):
        q = parse("SELECT * FROM t WHERE a > -5")
        assert "-5" in q.where.canonical()


class TestExecution:
    def test_select_where(self, catalog):
        r = execute("SELECT SEX, POPULATION FROM census WHERE AVE_SALARY > 30000", catalog)
        assert len(r) == 3
        assert r.schema.names == ["SEX", "POPULATION"]

    def test_star(self, catalog):
        r = execute("SELECT * FROM census", catalog)
        assert len(r) == 9 and len(r.schema) == 5

    def test_codebook_join(self, catalog):
        """Figure 2 decode as a join (SS2.4)."""
        r = execute(
            "SELECT SEX, VALUE, AVE_SALARY FROM census "
            "JOIN age_codes ON AGE_GROUP = CATEGORY WHERE AGE_GROUP = 4",
            catalog,
        )
        assert len(r) == 2
        assert all(row[1] == "over 60" for row in r)

    def test_group_by(self, catalog):
        r = execute(
            "SELECT SEX, SUM(POPULATION) AS POP FROM census GROUP BY SEX ORDER BY POP DESC",
            catalog,
        )
        assert len(r) == 2
        assert r.row(0)[0] == "F"  # women outnumber men in Figure 1

    def test_a_row_added_to_the_table_is_the_whole_job(self, monkeypatch):
        """Parser, planner and both group-by operators read one table."""
        import math

        from repro.relational.aggregates import AGGREGATES, Aggregate, GroupBy
        from repro.relational.relation import Relation, StoredRelation
        from repro.relational.schema import Schema, category, measure
        from repro.relational.vectorized import VecGroupBy
        from repro.storage.sharded import ShardedTransposedFile

        def rms(values):
            clean = [v for v in values if v is not NA]
            return math.sqrt(sum(v * v for v in clean) / len(clean)) if clean else NA

        monkeypatch.setitem(AGGREGATES, "rms", Aggregate(rms))
        schema = Schema([category("g", DataType.STR), measure("x")])
        rows = [(f"g{i % 3}", NA if i % 7 == 3 else float(i % 11)) for i in range(40)]
        text = "SELECT g, RMS(x) AS r, COUNT(*) AS n FROM t GROUP BY g"
        memory, sharded = Catalog(), Catalog()
        memory.register(Relation("t", schema, rows))
        storage = ShardedTransposedFile(schema.types, shards=2, name="t")
        sharded.register(StoredRelation.load("t", schema, rows, storage))

        def operators(op):
            while op is not None:
                yield type(op)
                op = getattr(op, "child", None)

        results = []
        for cat, vectorized, operator in (
            (memory, False, GroupBy),
            (memory, True, VecGroupBy),
            (sharded, True, VecGroupBy),
        ):
            pipeline = plan(parse(text), cat, use_vectorized=vectorized)
            assert operator in operators(pipeline)
            results.append(list(pipeline))
        assert [key for key, _, _ in results[0]] == ["g0", "g1", "g2"]
        assert results[1] == results[2] == results[0]

    def test_weighted_avg(self, catalog):
        r = execute(
            "SELECT RACE, WEIGHTED_AVG(AVE_SALARY, POPULATION) AS S FROM census GROUP BY RACE",
            catalog,
        )
        by_race = {row[0]: row[1] for row in r}
        assert by_race["B"] == pytest.approx(29_402)

    def test_expression_projection(self, catalog):
        r = execute("SELECT AVE_SALARY / 1000 AS K FROM census WHERE SEX = 'M' LIMIT 2", catalog)
        assert all(isinstance(row[0], float) for row in r)

    def test_in_predicate(self, catalog):
        r = execute("SELECT * FROM census WHERE AGE_GROUP IN (1, 4)", catalog)
        assert len(r) == 5

    def test_grouping_validation(self, catalog):
        with pytest.raises(QueryError, match="GROUP BY"):
            execute("SELECT SEX, SUM(POPULATION) AS P FROM census GROUP BY RACE", catalog)

    def test_predicate_pushdown_below_join(self, catalog):
        q = parse(
            "SELECT * FROM census JOIN age_codes ON AGE_GROUP = CATEGORY "
            "WHERE SEX = 'M' AND VALUE = 'over 60'"
        )
        pipeline = plan(q, catalog)
        # Both conjuncts were pushed below the join: the top operator is the
        # join itself, not a Select.
        from repro.relational.operators import HashJoin

        assert isinstance(pipeline, HashJoin)
        rows = pipeline.rows()
        assert len(rows) == 1

    def test_unknown_table(self, catalog):
        from repro.core.errors import CatalogError

        with pytest.raises(CatalogError):
            execute("SELECT * FROM missing", catalog)
