"""Tests for attribute indexes and index-assisted planning."""

import pytest

from repro.core.errors import ExpressionError
from repro.relational.catalog import Catalog
from repro.relational.expressions import Const, col
from repro.relational.index import AttributeIndex, IndexScan, match_indexable_conjunct
from repro.relational.planner import execute, plan
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.workloads.census import generate_microdata


@pytest.fixture()
def micro():
    return generate_microdata(2000, seed=55, bad_value_rate=0.0)


@pytest.fixture()
def indexed_catalog(micro):
    catalog = Catalog()
    catalog.register(micro, "micro")
    catalog.register_index("micro", "REGION", AttributeIndex.build(micro, "REGION"))
    catalog.register_index("micro", "AGE", AttributeIndex.build(micro, "AGE"))
    return catalog


class TestAttributeIndex:
    def test_lookup(self, micro):
        index = AttributeIndex.build(micro, "REGION")
        rows = index.lookup(3)
        assert rows
        assert all(micro.row(r)[3] == 3 for r in rows)
        assert len(rows) == sum(1 for v in micro.column("REGION") if v == 3)

    def test_missing_value_lookup(self, micro):
        index = AttributeIndex.build(micro, "REGION")
        assert index.lookup(999) == []

    def test_na_rows_not_indexed(self):
        relation = Relation("r", Schema([measure("x")]), [(1.0,), (NA,), (1.0,)])
        index = AttributeIndex.build(relation, "x")
        assert index.lookup(1.0) == [0, 2]
        assert index.distinct_values == 1

    def test_range(self, micro):
        index = AttributeIndex.build(micro, "AGE")
        rows = index.range(30, 40)
        ages = micro.column("AGE")
        expected = sorted(i for i, a in enumerate(ages) if 30 <= a <= 40)
        assert rows == expected

    def test_build_returns_the_relations_own_index(self, micro):
        index = AttributeIndex.build(micro, "AGE")
        assert index is micro.index_on("AGE") is AttributeIndex.build(micro, "AGE")
        assert micro.indexes == {"AGE": index}

    def test_staleness(self, micro):
        # Stale means "no longer the relation's index": a cell write is
        # maintained, an unhashable cell drops the index.
        index = AttributeIndex.build(micro, "AGE")
        assert not index.stale_for(micro)
        micro.set_value(0, "AGE", 99)
        assert not index.stale_for(micro)
        assert index.stale_for(micro.copy())
        micro.set_value(0, "AGE", [99])
        assert index.stale_for(micro)
        micro.set_value(0, "AGE", 99)
        assert not micro.index_on("AGE").stale_for(micro)

    def test_one_sided_ranges(self, micro):
        index = AttributeIndex.build(micro, "AGE")
        ages = micro.column("AGE")
        for kwargs, keep in (
            ({"hi": 30, "hi_open": True}, lambda a: a < 30),
            ({"hi": 30}, lambda a: a <= 30),
            ({"lo": 30, "lo_open": True}, lambda a: a > 30),
            ({"lo": 30}, lambda a: a >= 30),
        ):
            assert index.range(**kwargs) == [i for i, a in enumerate(ages) if keep(a)]


def small_relation():
    schema = Schema([measure("k", DataType.INT), measure("v", DataType.FLOAT)])
    return Relation("r", schema, [(1, 10.0), (2, 20.0), (3, 30.0)])


def assert_exact(relation):
    """Every live index holds what a fresh build over the rows would."""
    for attribute, index in relation.indexes.items():
        fresh = AttributeIndex(attribute, relation.column(attribute))
        assert index._buckets == fresh._buckets, attribute
        if index._sorted_keys is not None:
            assert index._sorted_keys == sorted(fresh._buckets), attribute


class TestMaintenance:
    """The relation keeps its indexes exact across its own writes."""

    def test_cell_update_of_the_indexed_attribute(self):
        # At the parent commit the index was a build-time snapshot: WHERE
        # k = 2 returned the row now holding 9, WHERE k = 9 nothing.
        relation = small_relation()
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "k", AttributeIndex.build(relation, "k"))
        relation.set_value(1, "k", 9)
        assert isinstance(plan(parse("SELECT * FROM r WHERE k = 9"), catalog), IndexScan)
        assert list(execute("SELECT * FROM r WHERE k = 2", catalog)) == []
        assert list(execute("SELECT * FROM r WHERE k = 9", catalog)) == [(9, 20.0)]
        assert list(execute("SELECT v FROM r WHERE k > 2", catalog)) == [(20.0,), (30.0,)]
        assert_exact(relation)

    def test_shared_values_and_na_transitions(self):
        relation = small_relation()
        index = relation.index_on("k")
        index.range(0, 10)  # build the sorted keys so they are maintained too
        relation.set_value(0, "k", 3)  # joins row 2's bucket, ahead of it
        assert index.lookup(3) == [0, 2]
        relation.set_value(2, "k", NA)  # leaves it; NA is not indexed
        assert index.lookup(3) == [0] and index.distinct_values == 2
        relation.set_value(2, "k", 1)  # back from NA, a new smallest key
        assert index.range(hi=2) == [1, 2]
        relation.set_value(1, "v", 99.0)  # another attribute: untouched
        assert_exact(relation)

    def test_appended_column_keeps_indexes_valid(self):
        relation = small_relation()
        index = relation.index_on("k")
        relation.append_column(measure("w"), [1.0, 2.0, 3.0])
        assert relation.row(1) == (2, 20.0, 2.0)
        assert not index.stale_for(relation) and index.lookup(2) == [1]
        assert relation.epochs["w"] > 0
        assert relation.index_on("w").lookup(3.0) == [2]

    def test_unhashable_cell_drops_the_index(self):
        relation = small_relation()
        index = relation.index_on("k")
        relation.set_value(1, "k", [2])  # what a JSON client can send
        assert index.stale_for(relation)
        assert match_indexable_conjunct(col("k") == 3, relation.index_on) is None

    def test_unorderable_key_suspends_ranges_only(self):
        relation = small_relation()
        index = relation.index_on("k")
        assert index.range(lo=2) == [1, 2]
        relation.set_value(0, "k", "one")
        assert index.lookup("one") == [0] and index.lookup(2) == [1]
        assert match_indexable_conjunct(col("k") > 2, relation.index_on) is None
        relation.set_value(0, "k", 1)
        assert index.range(lo=2) == [1, 2]


class TestIndexScan:
    def test_residual_applied(self, micro):
        index = AttributeIndex.build(micro, "REGION")
        scan = IndexScan(micro, index, index.lookup(2), residual=col("AGE") > 50)
        rows = scan.rows()
        assert all(r[3] == 2 and r[4] > 50 for r in rows)
        assert scan.rows_fetched >= len(rows)


class TestPlannerIntegration:
    def test_equality_uses_index(self, indexed_catalog):
        pipeline = plan(parse("SELECT * FROM micro WHERE REGION = 5"), indexed_catalog)
        assert isinstance(pipeline, IndexScan)

    def test_between_uses_index(self, indexed_catalog):
        pipeline = plan(
            parse("SELECT * FROM micro WHERE AGE BETWEEN 20 AND 30"), indexed_catalog
        )
        assert isinstance(pipeline, IndexScan)

    def test_results_identical_with_and_without_index(self, micro, indexed_catalog):
        plain = Catalog()
        plain.register(micro, "micro")
        for text in (
            "SELECT PERSON_ID FROM micro WHERE REGION = 5 AND AGE > 40",
            "SELECT PERSON_ID, INCOME FROM micro WHERE AGE BETWEEN 25 AND 35",
        ):
            with_index = sorted(execute(text, indexed_catalog))
            without = sorted(execute(text, plain))
            assert with_index == without

    def test_index_fetches_fewer_rows(self, micro, indexed_catalog):
        pipeline = plan(parse("SELECT * FROM micro WHERE REGION = 5"), indexed_catalog)
        assert pipeline.rows_fetched < len(micro) / 2

    def test_stale_index_not_used(self, micro, indexed_catalog):
        micro.set_value(0, "REGION", [5])  # an unhashable cell drops the index
        pipeline = plan(parse("SELECT * FROM micro WHERE REGION = 5"), indexed_catalog)
        assert not isinstance(pipeline, IndexScan)

    def test_unindexed_attribute_scans(self, indexed_catalog):
        pipeline = plan(
            parse("SELECT * FROM micro WHERE INCOME > 50000"), indexed_catalog
        )
        assert not isinstance(pipeline, IndexScan)

    def test_join_queries_skip_index(self, micro, indexed_catalog):
        from repro.workloads.census import region_codebook

        indexed_catalog.register(
            region_codebook().to_relation("CODE", "LABEL"), "region_codes"
        )
        pipeline = plan(
            parse(
                "SELECT * FROM micro JOIN region_codes ON REGION = CODE "
                "WHERE REGION = 5"
            ),
            indexed_catalog,
        )
        assert not isinstance(pipeline, IndexScan)


class TestMatching:
    def test_reversed_equality(self, micro):
        indexes = {"REGION": AttributeIndex.build(micro, "REGION")}
        matched = match_indexable_conjunct(Const(5) == col("REGION"), indexes.get)
        assert matched is not None

    def test_inequality_not_matched(self, micro):
        indexes = {"REGION": AttributeIndex.build(micro, "REGION")}
        assert match_indexable_conjunct(col("REGION") != 5, indexes.get) is None
        assert match_indexable_conjunct(col("AGE") > 5, indexes.get) is None

    @pytest.mark.parametrize(
        "conjunct, keep",
        [
            (col("AGE") > 60, lambda a: a > 60),
            (col("AGE") >= 60, lambda a: a >= 60),
            (col("AGE") < 25, lambda a: a < 25),
            (col("AGE") <= 25, lambda a: a <= 25),
            (Const(60) < col("AGE"), lambda a: a > 60),
            (Const(60) <= col("AGE"), lambda a: a >= 60),
            (Const(25) > col("AGE"), lambda a: a < 25),
            (Const(25) >= col("AGE"), lambda a: a <= 25),
            (col("AGE") > 60.5, lambda a: a > 60.5),
        ],
    )
    def test_one_sided_comparisons_map_onto_ranges(self, micro, conjunct, keep):
        _, rows = match_indexable_conjunct(conjunct, micro.index_on)
        assert rows == [i for i, a in enumerate(micro.column("AGE")) if keep(a)]

    @pytest.mark.parametrize(
        "conjunct",
        [
            col("AGE") == NA,
            col("AGE") > float("nan"),
            col("AGE").between(NA, 30),
            col("AGE") == [30],
            col("AGE") > "thirty",
            col("AGE") > None,
            col("AGE") > col("REGION"),
            col("AGE") + 1 > 30,
            (col("AGE") > 30) | (col("AGE") < 20),
            ~(col("AGE") > 30),
            col("AGE").is_na(),
            col("AGE").is_in([30, 31]),
        ],
    )
    def test_left_to_the_scan(self, micro, conjunct):
        assert match_indexable_conjunct(conjunct, micro.index_on) is None

    def test_a_rejected_comparison_still_raises(self, micro):
        # The index cannot order 'thirty' against its keys, so the scan
        # decides — and rejects the comparison as it always did.
        catalog = Catalog()
        catalog.register(micro, "micro")
        catalog.register_index("micro", "AGE", micro.index_on("AGE"))
        with pytest.raises(ExpressionError, match="cannot compare"):
            list(plan(parse("SELECT * FROM micro WHERE AGE > 'thirty'"), catalog))
