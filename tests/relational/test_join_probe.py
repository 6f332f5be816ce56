"""A join's probe input read q-of-m: the planner prunes the scan under a join.

The hash join is a chunk operator, and the vectorized selection,
projection and group-by sit above it; over a transposed-file probe input
the planner feeds it from a ``VecScan`` of the columns the query touches
plus the join keys, with the pushed conjuncts as a ``VecSelect``.  Every
case is checked against ``use_vectorized=False``, which puts the row
operators above the join and scans the full width.
"""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.operators import HashJoin
from repro.relational.planner import explain_analyze, plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Attribute, AttributeRole, Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.relational.vectorized import VecGroupBy, VecScan, VecSelect, VectorOperator
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile

COLUMNS = ["G", "C1", "C2", "C3", "C4", "C5"]


def fact_schema():
    return Schema([category("G", DataType.CATEGORY)] + [measure(c) for c in COLUMNS[1:]])


def fact_rows():
    rows = []
    for i in range(400):
        c1 = NA if i % 17 == 0 else float(i % 50)
        group = NA if i % 41 == 0 else i % 5  # code 4 is not in the code book
        rows.append((group, c1, float(i % 7), float(i), float(i % 3), float(i % 11)))
    return rows


class Estate:
    def __init__(self):
        self.disk = SimulatedDisk(block_size=256)
        self.pool = BufferPool(self.disk, capacity=16)
        schema = fact_schema()
        self.file = TransposedFile(self.pool, schema.types)
        self.file.append_rows(fact_rows())
        heap_pool = BufferPool(SimulatedDisk(block_size=256), capacity=16)
        codes = Relation(
            "codes",
            Schema(
                [
                    category("CODE", DataType.CATEGORY),
                    Attribute("LABEL", DataType.STR, AttributeRole.CATEGORY),
                ]
            ),
            [(code, f"group {code}") for code in range(4)],
        )
        self.catalog = Catalog()
        self.catalog.register(StoredRelation("t", schema, self.file))
        self.catalog.register(
            StoredRelation.load("h", schema, fact_rows(), HeapFile(heap_pool, schema.types))
        )
        self.catalog.register(Relation("m", schema, fact_rows()))
        self.catalog.register(codes)

    def chain_pages(self, names):
        return sum(self.file.column_page_count(COLUMNS.index(n)) for n in names)

    def block_reads(self, pipeline):
        self.pool.clear()
        self.disk.reset_stats()
        rows = list(pipeline)
        return rows, self.disk.stats.block_reads


@pytest.fixture(scope="module")
def estate():
    return Estate()


def probe_of(pipeline):
    """The left input of the plan's join."""
    node = pipeline
    while not isinstance(node, HashJoin):
        node = node.child
    return node.left


def canon(rows):
    return sorted((tuple(repr(v) for v in row) for row in rows))


def both(estate, text):
    query = parse(text)
    pruned = plan(query, estate.catalog)
    rows = list(pruned)
    assert canon(rows) == canon(plan(query, estate.catalog, use_vectorized=False))
    assert rows, "a case that selects nothing checks nothing"
    return pruned


def scanned(probe):
    while not isinstance(probe, VecScan):
        probe = probe.child
    return probe.schema.names


class TestPrunedProbe:
    def test_join_group_by(self, estate):
        pipeline = both(
            estate,
            "SELECT LABEL, count(C1) AS n, avg(C2) AS a FROM t JOIN codes ON G = CODE "
            "WHERE C4 > 0 GROUP BY LABEL",
        )
        probe = probe_of(pipeline)
        assert isinstance(probe, VecSelect)  # the pushed conjunct, as a chunk kernel
        assert scanned(probe) == ["G", "C1", "C2", "C4"]
        assert isinstance(pipeline, VecGroupBy)  # above the join, as above a scan

    def test_join_projection(self, estate):
        pipeline = both(
            estate, "SELECT C3, LABEL, C1 + C5 AS s FROM t JOIN codes ON G = CODE WHERE C3 < 90"
        )
        assert scanned(probe_of(pipeline)) == ["G", "C1", "C3", "C5"]

    def test_select_star_stays_unpruned(self, estate):
        pipeline = both(estate, "SELECT * FROM t JOIN codes ON G = CODE WHERE C3 < 50")
        probe = probe_of(pipeline)
        assert not isinstance(probe, VectorOperator)
        assert probe.schema.names == COLUMNS

    def test_left_join_keeps_right_side_predicate_above_the_join(self, estate):
        pipeline = both(
            estate,
            "SELECT C3, LABEL FROM t LEFT JOIN codes ON G = CODE WHERE LABEL = 'group 2'",
        )
        probe = probe_of(pipeline)
        assert isinstance(probe, VecScan)  # nothing to push on the left
        assert scanned(probe) == ["G", "C3"]

    def test_left_join_pads_unmatched_probe_rows(self, estate):
        pipeline = both(estate, "SELECT C3, LABEL FROM t LEFT JOIN codes ON G = CODE WHERE C3 < 60")
        assert any(row[1] is NA for row in pipeline)

    def test_conjunct_spanning_both_sides(self, estate):
        pipeline = both(
            estate,
            "SELECT LABEL, C2 FROM t JOIN codes ON G = CODE WHERE C5 > CODE AND C4 > 0",
        )
        # C5 is read for the conjunct that has to wait for the join.
        assert scanned(probe_of(pipeline)) == ["G", "C2", "C4", "C5"]

    def test_join_key_that_is_not_otherwise_selected(self, estate):
        pipeline = both(estate, "SELECT LABEL, C1 FROM t JOIN codes ON G = CODE")
        assert scanned(probe_of(pipeline)) == ["G", "C1"]

    def test_order_and_limit_above_a_pruned_join(self, estate):
        both(
            estate,
            "SELECT C3, LABEL FROM t JOIN codes ON G = CODE WHERE C3 > 300 "
            "ORDER BY C3 DESC LIMIT 5",
        )

    @pytest.mark.parametrize("table", ["h", "m"])
    def test_heap_backed_and_in_memory_probes_stay_row_wise(self, estate, table):
        pipeline = both(
            estate,
            f"SELECT LABEL, count(C1) AS n FROM {table} JOIN codes ON G = CODE "
            "WHERE C4 > 0 GROUP BY LABEL",
        )
        # The join batches the probe's rows itself: no scan is pruned for it.
        node = probe_of(pipeline)
        while node is not None:
            assert not isinstance(node, VectorOperator)
            node = getattr(node, "child", None)
        assert isinstance(pipeline, VecGroupBy)


class TestBlockReads:
    QUERY = (
        "SELECT LABEL, count(C1) AS n, avg(C2) AS a FROM t JOIN codes ON G = CODE "
        "WHERE C4 > 0 GROUP BY LABEL"
    )

    def test_the_join_reads_only_the_needed_chains(self, estate):
        query = parse(self.QUERY)
        _, reads = estate.block_reads(plan(query, estate.catalog))
        assert reads == estate.chain_pages(["G", "C1", "C2", "C4"])
        _, full = estate.block_reads(plan(query, estate.catalog, use_vectorized=False))
        assert full == estate.chain_pages(COLUMNS)

    def test_select_star_reads_every_chain(self, estate):
        query = parse("SELECT * FROM t JOIN codes ON G = CODE")
        _, reads = estate.block_reads(plan(query, estate.catalog))
        assert reads == estate.chain_pages(COLUMNS)


class TestEngineLabel:
    """A chunk-fed join is the vectorized engine's, and so is what sits above
    it; the tree shows the pruned scan and what the join built and probed."""

    def test_pruned_join_is_labelled_vectorized(self, estate):
        result = explain_analyze(TestBlockReads.QUERY, estate.catalog)
        assert result.engine == "vectorized"
        scan = result.root.find("VecScan")
        assert scan is not None and scan.rows == 400
        assert "columns=['G', 'C1', 'C2', 'C4']" in scan.detail
        assert result.root.find("VecSelect").rows == sum(1 for r in fact_rows() if r[4] > 0)
        assert result.root.find("HashJoin") is not None

    def test_vectorized_engine_runs_a_chunk_fed_join(self, estate):
        result = explain_analyze(TestBlockReads.QUERY, estate.catalog, engine="vectorized")
        assert result.engine == "vectorized"
        join = result.root.find("HashJoin")
        assert "build_rows=4, probe_key=int32" in join.detail
        assert "HashJoin [build_rows=4, probe_key=int32]" in result.render()
        assert canon(result.relation) == canon(
            plan(parse(TestBlockReads.QUERY), estate.catalog, use_vectorized=False)
        )

    def test_row_engine_request_scans_the_full_width(self, estate):
        result = explain_analyze(TestBlockReads.QUERY, estate.catalog, engine="row")
        assert result.engine == "row"
        assert result.root.find("VecScan") is None
