"""EXPLAIN ANALYZE: measured operator trees on both engines."""

import json

import pytest

from repro.core.errors import QueryError
from repro.relational.catalog import Catalog
from repro.relational.planner import explain_analyze
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile


@pytest.fixture()
def catalog():
    schema = Schema(
        [
            category("dept", DataType.STR),
            measure("salary", DataType.FLOAT),
            measure("age", DataType.INT),
        ]
    )
    rows = [(f"d{i % 3}", 1000.0 + i, 20 + i % 40) for i in range(200)]
    catalog = Catalog()
    catalog.register(Relation("people", schema, rows))
    return catalog


QUERY = "SELECT dept, COUNT(*) AS n FROM people WHERE age > 30 GROUP BY dept"


class TestEngines:
    def test_vectorized_engine_measured(self, catalog):
        result = explain_analyze(QUERY, catalog, engine="vectorized")
        assert result.engine == "vectorized"
        scan = result.root.find("VecScan")
        select = result.root.find("VecSelect")
        assert scan is not None and select is not None
        assert scan.rows == 200 and scan.chunks > 0
        assert select.rows == sum(1 for _ in catalog.get("people") if _[2] > 30)
        assert len(result.relation) == 3

    def test_row_engine_measured(self, catalog):
        result = explain_analyze(QUERY, catalog, engine="row")
        assert result.engine == "row"
        select = result.root.find("Select")
        relation = result.root.find("Relation")
        assert relation is not None and relation.rows == 200
        assert select.rows == sum(1 for _ in catalog.get("people") if _[2] > 30)
        assert len(result.relation) == 3

    def test_engines_agree_on_output(self, catalog):
        vec = explain_analyze(QUERY, catalog, engine="vectorized")
        row = explain_analyze(QUERY, catalog, engine="row")
        assert sorted(vec.relation) == sorted(row.relation)

    def test_scan_names_each_columns_vector_kind(self, catalog):
        schema = Schema(
            [
                measure("x", DataType.FLOAT),
                measure("k", DataType.INT),
                category("g", DataType.CATEGORY),
                measure("b", DataType.BOOL),
                category("s", DataType.STR),
            ]
        )
        rows = [(float(i), i, i % 4, i % 2 == 0, f"s{i % 3}") for i in range(50)]
        pool = BufferPool(SimulatedDisk(block_size=256), capacity=4)
        stored = StoredRelation.load("stored", schema, rows, TransposedFile(pool, schema.types))
        catalog.register(stored)
        text = "SELECT s, count(*) AS n FROM stored WHERE x > k / 2 AND b = 1 AND g < 3 GROUP BY s"
        result = explain_analyze(text, catalog)
        expected = "vectors=[x:float64, k:int64, g:int32, b:bool, s:object]"
        assert expected in result.root.find("VecScan").detail
        assert expected in result.render()
        # An in-memory relation's chunks are list slices: every column is object.
        scan = explain_analyze(QUERY, catalog).root.find("VecScan")
        assert "vectors=[dept:object, age:object]" in scan.detail

    def test_auto_picks_vectorized_for_chunk_source(self, catalog):
        assert explain_analyze(QUERY, catalog).engine == "vectorized"

    def test_vectorized_accepted_for_join(self, catalog):
        catalog.register(
            Relation(
                "depts",
                Schema([category("d", DataType.STR)]),
                [("d0",), ("d1",)],
            )
        )
        join = "SELECT * FROM people JOIN depts ON dept = d"
        result = explain_analyze(join, catalog, engine="vectorized")
        assert result.engine == "vectorized"
        assert "build_rows=2, probe_key=object" in result.root.detail
        assert explain_analyze(join, catalog).engine == "vectorized"

    def test_unknown_engine_rejected(self, catalog):
        with pytest.raises(QueryError, match="unknown engine"):
            explain_analyze(QUERY, catalog, engine="warp")


class TestRendering:
    def test_render_shows_rows_and_timings_per_operator(self, catalog):
        for engine in ("row", "vectorized"):
            text = explain_analyze(QUERY, catalog, engine=engine).render()
            lines = text.splitlines()
            assert lines[0] == f"EXPLAIN ANALYZE ({engine} engine)"
            assert lines[-1] == "(3 rows)"
            operator_lines = lines[1:-1]
            assert len(operator_lines) >= 3  # scan, select, group-by at least
            for line in operator_lines:
                assert "rows=" in line and "time=" in line and "ms" in line

    def test_to_dict_is_json_serializable(self, catalog):
        data = explain_analyze(QUERY, catalog).to_dict()
        json.dumps(data)
        assert data["engine"] == "vectorized"
        assert data["plan"]["counters"]["rows"] == 3


class TestShellExplain:
    def test_do_explain_prints_both_engines(self):
        import io

        from repro.core.shell import AnalystShell
        from repro.workloads.census import generate_microdata

        out = io.StringIO()
        shell = AnalystShell(stdout=out)
        shell.dbms.load_raw(generate_microdata(200, seed=5))
        shell.onecmd("view study census_micro")
        shell.onecmd("open study")
        shell.onecmd("explain SELECT AGE FROM v WHERE AGE > 40")
        shell.onecmd("explain row SELECT AGE FROM v WHERE AGE > 40")
        text = out.getvalue()
        assert "EXPLAIN ANALYZE (vectorized engine)" in text
        assert "EXPLAIN ANALYZE (row engine)" in text
        assert "rows=" in text and "time=" in text
