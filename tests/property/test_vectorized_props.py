"""Property-based equivalence: the vectorized engine vs. the row engine.

The vectorized operators exist purely as a faster evaluation strategy, so
for every generated relation, predicate, projection, and aggregation the
two engines must produce identical rows — across dtypes, NA-heavy
columns, and chunk sizes that straddle chunk boundaries (1, chunk - 1,
chunk, chunk + 1, 3*chunk).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.aggregates import AGGREGATES, AggregateSpec, GroupBy
from repro.relational.expressions import col
from repro.relational.operators import Project, Select
from repro.relational.relation import Relation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import NA, DataType
from repro.relational.vectorized import (
    VecGroupBy,
    VecProject,
    VecScan,
    VecSelect,
    chunks_from_rows,
)

CHUNK = 4  # small on purpose so a handful of rows spans several chunks

SCHEMA = Schema(
    [
        category("G", DataType.STR),
        category("K", DataType.INT),
        measure("X"),
        measure("Y"),
        category("B", DataType.BOOL),
    ]
)

maybe_na = lambda strategy: st.one_of(st.just(NA), strategy)  # noqa: E731

row = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    maybe_na(st.integers(min_value=-5, max_value=5)),
    maybe_na(st.floats(min_value=-100, max_value=100, allow_nan=False)),
    maybe_na(st.floats(min_value=-100, max_value=100, allow_nan=False)),
    maybe_na(st.booleans()),
)

rows_strategy = st.lists(row, min_size=0, max_size=13)

chunk_sizes = st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])

predicates = st.sampled_from(
    [
        col("X") > 0,
        col("X") <= col("Y"),
        (col("K") >= -2) & (col("K") < 3),
        col("G").is_in(["a", "c"]) | col("B"),
        ~col("Y").is_na(),
        col("X").between(-50, 50),
    ]
)


@given(rows_strategy, chunk_sizes)
@settings(max_examples=120, deadline=None)
def test_chunking_round_trips_rows(rows, chunk_size):
    chunks = list(chunks_from_rows(SCHEMA, rows, chunk_size=chunk_size))
    rebuilt = [r for chunk in chunks for r in chunk.iter_rows()]
    assert rebuilt == rows
    assert all(chunk.length <= chunk_size for chunk in chunks)


@given(rows_strategy, chunk_sizes, predicates)
@settings(max_examples=150, deadline=None)
def test_select_matches_row_engine(rows, chunk_size, predicate):
    rel = Relation("t", SCHEMA, rows)
    vec = VecSelect(VecScan(rel, chunk_size=chunk_size), predicate)
    assert vec.rows() == list(Select(rel, predicate))


@given(rows_strategy, chunk_sizes)
@settings(max_examples=120, deadline=None)
def test_project_matches_row_engine(rows, chunk_size):
    rel = Relation("t", SCHEMA, rows)
    items = ["G", ("x2", col("X") * 2), ("xy", col("X") + col("Y")), "B"]
    vec = VecProject(VecScan(rel, chunk_size=chunk_size), items)
    row_op = Project(rel, items)
    assert vec.schema.names == row_op.schema.names
    assert vec.rows() == list(row_op)


@given(rows_strategy, chunk_sizes, st.sampled_from([["G"], ["G", "K"], []]))
@settings(max_examples=120, deadline=None)
def test_groupby_matches_row_engine(rows, chunk_size, keys):
    rel = Relation("t", SCHEMA, rows)
    specs = [
        AggregateSpec("count", None, "n"),
        AggregateSpec("count", "X", "nx"),
        AggregateSpec("sum", "X", "sx"),
        AggregateSpec("mean", "Y", "my"),
        AggregateSpec("min", "X", "mn"),
        AggregateSpec("max", "Y", "mx"),
        AggregateSpec("median", "X", "md"),
        AggregateSpec("var", "Y", "vy"),
        AggregateSpec("std", "X", "sd"),
        AggregateSpec("count_distinct", "K", "dk"),
        AggregateSpec("quantile_25", "Y", "q25"),
        AggregateSpec("weighted_avg", "X", "wx", weight="Y"),
    ]
    vec = VecGroupBy(VecScan(rel, chunk_size=chunk_size), keys, specs)
    assert vec.rows() == list(GroupBy(rel, keys, specs))


@given(rows_strategy, chunk_sizes, predicates)
@settings(max_examples=100, deadline=None)
def test_full_pipeline_matches_row_engine(rows, chunk_size, predicate):
    """Scan -> Select -> Project chains agree end to end."""
    rel = Relation("t", SCHEMA, rows)
    items = ["G", "X", ("shifted", col("Y") - 1)]
    vec = VecProject(
        VecSelect(VecScan(rel, chunk_size=chunk_size), predicate), items
    )
    assert vec.rows() == list(Project(Select(rel, predicate), items))


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK, CHUNK - 1, CHUNK + 1, 3 * CHUNK])
def test_boundary_row_counts(n_rows):
    """Row counts sitting exactly on chunk boundaries round-trip cleanly."""
    rows = [("a", i, float(i), float(-i), bool(i % 2)) for i in range(n_rows)]
    rel = Relation("t", SCHEMA, rows)
    vec = VecSelect(VecScan(rel, chunk_size=CHUNK), col("X") >= 0)
    assert vec.rows() == list(Select(rel, col("X") >= 0))


ARRAYS = st.one_of(
    # One decimal: only a left-to-right sum reproduces Python's last bits.
    st.lists(
        st.one_of(
            st.integers(-(10**6), 10**6).map(lambda i: i / 10),
            st.floats(allow_nan=False),
            st.sampled_from([0.0, -0.0, 1e16]),
        ),
        max_size=300,
    ).map(lambda v: np.array(v, np.float64)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300).map(
        lambda v: np.array(v, np.int64)
    ),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=300).map(
        lambda v: np.array(v, np.int32)
    ),
    st.lists(st.booleans(), max_size=300).map(lambda v: np.array(v, bool)),
)


@given(ARRAYS)
@settings(max_examples=300, deadline=None)
def test_array_evaluators_are_the_list_evaluators(values):
    """Each ``vec_*`` twin returns its list evaluator's answer, bit for bit.

    ``repr`` tells ``-0.0`` from ``0.0`` and ``True`` from ``1``; a float sum
    that only a sequential left-to-right addition reproduces shows in its
    last digits.
    """
    listed = values.tolist()
    for name, found in AGGREGATES.items():
        if found.vector is None:
            continue
        want = found.evaluate(listed)
        got = found.vector(values)
        assert type(got) is type(want), name
        assert repr(got) == repr(want), name
