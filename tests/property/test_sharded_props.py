"""Property tests for sharded tables and the partial-state protocol.

Two invariants:

* insert-then-delete returns every incremental computation to a state
  equivalent to never having seen the values (including ``AlgebraicForm``
  with a ``sumlog`` measure, whose non-positive counter must unwind);
* a grouped query over a sharded table answers exactly as over one
  stream, for every shard count, on NA-heavy columns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.aggregates import (
    IncrementalCount,
    IncrementalMean,
    IncrementalMinMax,
    IncrementalStd,
    IncrementalSum,
    IncrementalVariance,
)
from repro.incremental.differencing import DEFINITIONS, AlgebraicForm
from repro.relational.catalog import Catalog
from repro.relational.planner import plan
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType, is_na
from repro.storage.sharded import ShardedTransposedFile

# +-1e3 keeps Welford downdate cancellation (~eps * n * range^2) well
# below the comparison tolerance; the property hunts state corruption,
# not last-ulp float noise.
finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
value_or_na = st.one_of(finite, st.just(NA))

COMPUTATIONS = [
    IncrementalCount,
    IncrementalSum,
    IncrementalMean,
    IncrementalVariance,
    IncrementalStd,
    IncrementalMinMax,
]


def equivalent(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(equivalent, a, b))
    if is_na(a) and is_na(b):
        return True
    if is_na(a) or is_na(b):
        return False
    # abs soaks up sqrt-amplified downdate residue near zero (std of an
    # all-equal column after a large insert/delete pair).
    return a == pytest.approx(b, rel=1e-6, abs=1e-3)


@given(
    st.lists(value_or_na, min_size=1, max_size=40),
    st.lists(value_or_na, min_size=0, max_size=20),
)
@settings(max_examples=120, deadline=None)
def test_insert_then_delete_round_trips(base, burst):
    for cls in COMPUTATIONS:
        comp = cls()
        comp.initialize(base)
        reference = cls()
        reference.initialize(base)
        for value in burst:
            comp.on_insert(value)
        for value in reversed(burst):
            comp.on_delete(value)
        assert equivalent(comp.value, reference.value), cls.__name__


@given(
    st.lists(st.one_of(finite, st.just(NA), st.just(0.0)), min_size=1, max_size=30),
    st.lists(st.one_of(finite, st.just(NA), st.just(0.0)), max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_sumlog_form_round_trips(base, burst):
    form = AlgebraicForm(DEFINITIONS["geometric_mean"])
    form.initialize(base)
    reference = AlgebraicForm(DEFINITIONS["geometric_mean"])
    reference.initialize(base)
    for value in burst:
        form.on_insert(value)
    for value in reversed(burst):
        form.on_delete(value)
    assert equivalent(form.value, reference.value)


# The answer must be *identical* (==, not approx) for every shard count.
int_measure = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(float), st.just(NA)
)


def rows_strategy():
    return st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), int_measure, int_measure),
        min_size=1,
        max_size=50,
    )


def run_query(rows, shards, text=None):
    schema = Schema([category("G", DataType.STR), measure("X"), measure("Y")])
    storage = ShardedTransposedFile(schema.types, shards=shards, name="t")
    stored = StoredRelation.load("t", schema, rows, storage)
    catalog = Catalog()
    catalog.register(stored)
    if text is None:
        text = (
            "SELECT G, count(X) AS n, sum(X) AS s, avg(X) AS a, "
            "min(Y) AS mn, max(Y) AS mx FROM t GROUP BY G"
        )
    return list(plan(parse(text), catalog))


@given(rows_strategy())
@settings(max_examples=40, deadline=None)
def test_sharded_equals_single_stream_for_all_shard_counts(rows):
    reference = run_query(rows, shards=1)
    for shards in (2, 4, 8):
        assert run_query(rows, shards) == reference


# -- order and distinct-count aggregates --------------------------------------
#
# Medians, quantiles and distinct counts are the batch answers for every
# shard count.

SKETCH_QUERY = (
    "SELECT G, median(X) AS med, count(DISTINCT X) AS d, "
    "quantile_25(X) AS q1, quantile_75(X) AS q3, quantile_95(Y) AS p95 "
    "FROM t GROUP BY G"
)


def _exact_group_truth(rows):
    from repro.relational.aggregates import (
        agg_count_distinct,
        agg_median,
        agg_quantile,
    )

    order = []
    groups = {}
    for g, x, y in rows:
        if g not in groups:
            groups[g] = ([], [])
            order.append(g)
        groups[g][0].append(x)
        groups[g][1].append(y)
    out = []
    for g in order:
        xs, ys = groups[g]
        out.append(
            (
                g,
                agg_median(xs),
                agg_count_distinct(xs),
                agg_quantile(xs, 0.25),
                agg_quantile(xs, 0.75),
                agg_quantile(ys, 0.95),
            )
        )
    return out


@given(rows_strategy())
@settings(max_examples=40, deadline=None)
def test_sketch_aggregates_shard_invariant_and_exact(rows):
    truth = _exact_group_truth(rows)
    for shards in (1, 2, 4, 8):
        got = run_query(rows, shards, SKETCH_QUERY)
        assert len(got) == len(truth)
        for got_row, want_row in zip(got, truth):
            assert got_row[0] == want_row[0]
            assert got_row[2] == want_row[2]  # HLL sparse mode: exact int
            for position in (1, 3, 4, 5):  # unit centroids: exact values
                assert equivalent(got_row[position], want_row[position])


@given(rows_strategy())
@settings(max_examples=20, deadline=None)
def test_sketch_aggregates_identical_across_shard_counts(rows):
    reference = run_query(rows, 1, SKETCH_QUERY)
    for shards in (2, 4, 8):
        assert run_query(rows, shards, SKETCH_QUERY) == reference


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sketch_partial_round_trip(values, seed):
    """partial_state() -> merge_partial() into a fresh sketch reproduces
    the source's contribution exactly (the COMPUTATIONS round-trip
    property, extended to the sketch family)."""
    from repro.incremental.sketches import (
        CountMinSketch,
        HyperLogLog,
        TDigest,
    )

    floats = [float(v) for v in values]
    for make in (
        lambda: TDigest(),
        lambda: HyperLogLog(seed=seed % 1000),
        lambda: CountMinSketch(width=64, depth=3, seed=seed % 1000),
    ):
        source = make()
        source.initialize(floats)
        target = make()
        target.initialize([])
        target.merge_partial(source.partial_state())
        assert equivalent(float(target.value), float(source.value))
