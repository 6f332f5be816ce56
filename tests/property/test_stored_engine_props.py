"""Engine choice and shard count are unobservable over stored data.

The same rows are held three ways: a transposed file behind a buffer pool
smaller than the data, a sharded transposed file of one to three shards,
and an in-memory relation.  Every statement runs on each holder through
the planner's engine and through the row engine (``use_vectorized=False``),
between rounds of cell corrections, and every answer must be the in-memory
row engine's: equal under ``==``, cell by cell of the same Python type, and
a float zero of the same sign.

Columns cover every stored type (CATEGORY/INT/FLOAT/BOOL/STR), each at an
NA rate of 0, 5%, 50% or 100%, so pages without NA, pages dense with NA and
all-NA pages all reach the decoder.

The join statements decode G through a code book and S through a tag
table, as E6 does.  Both engines share the one hash join, so the row
engine cannot vouch for it: their reference is a nested-loop join under
the row ``GroupBy`` over the in-memory rows, compared exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.aggregates import AggregateSpec, GroupBy
from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.operators import NestedLoopJoin, Select
from repro.relational.planner import plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Attribute, AttributeRole, Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile

SCHEMA = Schema(
    [
        category("G", DataType.CATEGORY),
        measure("K", DataType.INT),
        measure("X"),
        measure("B", DataType.BOOL),
        category("S", DataType.STR),
    ]
)
INT64 = (-(2**63), 2**63 - 1)
VALUES = {
    "G": st.integers(0, 3),
    # Small ints, ints where int64 overflows and float64 stops being exact,
    # and ints far from zero, where merged power sums lose the variance.
    "K": st.one_of(
        st.integers(-20, 20),
        st.integers(*INT64),
        st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, *INT64]),
        st.integers(2**40, 2**40 + 100),
    ),
    # One decimal: a sum's order shows in its last bits.  The second range
    # sits near 1e8, where a variance from power sums cancels.
    "X": st.one_of(
        st.integers(-10_000, 10_000).map(lambda i: i / 10),
        st.integers(10**9, 10**9 + 1000).map(lambda i: i / 10),
        st.sampled_from([0.0, -0.0]),
    ),
    "B": st.booleans(),
    "S": st.sampled_from(["a", "b", "", "é"]),
}
NA_RATES = (0.0, 0.05, 0.5, 1.0)
FIXED_WIDTH = ("G", "K", "X", "B")

GROUPED = (
    "SELECT G, count(K) AS nk, sum(K) AS sk, avg(K) AS ak, min(K) AS mnk, "
    "max(K) AS mxk, count(X) AS nx, sum(X) AS sx, avg(X) AS ax, min(X) AS mnx, "
    "max(X) AS mxx, median(X) AS mdx, var(X) AS vx, std(K) AS sdk, "
    "count(DISTINCT X) AS dx, count(*) AS c FROM {t} WHERE {p} GROUP BY G"
)
TOTALS = (
    "SELECT count(B) AS nb, sum(B) AS sb, min(B) AS mnb, max(B) AS mxb, "
    "count(S) AS ns, min(S) AS mns, max(S) AS mxs, sum(K) AS sk FROM {t} WHERE {p}"
)
ROWS = "SELECT G, K, X, B, S FROM {t} WHERE {p}"
COMPUTED = (
    "SELECT K * 2 AS k2, K + X AS kx, X / K AS xk, K / 3 AS k3, X - 1.5 AS x1, "
    "B + B AS bb, K * K AS kk, K - K AS k0 FROM {t} WHERE {p}"
)
TOP = "SELECT X, K, S FROM {t} WHERE {p} ORDER BY X DESC LIMIT 5"
STATEMENTS = (GROUPED, TOTALS, ROWS, COMPUTED, TOP)

#: Code book for G (code 3 is missing, code 2 has two labels, NA never
#: matches) and a tag table for S (tag "b" is missing, "a" has two values).
CODES = Relation(
    "codes",
    Schema(
        [
            category("CODE", DataType.CATEGORY),
            Attribute("LABEL", DataType.STR, AttributeRole.CATEGORY),
        ]
    ),
    [(0, "zero"), (1, "one"), (2, "two"), (NA, "none"), (2, "deux")],
)
TAGS = Relation(
    "tags",
    Schema([category("TAG", DataType.STR), measure("N", DataType.INT)]),
    [("a", 1), ("", 2), ("é", 3), ("a", 4)],
)
JOIN_SPECS = [
    AggregateSpec("count", "K", "nk"),
    AggregateSpec("sum", "K", "sk"),
    AggregateSpec("min", "X", "mnx"),
    AggregateSpec("max", "X", "mxx"),
    AggregateSpec("sum", "X", "sx"),
    AggregateSpec("count", None, "c"),
]
JOIN_AGGS = (
    "count(K) AS nk, sum(K) AS sk, min(X) AS mnx, max(X) AS mxx, sum(X) AS sx, count(*) AS c"
)
#: (statement, right table, left key, right key, left join?, group key, specs).
JOINS = (
    (
        f"SELECT LABEL, {JOIN_AGGS} FROM {{t}} JOIN codes ON G = CODE WHERE {{p}} GROUP BY LABEL",
        CODES, "G", "CODE", False, "LABEL", JOIN_SPECS,
    ),
    (
        f"SELECT LABEL, {JOIN_AGGS} FROM {{t}} LEFT JOIN codes ON G = CODE "
        "WHERE {p} GROUP BY LABEL",
        CODES, "G", "CODE", True, "LABEL", JOIN_SPECS,
    ),
    (
        "SELECT G, count(*) AS c, sum(N) AS sn, min(N) AS mn, avg(X) AS ax FROM {t} "
        "JOIN tags ON S = TAG WHERE {p} GROUP BY G",
        TAGS, "S", "TAG", False, "G",
        [
            AggregateSpec("count", None, "c"),
            AggregateSpec("sum", "N", "sn"),
            AggregateSpec("min", "N", "mn"),
            AggregateSpec("avg", "X", "ax"),
        ],
    ),
)


def literal(value):
    """SQL for a literal; every float drawn here has at most one decimal."""
    if isinstance(value, float):
        return format(value, ".1f")  # the tokenizer reads no exponent
    return repr(value) if isinstance(value, str) else str(value)


# Floats an int64 rounds to once converted: numpy compares them unequal to
# nothing it should, Python compares exactly.
numbers = st.one_of(
    VALUES["K"],
    VALUES["X"],
    st.sampled_from([2.5, -0.5, 2**53 + 1, float(2**53), -float(2**53), float(2**63)]),
)


@st.composite
def predicates(draw):
    k, x, y = draw(numbers), draw(numbers), draw(numbers)
    lo, hi = sorted([draw(VALUES["X"]), draw(VALUES["X"])])
    return draw(
        st.sampled_from(
            [
                "G >= 0",
                f"K > {literal(k)}",
                f"X <= {literal(x)}",
                "K = X",
                "K < X OR X IS NA",
                f"X BETWEEN {literal(lo)} AND {literal(hi)}",
                f"K BETWEEN {literal(min(k, y))} AND {literal(max(k, y))}",
                f"K IN ({literal(k)}, {literal(y)}, 3)",
                f"X IN ({literal(x)}, 0)",
                "B = 1",
                "NOT (B = 0) AND K IS NOT NA",
                "S = 'a' OR G = 2",
                "S IN ('b', '')",
                f"K * 2 > {literal(k)}",
                f"X + K >= {literal(x)}",
                f"NOT (K > {literal(k)}) OR X IS NA",
                "X / K > 1",
            ]
        )
    )


@st.composite
def data_sets(draw):
    rates = {name: draw(st.sampled_from(NA_RATES)) for name in SCHEMA.names}
    n = draw(st.integers(0, 40))
    rows = []
    for _ in range(n):
        row = []
        for name in SCHEMA.names:
            missing = draw(st.floats(0, 1, exclude_max=True)) < rates[name]
            row.append(NA if missing else draw(VALUES[name]))
        rows.append(tuple(row))
    return rows


@st.composite
def corrections(draw, n_rows):
    """Cell writes that keep a page's size: value to value, or value to NA."""
    if not n_rows:
        return []
    cell = st.sampled_from(FIXED_WIDTH).flatmap(
        lambda name: st.tuples(
            st.integers(0, n_rows - 1), st.just(name), st.one_of(st.just(NA), VALUES[name])
        )
    )
    return draw(st.lists(cell, max_size=6))


class Holders:
    """The same rows as a pooled transposed file, shards and a list of rows."""

    def __init__(self, rows, shards):
        pool = BufferPool(SimulatedDisk(block_size=128), capacity=3)
        plain = TransposedFile(pool, SCHEMA.types, name="t")
        self.plain = StoredRelation.load("t", SCHEMA, rows, plain)
        sharded = ShardedTransposedFile(
            SCHEMA.types, shards=shards, name="ts", block_size=128, pool_capacity=2
        )
        self.sharded = StoredRelation.load("ts", SCHEMA, rows, sharded)
        self.memory = Relation("tm", SCHEMA, rows)
        self.catalog = Catalog()
        for relation in (self.plain, self.sharded, self.memory, CODES, TAGS):
            self.catalog.register(relation)

    def correct(self, row, name, value):
        if self.memory.column(name)[row] is NA and value is not NA:
            return  # NA -> value grows a fixed-width record: a page may not fit
        for relation in (self.plain, self.sharded, self.memory):
            relation.set_value(row, name, value)


def run(text, catalog, vectorized):
    pipeline = plan(parse(text), catalog, use_vectorized=vectorized)
    return [tuple(row) for row in pipeline], pipeline


def assert_same(got, want, names, where):
    assert len(got) == len(want), where
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row), where
        for name, a, b in zip(names, got_row, want_row):
            assert type(a) is type(b), (where, name, a, b)
            assert a == b or (a != a and b != b), (where, name, a, b)
            if isinstance(a, float):
                assert math.copysign(1, a) == math.copysign(1, b), (where, name, a, b)


def nested_loop_reference(holders, join, predicate):
    """A join statement's rows: nested-loop join, then the row GroupBy."""
    _, right, left_key, right_key, left_join, key, specs = join
    where = parse(f"SELECT * FROM tm WHERE {predicate}").where
    equal = col(left_key) == col(right_key)
    rows = NestedLoopJoin(Select(holders.memory, where), right, equal).rows()
    if left_join:
        pad = (NA,) * len(right.schema)
        rows = []
        for row in Select(holders.memory, where):
            found = NestedLoopJoin(Relation("one", SCHEMA, [row]), right, equal).rows()
            rows.extend(found or [row + pad])
    joined_schema = SCHEMA.concat(right.schema)
    return GroupBy(Relation("joined", joined_schema, rows), [key], specs).rows()


def check_joins(holders, predicate):
    for join in JOINS:
        reference = nested_loop_reference(holders, join, predicate)
        for table in ("tm", "t", "ts"):
            text = join[0].format(t=table, p=predicate)
            for vectorized in (True, False):
                got, pipeline = run(text, holders.catalog, vectorized)
                assert_same(got, reference, pipeline.schema.names, (text, vectorized))


def check_all(holders, predicate):
    check_joins(holders, predicate)
    for template in STATEMENTS:
        reference, pipeline = run(template.format(t="tm", p=predicate), holders.catalog, False)
        names = pipeline.schema.names
        for table in ("tm", "t", "ts"):
            text = template.format(t=table, p=predicate)
            for vectorized in (True, False):
                got, _ = run(text, holders.catalog, vectorized)
                assert_same(got, reference, names, (text, vectorized))


@given(data_sets(), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_engines_and_shard_counts_are_unobservable(rows, shards, data):
    holders = Holders(rows, shards)
    for _ in range(3):
        check_all(holders, data.draw(predicates()))
        for row, name, value in data.draw(corrections(len(rows))):
            holders.correct(row, name, value)
