"""The hash join against a nested-loop join, its independent reference.

:class:`HashJoin` is the one equi-join, so nothing else in the planner
checks it.  Here both inputs are drawn — in memory or in a transposed file,
fed whole or in chunks of a few rows so that a probe key's matches and the
build side span chunk boundaries, or through a row operator — and the hash
join's rows must be the nested loop's over ``left = right`` conjuncts:
the same rows, in the same order (left order, then each left row's matches
in build insertion order), cell by cell of the same Python type.  A left
join's reference is the nested loop per left row, NA-padded where it finds
nothing.

Keys cover INT, FLOAT, CATEGORY, BOOL and STR columns, INT and FLOAT keys
that compare equal (``1 == 1.0``, ``0.0 == -0.0``), NA keys (which never
match), duplicate build keys, probe keys the build side lacks, and empty
inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import col
from repro.relational.operators import HashJoin, NestedLoopJoin, Select
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, measure
from repro.relational.types import NA, DataType
from repro.relational.vectorized import VecScan
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile

KEYS = {
    DataType.INT: st.integers(-2, 3),
    DataType.CATEGORY: st.integers(0, 3),
    DataType.FLOAT: st.sampled_from([-1.0, 0.0, -0.0, 1.0, 2.0, 2.5, 3.0]),
    DataType.BOOL: st.booleans(),
    DataType.STR: st.sampled_from(["a", "b", "", "é"]),
}
#: Key type pairs that can compare equal: numbers with numbers, else alike.
NUMERIC = (DataType.INT, DataType.CATEGORY, DataType.FLOAT)
PAIRS = [(a, b) for a in NUMERIC for b in NUMERIC] + [
    (DataType.STR, DataType.STR),
    (DataType.BOOL, DataType.BOOL),
]


@st.composite
def sides(draw, prefix, key_types):
    """A relation whose last column is a payload naming the row."""
    na_rate = draw(st.sampled_from([0.0, 0.2, 1.0]))
    n = draw(st.integers(0, 14))
    rows = []
    for i in range(n):
        keys = [
            NA if draw(st.floats(0, 1, exclude_max=True)) < na_rate else draw(KEYS[t])
            for t in key_types
        ]
        rows.append((*keys, float(i) if prefix == "r" else i))
    names = [f"{prefix}k{j}" for j in range(len(key_types))]
    payload = DataType.FLOAT if prefix == "r" else DataType.INT
    schema = Schema(
        [measure(n, t) for n, t in zip(names, key_types)] + [measure(f"{prefix}v", payload)]
    )
    return schema, rows, names


def holder(draw, name, schema, rows):
    """The rows as the join will see them: in memory, stored, chunked, row-fed."""
    how = draw(st.sampled_from(["memory", "stored", "chunks", "rows"]))
    if how == "memory":
        return Relation(name, schema, rows)
    pool = BufferPool(SimulatedDisk(block_size=128), capacity=4)
    stored = StoredRelation.load(name, schema, rows, TransposedFile(pool, schema.types))
    if how == "stored":
        return stored
    if how == "chunks":
        return VecScan(stored, chunk_size=draw(st.integers(1, 4)))
    return Select(stored, col(schema.names[-1]).is_na() | ~col(schema.names[-1]).is_na())


def nested_loop(left, right, left_keys, right_keys, how):
    """The reference: a nested loop over ``left_key = right_key`` conjuncts."""
    predicate = col(left_keys[0]) == col(right_keys[0])
    for lk, rk in zip(left_keys[1:], right_keys[1:]):
        predicate = predicate & (col(lk) == col(rk))
    if how == "inner":
        return NestedLoopJoin(left, right, predicate).rows()
    pad = (NA,) * len(right.schema)
    out = []
    for row in left:
        one = Relation("one", left.schema, [row])
        out.extend(NestedLoopJoin(one, right, predicate).rows() or [row + pad])
    return out


def typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


@given(st.data(), st.sampled_from(PAIRS), st.booleans(), st.sampled_from(["inner", "left"]))
@settings(max_examples=200, deadline=None)
def test_the_hash_join_is_the_nested_loop_join(data, pair, two_keys, how):
    left_types = [pair[0]] + ([DataType.INT] if two_keys else [])
    right_types = [pair[1]] + ([DataType.FLOAT] if two_keys else [])
    lschema, lrows, lkeys = data.draw(sides("l", left_types))
    rschema, rrows, rkeys = data.draw(sides("r", right_types))
    want = nested_loop(
        Relation("l", lschema, lrows), Relation("r", rschema, rrows), lkeys, rkeys, how
    )
    left = holder(data.draw, "l", lschema, lrows)
    right = holder(data.draw, "r", rschema, rrows)
    joined = HashJoin(left, right, lkeys, rkeys, how=how)
    assert joined.schema.names == lschema.names + rschema.names
    got = joined.rows()
    assert typed(got) == typed(want)
    # Row iteration and a second run give the same rows.
    assert typed(list(joined)) == typed(want)
