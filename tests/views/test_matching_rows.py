"""Index ≡ scan: ``matching_rows`` answers from the relation's maintained

indexes exactly what binding the predicate to every row would.

A seeded stream interleaves every write that reaches ``Relation.set_value``
— predicate updates, point updates, ``invalidate_where``, multi-operation
undos, WAL-style ``replay_operation``, the recompute of a derived column —
over columns that hold NA, NaN, shared values and (for a third of the
stream) keys of two unorderable types.  After
every step a batch of seeded predicates must select the same rows in the
same order as the brute-force scan (or fail with the same exception), and
every live index must hold exactly what a fresh build over the rows would.
A scripted durable run must also leave the ``log.wal`` the parent of this
change wrote, byte for byte: which rows an update names is all the index
decides, so histories and the log cannot tell the two apart.
"""

import hashlib
import random

import pytest

from repro.core.errors import ExpressionError
from repro.incremental.derived import LocalDerivation
from repro.relational.expressions import Compare, Const, col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import NA, DataType
from repro.views.history import CellChange, Operation, OpKind
from repro.views.updates import (
    apply_update,
    invalidate_where,
    matching_rows,
    replay_operation,
    update_rows,
)
from repro.views.view import ConcreteView
from tests.durability.helpers import durable_dbms
from tests.relational.test_index import assert_exact

ROWS = 60
STEPS = 60
NAN = float("nan")
#: attribute -> the values a cell of it may take.
DOMAINS = {
    "k": list(range(ROWS)),  # near-unique key: buckets of one row
    "g": [0, 1, 2, 3, 4, 4, 4, NA],  # few, shared values
    "x": [-2.5, 0.0, 1.0, 2.0, 2.0, 7.25, NA, NAN],
    "m": [1, 2, 3, 2.0, True, NA],
}
#: Constants no schema promises: equal but of another type, missing,
#: unhashable, unorderable against numbers, out of range.
ODD_CONSTANTS = [2.0, True, NA, NAN, None, [2], "two", 10**9, -1]
COMPARISONS = ["=", "<", "<=", ">", ">=", "!="]


def domain(attr, step):
    """Column ``m`` also takes a string during the middle third of the

    stream, so its keys stop being mutually orderable and start again."""
    if attr == "m" and STEPS // 3 <= step < 2 * STEPS // 3:
        return DOMAINS["m"] + ["two"]
    return DOMAINS[attr]


def make_view(rng):
    schema = Schema(
        [category("k", DataType.INT), category("g", DataType.INT), measure("x"), measure("m")]
    )
    rows = [(i, *(rng.choice(DOMAINS[a]) for a in "gxm")) for i in range(ROWS)]
    view = ConcreteView("v", Relation("v", schema, rows, validate=False))
    view.add_derived_column(LocalDerivation("d", col("x") * 2))
    return view


def conjunct(rng, well_typed=False):
    """A comparison in either operand order, a BETWEEN, or a shape only the

    scan evaluates.  ``well_typed`` keeps to constants the column's values
    can be compared with."""
    attr = rng.choice(["k", "g", "x", "d"] if well_typed else ["k", "g", "x", "m", "d"])
    values = DOMAINS.get(attr, DOMAINS["x"])

    def constant():
        if well_typed:
            return rng.choice([v for v in values if v is not NA])
        return rng.choice(ODD_CONSTANTS) if rng.random() < 0.3 else rng.choice(values)

    shape = rng.randrange(9)
    if shape < 6:
        if rng.random() < 0.3:
            return Compare(COMPARISONS[shape], Const(constant()), col(attr))
        return Compare(COMPARISONS[shape], col(attr), Const(constant()))
    if shape == 6:
        return col(attr).between(constant(), constant())
    if shape == 7:
        return col(attr).is_na()
    return col(attr) * 1 == constant()  # an expression operand


def predicate(rng):
    shape = rng.randrange(6)
    if shape < 3:
        return conjunct(rng)
    if shape == 3:
        return conjunct(rng) | conjunct(rng)
    if shape == 4:
        return ~conjunct(rng)
    # A conjunction, in any nesting and order.  Its parts are well typed:
    # the residual is evaluated on the rows the index delivers only, so a
    # comparison that cannot be evaluated would raise on fewer rows.
    combined = conjunct(rng, well_typed=True)
    for _ in range(rng.randint(1, 2)):
        part = conjunct(rng, well_typed=True)
        combined = combined & part if rng.random() < 0.5 else part & combined
    return combined


def brute_force(view, tested):
    test = tested.bind(view.schema)
    return [i for i, row in enumerate(view.relation) if test(row)]


def check(view, rng, count=12):
    for _ in range(count):
        tested = predicate(rng)
        try:
            expected = brute_force(view, tested)
        except (ExpressionError, TypeError) as exc:
            with pytest.raises(type(exc)):
                matching_rows(view, tested)
        else:
            assert matching_rows(view, tested) == expected, tested
    assert matching_rows(view, None) == list(range(len(view)))
    assert_exact(view.relation)


@pytest.mark.parametrize("seed", range(8))
def test_index_answers_equal_the_scan_after_every_write(seed):
    rng = random.Random(f"matching-rows-{seed}")
    view = make_view(rng)
    check(view, rng)
    for step in range(STEPS):
        attr = rng.choice(["k", "g", "x", "m"])
        values = domain(attr, step)
        kind = rng.choice(["update", "update", "cells", "invalidate", "undo", "replay"])
        touched = []  # (attribute, rows) whose dependent derived cells recompute
        if kind == "update":
            where = predicate(rng)
            try:
                rows = brute_force(view, where)
            except (ExpressionError, TypeError):
                continue
            deltas = apply_update(view, where, {attr: rng.choice(values)})
            assert (attr in deltas) == bool(rows)
            if rows:
                assert view.history.operations()[-1].rows == rows
            touched.append((attr, rows))
        elif kind == "cells":
            rows = rng.sample(range(len(view)), rng.randint(1, 5))
            update_rows(view, attr, [(row, rng.choice(values)) for row in rows])
            touched.append((attr, rows))
        elif kind == "invalidate":
            where = conjunct(rng, well_typed=True)
            expected = brute_force(view, where)
            assert invalidate_where(view, where, attr)[1] == expected
            touched.append((attr, expected))
        elif kind == "undo" and len(view.history):
            count = rng.randint(1, min(3, len(view.history)))
            for undone in view.history.undo_last(view.relation, count):
                touched.append((undone.attribute, undone.rows))
        elif kind == "replay":
            rows = rng.sample(range(len(view)), 2)
            column = view.relation.column(attr)
            logged = Operation(
                version=view.version + rng.randint(1, 3),
                kind=OpKind.UPDATE,
                attribute=attr,
                changes=tuple(CellChange(row, column[row], rng.choice(values)) for row in rows),
            )
            replay_operation(view, logged)
            touched.append((attr, rows))
        for written, rows in touched:
            view.derived.on_base_change(written, rows)  # what propagation does
        check(view, rng)
    assert view.relation.indexes, "the stream must have built indexes to compare"


def test_update_predicates_that_cannot_be_compared_still_raise():
    view = make_view(random.Random("raises"))
    view.relation.index_on("k").range(lo=0)
    for bad in (col("k") > "ten", col("k") <= None, col("k") > [1]):
        with pytest.raises(ExpressionError, match="cannot compare"):
            matching_rows(view, bad)
        with pytest.raises(ExpressionError, match="cannot compare"):
            apply_update(view, bad & (col("g") == 1), {"x": 0.0})
    assert len(view.history) == 0


#: blake2b-128 of the ``log.wal`` the scenario below wrote at the parent of
#: the change that made indexes maintained (commit f3385a2, scan only).
PARENT_WAL_DIGEST = "fc4a247dbd118ff565ad18ae8d0d02db"


def test_scripted_durable_run_writes_the_parents_log(tmp_path):
    dbms = durable_dbms(tmp_path, rows=40)
    session = dbms.session("v1")
    session.view.add_derived_column(LocalDerivation("x2", col("x") * 2))
    session.compute("mean", "x")
    session.update(col("id") == 7, {"x": 70.5})
    session.update(col("id").between(10, 14) & (col("x") > 11.0), {"x": col("x") + 0.5})
    session.update(col("x") >= 38.0, {"x": -1.0})
    session.update(col("x") < 0.0, {"id": 99})
    session.update(col("id") == 99, {"x": 1.25})
    session.update(col("id") == 1000, {"x": 0.0})  # matches nothing
    session.mark_invalid("x", predicate=col("id") <= 2)
    session.update_cells("x", [(5, 5.5), (6, NA)])
    session.undo(2)
    session.update((col("x") > 100.0) | (col("id") == 3), {"x": 33.0})
    session.mark_invalid("x", predicate=col("x") == 33.0)
    session.update(None, {"id": col("id") + 1})
    session.update(col("id") == 100, {"x": 9.0})
    session.update(col("x2") == 18.0, {"x": 0.5})  # through the derived column
    session.undo(1)
    dbms.durability.close()
    log = (tmp_path / "log.wal").read_bytes()
    assert hashlib.blake2b(log, digest_size=16).hexdigest() == PARENT_WAL_DIGEST
