"""Tests for predicate-driven updates and invalidation."""

import pytest

from repro.core.errors import ViewError
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, category, measure
from repro.relational.types import NA, DataType, is_na
from repro.views.updates import apply_update, invalidate_rows, invalidate_where, update_rows
from repro.views.view import ConcreteView


def make_view():
    schema = Schema(
        [
            category("id", DataType.INT),
            measure("age", DataType.INT),
            measure("income", DataType.FLOAT),
        ]
    )
    rows = [(i, 20 + i, 1000.0 * (i + 1)) for i in range(10)]
    return ConcreteView("v", Relation("v", schema, rows))


class TestApplyUpdate:
    def test_predicate_update(self):
        view = make_view()
        deltas = apply_update(view, col("age") > 27, {"income": 0.0})
        assert "income" in deltas
        assert deltas["income"].size == 2  # ages 28, 29
        assert view.relation.column("income")[8] == 0.0
        assert view.relation.column("income")[0] == 1000.0

    def test_expression_assignment(self):
        view = make_view()
        apply_update(view, None, {"income": col("income") * 2})
        assert view.relation.column("income")[0] == 2000.0

    def test_callable_assignment(self):
        view = make_view()
        apply_update(view, col("id") == 0, {"age": lambda row: row[1] + 100})
        assert view.relation.column("age")[0] == 120

    def test_multiple_attributes_logged_separately(self):
        view = make_view()
        deltas = apply_update(view, col("id") == 1, {"age": 0, "income": 0.0})
        assert set(deltas) == {"age", "income"}
        assert len(view.history) == 2

    def test_no_match_no_history(self):
        view = make_view()
        deltas = apply_update(view, col("id") == 999, {"age": 0})
        assert deltas == {}
        assert len(view.history) == 0

    def test_empty_assignments_rejected(self):
        with pytest.raises(ViewError):
            apply_update(make_view(), None, {})

    def test_unknown_attribute_rejected(self):
        from repro.core.errors import SchemaError

        with pytest.raises(SchemaError):
            apply_update(make_view(), None, {"nope": 1})

    def test_history_captures_old_values(self):
        view = make_view()
        apply_update(view, col("id") == 2, {"income": -1.0})
        op = view.history.operations()[0]
        assert op.changes[0].old == 3000.0
        assert op.changes[0].new == -1.0
        assert op.changes[0].row == 2


class TestPointUpdates:
    def test_update_rows(self):
        view = make_view()
        delta = update_rows(view, "income", [(0, 5.0), (1, 6.0)])
        assert delta.size == 2
        assert view.relation.column("income")[:2] == [5.0, 6.0]


class TestInvalidate:
    def test_invalidate_where(self):
        """The 1000-year-old person of SS3.1 gets marked NA."""
        view = make_view()
        view.relation.set_value(4, "age", 1000)
        delta, rows = invalidate_where(view, col("age") > 150, "age")
        assert delta.size == 1
        assert rows == [4]
        assert is_na(view.relation.column("age")[4])
        op = view.history.operations()[-1]
        assert op.kind.value == "invalidate"
        assert op.changes[0].old == 1000

    def test_invalidate_where_no_match_returns_no_rows(self):
        view = make_view()
        delta, rows = invalidate_where(view, col("age") > 150, "age")
        assert delta.size == 0
        assert rows == []
        assert len(view.history) == 0

    def test_invalidate_rows(self):
        view = make_view()
        _, rows = invalidate_rows(view, [0, 2], "income")
        assert rows == [0, 2]
        incomes = view.relation.column("income")
        assert is_na(incomes[0]) and is_na(incomes[2]) and incomes[1] == 2000.0

    def test_invalidate_then_undo(self):
        view = make_view()
        invalidate_rows(view, [3], "age")
        view.history.undo_last(view.relation, 1)
        assert view.relation.column("age")[3] == 23
