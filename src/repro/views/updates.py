"""The one write path of a concrete view (paper SS4.1).

"We envision that the analyst will specify an update to the data set by
using a predicate in a similar manner to what is currently done in
relational systems.  Thus, the operation specifies the attributes affected
and the nature of the update."

Each step is written once here: :func:`matching_rows` decides which rows a
predicate names, from the relation's maintained attribute index (SS2.3)
where a conjunct is indexable; one cell-writing loop stores the new values
through ``Relation.set_value`` (which keeps those indexes exact), captures
the old ones and hands the :class:`~repro.views.history.Operation` to the
view's history — recorded under the next version for a live write, restored
under its own for WAL replay (:func:`replay_operation`).  The operation is
what callers log and propagate; the deltas returned are its ``delta()``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.errors import ViewError
from repro.incremental.differencing import Delta
from repro.relational.expressions import Expr
from repro.relational.index import index_access
from repro.relational.types import NA
from repro.views.history import CellChange, Operation, OpKind
from repro.views.view import ConcreteView

Assignment = Any  # a constant, an Expr, or a callable(row) -> value


def matching_rows(view: ConcreteView, predicate: Expr | None) -> list[int]:
    """Indexes of the rows ``predicate`` selects, ascending (every row for

    ``None``).  The first conjunct an index of the relation can answer
    (:func:`~repro.relational.index.index_access`, built on first use)
    delivers the candidates and the rest of the predicate runs on those
    rows only; with no such conjunct the predicate runs on every row.  Same
    rows either way — but a residual no row can evaluate raises only if a
    candidate reaches it.
    """
    relation = view.relation
    if predicate is None:
        return list(range(len(relation)))
    access = index_access(predicate, relation.index_on)
    if access is None:
        test = predicate.bind(view.schema)
        return [i for i, row in enumerate(relation) if test(row)]
    _, candidates, residual = access
    if residual is None:
        return candidates
    keep = residual.bind(view.schema)
    return [i for i in candidates if keep(relation.row(i))]


def _write_cells(
    view: ConcreteView,
    attr: str,
    cells: Iterable[tuple[int, Any]],
    kind: OpKind = OpKind.UPDATE,
    description: str = "",
    logged: Operation | None = None,
) -> Operation | None:
    """Write (row, new value) cells of one attribute as one operation:

    a newly recorded one (``None`` if no cell was written), or ``logged``
    restored under its own version."""
    view.schema.index_of(attr)  # validate
    set_value = view.relation.set_value
    changes = [
        CellChange(row=row, old=set_value(row, attr, new), new=new)
        for row, new in cells
    ]
    if logged is not None:
        return view.history.restore(logged)
    if not changes:
        return None
    return view.history.record(kind, attr, changes, description=description)


def replay_operation(view: ConcreteView, operation: Operation) -> Operation:
    """Re-apply a logged operation, keeping its version (WAL replay)."""
    cells = [(change.row, change.new) for change in operation.changes]
    return _write_cells(view, operation.attribute, cells, logged=operation)


def apply_update(
    view: ConcreteView,
    predicate: Expr | None,
    assignments: Mapping[str, Assignment],
    description: str = "",
) -> dict[str, Delta]:
    """UPDATE view SET ... WHERE predicate.

    ``assignments`` maps attribute name to a constant, an expression over
    the row, or a Python callable receiving the row tuple.  Records one
    operation per attribute that changed and returns its delta.
    """
    if not assignments:
        raise ViewError("update requires at least one assignment")
    schema = view.schema
    for attr in assignments:
        schema.index_of(attr)  # validate
    rows = matching_rows(view, predicate)
    deltas: dict[str, Delta] = {}
    for attr, assignment in assignments.items():
        value_fn = _as_value_fn(assignment, schema)
        operation = _write_cells(
            view,
            attr,
            ((row, value_fn(view.relation.row(row))) for row in rows),
            description=description,
        )
        if operation is not None:
            deltas[attr] = operation.delta()
    return deltas


def update_rows(
    view: ConcreteView,
    attr: str,
    row_values: Sequence[tuple[int, Any]],
    description: str = "",
) -> Delta:
    """Point-update specific (row, new_value) pairs of one attribute."""
    operation = _write_cells(view, attr, row_values, description=description)
    return operation.delta() if operation is not None else Delta()


def invalidate_where(
    view: ConcreteView,
    predicate: Expr,
    attr: str,
    description: str = "mark invalid",
) -> tuple[Delta, list[int]]:
    """Mark matching values of ``attr`` as NA (missing), logged.

    This is the SS3.1 operation for suspicious observations: "the value
    must be marked as invalid -- 'missing value' in the statistics
    vernacular".  Returns the delta and the matched row indexes.
    """
    return invalidate_rows(view, matching_rows(view, predicate), attr, description)


def invalidate_rows(
    view: ConcreteView,
    rows: Sequence[int],
    attr: str,
    description: str = "mark invalid",
) -> tuple[Delta, list[int]]:
    """Mark specific rows' values of ``attr`` as NA, logged.

    Returns (delta, changed rows); nothing is recorded for no rows.
    """
    operation = _write_cells(
        view, attr, ((row, NA) for row in rows), OpKind.INVALIDATE, description
    )
    if operation is None:
        return Delta(), []
    return operation.delta(), operation.rows


def _as_value_fn(assignment: Assignment, schema: Any) -> Callable[[tuple], Any]:
    if isinstance(assignment, Expr):
        return assignment.bind(schema)
    if callable(assignment):
        return assignment
    return lambda row: assignment
