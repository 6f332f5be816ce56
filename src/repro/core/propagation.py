"""The update-propagation pipeline (paper SS4.1).

"Given an attribute name we can retrieve all the values associated with
that attribute, along with their respective function names, stored in the
Summary Database.  For each function we must retrieve from the Management
Database the list of rules that specify the actions to be applied in order
to obtain the new value."

:class:`UpdatePropagator` executes exactly that pipeline for one concrete
view, and the unit it propagates is the analyst's logged action.  Per
updated attribute it sweeps the attribute's clustered summary entries and
every entry over several attributes the action reached, applies each
entry's rule under the analyst's consistency policy — a one-attribute entry
fed the attribute's (old, new) values, an n-attribute entry (correlation,
cross tabulation, fitted model) the action's (old row, new row) tuples over
its key, once per action — cascades to dependent derived columns, and
invalidates summary entries over those derived columns (the
regenerate-the-vector rule of SS3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.errors import RuleError
from repro.incremental.differencing import Delta
from repro.metadata.management import ManagementDatabase
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.summary.policies import ConsistencyPolicy
from repro.views.history import Operation
from repro.views.view import ConcreteView

#: What one analyst action changed: attribute -> (its delta, the row of each
#: update), in the order the action first wrote the attributes.
Action = Mapping[str, tuple[Delta, Sequence[int]]]


@dataclass
class PropagationReport:
    """What one propagation pass did."""

    attributes: list[str] = field(default_factory=list)
    entries_visited: int = 0
    incremental_updates: int = 0
    recomputations: int = 0
    invalidations: int = 0
    derived_columns_touched: list[str] = field(default_factory=list)
    summary_pages_touched: int = 0

    def merge(self, other: "PropagationReport") -> None:
        """Fold another report into this one.

        Counters add; the name lists union (order-preserving), so repeated
        merges over the same attribute do not inflate the report.
        """
        for name in other.attributes:
            if name not in self.attributes:
                self.attributes.append(name)
        self.entries_visited += other.entries_visited
        self.incremental_updates += other.incremental_updates
        self.recomputations += other.recomputations
        self.invalidations += other.invalidations
        for name in other.derived_columns_touched:
            if name not in self.derived_columns_touched:
                self.derived_columns_touched.append(name)
        self.summary_pages_touched += other.summary_pages_touched


class UpdatePropagator:
    """Drives Summary Database maintenance for one view."""

    def __init__(
        self,
        management: ManagementDatabase,
        view: ConcreteView,
        policy: ConsistencyPolicy,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.management = management
        self.view = view
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def propagate(
        self,
        attribute: str,
        delta: Delta,
        rows: Sequence[int] = (),
        action: Action | None = None,
    ) -> PropagationReport:
        """Propagate one attribute's delta through rules and derivations.

        ``action`` is the whole action this sweep is one attribute's share
        of; it defaults to this call's own arguments.
        """
        with self.tracer.span(
            "propagate", attribute=attribute, delta_size=delta.size
        ) as span:
            return self._propagate(span, attribute, action or {attribute: (delta, rows)})

    def _propagate(self, span: Any, attribute: str, action: Action) -> PropagationReport:
        delta, rows = action[attribute]
        report = PropagationReport(attributes=[attribute])
        view = self.view
        summary = view.summary
        traced = self.tracer.enabled
        report.summary_pages_touched += summary.pages_for_attribute(attribute)

        # 1. What the attribute feeds: its one-attribute entries (the
        #    clustered sweep) take the column delta; an entry over several
        #    attributes takes the action's row delta, in the sweep of the
        #    first attribute of its key the action wrote — once per action.
        entries = [
            entry
            for entry in summary.entries_for_attribute(attribute)
            if len(entry.key.attributes) == 1
        ]
        for entry in summary.entries_mentioning(attribute):
            names = entry.key.attributes
            if len(names) > 1 and attribute == next(n for n in action if n in names):
                entries.append(entry)
        column_provider = view.column_provider(attribute)
        for entry in entries:
            function, names = entry.key.function, entry.key.attributes
            if function.startswith("__"):
                # Annotations and other non-function entries carry no
                # maintenance semantics (SS3.2's verbal descriptions).
                continue
            report.entries_visited += 1
            was_fresh = not entry.stale
            try:
                rule = self.management.rules.rule_for(function)
                if len(names) == 1:
                    entry_delta, provider = delta, column_provider
                else:
                    entry_delta = self._row_delta(names, action)
                    provider = view.rows_provider(names)
            except Exception:
                # A caller inserted the entry directly under a name the
                # catalogue does not know, or handed over a delta no row
                # delta can be composed from: the entry goes stale and its
                # maintainer, which missed this change, goes with it
                # (degraded and labelled, never silently kept).
                summary.detach_maintainer(entry)
                if summary.mark_stale(entry, pending=delta.size):
                    report.invalidations += 1
                continue
            outcome = self.policy.on_update(summary, entry, entry_delta, rule, provider)
            report.incremental_updates += 1 if outcome.incremental_changes else 0
            report.recomputations += 1 if outcome.recomputed else 0
            report.invalidations += 1 if outcome.marked_stale else 0
            if traced:
                if outcome.incremental_changes:
                    span.add(f"rule.{function}.incremental")
                if outcome.recomputed:
                    span.add(f"rule.{function}.recompute")
                if outcome.marked_stale:
                    span.add(f"rule.{function}.invalidate")
                if was_fresh and entry.stale:
                    span.add(f"summary.stale.{function}")

        # 2. Cascade to derived columns (SS3.2's derived-data rules), then
        #    invalidate the summary information computed over them.
        touched = view.derived.on_base_change(attribute, list(rows))
        report.derived_columns_touched.extend(touched)
        for derived_name in touched:
            for entry in summary.entries_mentioning(derived_name):
                if entry.key.function.startswith("__"):
                    continue
                report.entries_visited += 1
                if summary.mark_stale(entry, pending=1):
                    report.invalidations += 1
                # A maintainer over a regenerated vector is no longer
                # valid; drop it so the next refresh rebuilds it.
                summary.detach_maintainer(entry)
        span.add("entries_visited", report.entries_visited)
        span.add("incremental_updates", report.incremental_updates)
        span.add("recomputations", report.recomputations)
        span.add("invalidations", report.invalidations)
        return report

    def _row_delta(self, names: tuple[str, ...], action: Action) -> Delta:
        """The action as (old row, new row) updates over ``names``.

        The view holds every value the action wrote, so a touched row's new
        tuple is read from it; its old tuple differs in the cells the
        action changed, each by the *first* old value the action recorded
        for it.  Two changed inputs of one entry, a burst naming a row
        twice and a multi-operation undo are therefore exact by
        construction.  Raises :class:`RuleError` when a changed attribute's
        delta is not cell-aligned (inserts, deletes, or no row per update).
        """
        first_old: dict[int, dict[int, Any]] = {}
        for name, (delta, rows) in action.items():
            positions = [i for i, other in enumerate(names) if other == name]
            if not positions:
                continue
            if delta.inserts or delta.deletes or len(delta.updates) != len(rows):
                raise RuleError(f"the delta to {name!r} names no row per changed cell")
            for row, (old, _) in zip(rows, delta.updates):
                cells = first_old.setdefault(row, {})
                for position in positions:
                    cells.setdefault(position, old)
        relation = self.view.relation
        columns = [relation.schema.index_of(name) for name in names]
        updates = []
        for row, cells in first_old.items():
            current = relation.row(row)
            new_row = tuple(current[column] for column in columns)
            old_row = tuple(cells.get(i, value) for i, value in enumerate(new_row))
            updates.append((old_row, new_row))
        return Delta(updates=updates)

    def propagate_batch(
        self,
        attribute: str,
        deltas: Sequence[Delta],
        rows: Sequence[int] = (),
    ) -> PropagationReport:
        """Propagate a burst of deltas to one attribute in a single sweep.

        The burst coalesces into one :class:`Delta`, so the attribute's
        summary entries are swept once and each live maintainer sees one
        ``apply_batch`` call instead of ``len(deltas)`` — the batched
        counterpart of calling :meth:`propagate` per delta.
        """
        return self.propagate(attribute, Delta.coalesce(deltas), rows)

    def propagate_operations(
        self, operations: Sequence[Operation], inverse: bool = False
    ) -> PropagationReport:
        """Bring the Summary Database up to date with logged operations.

        The entry for live writes, undo (``inverse``: the undone operations,
        newest first) and WAL replay: operations group by attribute in
        first-seen order, their bursts and rows concatenate, so each touched
        attribute costs one sweep.  No operations, no sweep.
        """
        deltas: dict[str, Delta] = {}
        rows_by_attr: dict[str, list[int]] = {}
        for operation in operations:
            updates, rows = operation.delta(inverse).updates, operation.rows
            if inverse:
                # Newest change first, the order undo restored the cells in:
                # the first value a burst names for a cell is then always the
                # one the view held before the action.
                updates.reverse()
                rows.reverse()
            deltas.setdefault(operation.attribute, Delta()).updates.extend(updates)
            rows_by_attr.setdefault(operation.attribute, []).extend(rows)
        return self.propagate_all(deltas, rows_by_attr)

    def propagate_all(
        self,
        deltas: dict[str, Delta],
        rows_by_attr: dict[str, Sequence[int]] | None = None,
    ) -> PropagationReport:
        """Propagate one action's deltas to several attributes, merging the

        per-attribute sweeps' reports."""
        rows_by_attr = rows_by_attr or {}
        action = {
            name: (delta, rows_by_attr.get(name, ())) for name, delta in deltas.items()
        }
        combined = PropagationReport()
        for attribute, (delta, rows) in action.items():
            combined.merge(self.propagate(attribute, delta, rows, action))
        return combined
