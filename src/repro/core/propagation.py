"""The update-propagation pipeline (paper SS4.1).

"Given an attribute name we can retrieve all the values associated with
that attribute, along with their respective function names, stored in the
Summary Database.  For each function we must retrieve from the Management
Database the list of rules that specify the actions to be applied in order
to obtain the new value."

:class:`UpdatePropagator` executes exactly that pipeline for one concrete
view: per updated attribute it sweeps the attribute's clustered summary
entries, applies each entry's rule under the analyst's consistency policy,
cascades to dependent derived columns, and invalidates summary entries over
those derived columns (the regenerate-the-vector rule of SS3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.incremental.differencing import Delta
from repro.metadata.management import ManagementDatabase
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.types import is_na
from repro.summary.policies import ConsistencyPolicy
from repro.views.history import Operation
from repro.views.view import ConcreteView


def _na_safe_equal(a: Any, b: Any) -> bool:
    """Equality where NA == NA and NA never equals a value."""
    if is_na(a) or is_na(b):
        return is_na(a) and is_na(b)
    return a == b


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
    ) -> PropagationReport:
        """Propagate one attribute's delta through rules and derivations."""
        with self.tracer.span(
            "propagate", attribute=attribute, delta_size=delta.size
        ) as span:
            return self._propagate(span, attribute, delta, rows)

    def _propagate(
        self,
        span: Any,
        attribute: str,
        delta: Delta,
        rows: Sequence[int],
    ) -> PropagationReport:
        report = PropagationReport(attributes=[attribute])
        summary = self.view.summary
        traced = self.tracer.enabled
        report.summary_pages_touched += summary.pages_for_attribute(attribute)

        # 1. One-attribute entries over the updated attribute: the
        #    clustered sweep, with per-function rules.
        for entry in summary.entries_for_attribute(attribute):
            if entry.key.function.startswith("__") or len(entry.key.attributes) > 1:
                # Annotations and other non-function entries carry no
                # maintenance semantics (SS3.2's verbal descriptions);
                # multi-attribute entries are swept in step 2.
                continue
            report.entries_visited += 1
            try:
                rule = self.management.rules.rule_for(entry.key.function)
            except Exception:
                # An entry a caller inserted directly, under a name the
                # catalogue does not know, has no rule: it goes stale
                # (degraded and labelled, never silently kept).
                if summary.mark_stale(entry, pending=delta.size):
                    report.invalidations += 1
                continue
            outcome = self.policy.on_update(
                summary,
                entry,
                delta,
                rule,
                self.view.column_provider(attribute),
            )
            report.incremental_updates += 1 if outcome.incremental_changes else 0
            report.recomputations += 1 if outcome.recomputed else 0
            report.invalidations += 1 if outcome.marked_stale else 0
            if traced:
                function = entry.key.function
                if outcome.incremental_changes:
                    span.add(f"rule.{function}.incremental")
                if outcome.recomputed:
                    span.add(f"rule.{function}.recompute")
                if outcome.marked_stale:
                    span.add(f"rule.{function}.invalidate")

        # 2. Multi-attribute entries with the attribute anywhere in their
        #    key.  A column delta cannot drive their rule: a catalogue row
        #    with a row-wise maintainer (the fitted model) is replayed row
        #    by row and stays warm; the rest (correlations, cross
        #    tabulations) have no incremental form and invalidate, as
        #    their rule says.
        for entry in summary.entries_mentioning(attribute):
            if len(entry.key.attributes) == 1:
                continue
            report.entries_visited += 1
            if self._try_rowwise(entry, attribute, delta, rows):
                report.incremental_updates += 1
                if traced:
                    span.add(f"rule.{entry.key.function}.rowwise")
            elif summary.mark_stale(entry, pending=delta.size):
                report.invalidations += 1

        # 3. Cascade to derived columns (SS3.2's derived-data rules), then
        #    invalidate the summary information computed over them.
        touched = self.view.derived.on_base_change(attribute, list(rows))
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

    def _try_rowwise(
        self,
        entry: Any,
        attribute: str,
        delta: Delta,
        rows: Sequence[int],
    ) -> bool:
        """Feed a pure update burst row-wise to a multi-attribute maintainer.

        Fitted-model entries (``supports_row_updates``) consume
        observations as whole rows, so a cell update on one of their
        attributes can be replayed as ``on_update(old_row, new_row)``
        instead of invalidating the fit.  Applies only when the burst is
        updates-only, each update aligns with a known row index, and the
        consistency policy wants maintainers kept warm.  Any surprise
        (misalignment, maintainer failure) falls back to the sanctioned
        stale path — never a silently wrong fit.
        """
        summary = self.view.summary
        maintainer = entry.maintainer
        if (
            maintainer is None
            or entry.stale
            or not getattr(maintainer, "supports_row_updates", False)
            or not getattr(self.policy, "keeps_maintainers_warm", True)
        ):
            return False
        if delta.inserts or delta.deletes or not delta.updates:
            return False
        if len(delta.updates) != len(rows):
            return False
        names = entry.key.attributes
        if attribute not in names:
            return False
        position = names.index(attribute)
        columns = [self.view.column(name) for name in names]
        pairs: list[tuple[tuple[Any, ...], tuple[Any, ...]]] = []
        for (old_value, new_value), row in zip(delta.updates, rows):
            if not 0 <= row < len(columns[position]):
                return False
            current = [column[row] for column in columns]
            seen = current[position]
            # The view already holds the new value; verify alignment
            # (repeated rows in one burst would break the old-row
            # reconstruction, so bail to the stale path instead).
            if not _na_safe_equal(seen, new_value):
                return False
            new_row = tuple(current)
            old_row = tuple(
                old_value if i == position else value
                for i, value in enumerate(current)
            )
            pairs.append((old_row, new_row))
        try:
            for old_row, new_row in pairs:
                maintainer.on_update(old_row, new_row)
            result = maintainer.value
            summary.refresh(entry, result, version=self.view.version)
        except Exception:
            # A maintainer that failed mid-burst holds poisoned state;
            # drop it and let the caller's stale path take over.
            summary.detach_maintainer(entry)
            return False
        return True

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

        The entry for live writes, undo (``inverse``) and WAL replay:
        operations group by attribute in first-seen order, their rows
        concatenate and their deltas coalesce, so each touched attribute
        costs one sweep.  No operations, no sweep.
        """
        deltas: dict[str, list[Delta]] = {}
        rows: dict[str, list[int]] = {}
        for operation in operations:
            deltas.setdefault(operation.attribute, []).append(operation.delta(inverse))
            rows.setdefault(operation.attribute, []).extend(operation.rows)
        return self.propagate_all(
            {name: Delta.coalesce(burst) for name, burst in deltas.items()}, rows
        )

    def propagate_all(
        self,
        deltas: dict[str, Delta],
        rows_by_attr: dict[str, Sequence[int]] | None = None,
    ) -> PropagationReport:
        """Propagate several attributes' deltas, merging the reports."""
        rows_by_attr = rows_by_attr or {}
        combined = PropagationReport()
        if len(deltas) > 1:
            # A row-wise maintainer rebuilds each old row from the view,
            # which already holds the new value of *every* attribute the
            # action wrote: sound for one changed input of a fitted model,
            # not for two — those entries go stale instead.
            summary = self.view.summary
            for attribute in deltas:
                for entry in summary.entries_mentioning(attribute):
                    changed = sum(name in deltas for name in entry.key.attributes)
                    if changed > 1 and summary.mark_stale(entry):
                        combined.invalidations += 1
        for attribute, delta in deltas.items():
            combined.merge(
                self.propagate(attribute, delta, rows_by_attr.get(attribute, ()))
            )
        return combined
