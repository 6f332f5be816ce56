"""Concrete views: the per-analyst materialized data sets.

"We envision several concrete views over a single raw database.  Each view
is private to a single user ...  Associated with each view is a Summary
Database" (SS3.2).  A :class:`ConcreteView` bundles the materialized
relation, its Summary Database, its update history and its derived-column
manager.  The relation is the only copy of the cells: it owns their one
write path (``Relation.set_value``), its attribute indexes and its write
epochs.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.incremental.derived import Derivation, DerivedColumnManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.summary.summarydb import SummaryDatabase
from repro.views.history import UpdateHistory
from repro.views.materialize import ViewDefinition


class ConcreteView:
    """One analyst's private materialized view.

    Parameters
    ----------
    name:
        View name (unique within the DBMS).
    relation:
        The materialized flat file (in memory — the working copy).
    definition:
        The operations that produced the view (kept for sharing detection
        and re-derivation).
    owner:
        The analyst the view is private to.
    """

    def __init__(
        self,
        name: str,
        relation: Relation,
        definition: ViewDefinition | None = None,
        owner: str = "analyst",
        summary: SummaryDatabase | None = None,
    ) -> None:
        self.name = name
        self.relation = relation
        self.definition = definition
        self.owner = owner
        self.summary = summary or SummaryDatabase(view_name=name)
        self.history = UpdateHistory(view_name=name)
        self.derived = DerivedColumnManager(relation)

    # -- structure ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The view's current schema (derived columns included)."""
        return self.relation.schema

    def __len__(self) -> int:
        return len(self.relation)

    @property
    def version(self) -> int:
        """Current update-history version."""
        return self.history.version

    @property
    def epochs(self) -> dict[str, int]:
        """Per-attribute copy-on-write epochs: the relation's own count of

        cell writes (update, undo, replay, derived recompute alike), by which
        the MVCC publish path (:mod:`repro.concurrency.mvcc`) shares unchanged
        column chunks between versions.  Never-written attributes are absent."""
        return self.relation.epochs

    def __repr__(self) -> str:
        return (
            f"ConcreteView({self.name!r}, owner={self.owner!r}, "
            f"{len(self)} rows, v{self.version})"
        )

    # -- data access --------------------------------------------------------------

    def column(self, attr: str) -> list[Any]:
        """One attribute's values (a copy of the relation's vector)."""
        return self.relation.column(attr)

    def column_provider(self, attr: str) -> Callable[[], list[Any]]:
        """A zero-argument provider for incremental maintainers.

        Maintainer regeneration passes are counted by the maintainers
        themselves.  It holds the relation, not the view: maintainers live
        in the view's summary, and that would be a cycle.
        """
        relation = self.relation
        return lambda: relation.column(attr)

    def rows_provider(
        self, attributes: Sequence[str]
    ) -> Callable[[], list[tuple[Any, ...]]]:
        """A zero-argument provider of row tuples over several attributes.

        Multi-attribute maintainers (fitted models, paired sketches)
        consume observations row-wise; this zips the named columns into
        tuples on each call, like :meth:`column_provider`.
        """
        names = tuple(attributes)
        relation = self.relation
        for name in names:
            relation.schema.index_of(name)  # validate eagerly
        return lambda: list(zip(*map(relation.column, names)))

    def add_derived_column(self, derivation: Derivation, dtype: DataType = DataType.FLOAT) -> None:
        """Attach a derived column: the paper's SS4.3 "operations whose

        results are vectors which are added to the data set"."""
        self.derived.add(derivation, dtype=dtype)
