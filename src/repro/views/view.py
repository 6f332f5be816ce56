"""Concrete views: the per-analyst materialized data sets.

"We envision several concrete views over a single raw database.  Each view
is private to a single user ...  Associated with each view is a Summary
Database" (SS3.2).  A :class:`ConcreteView` bundles the materialized
relation, its Summary Database, its update history, its derived-column
manager, and an optional transposed-file mirror on simulated disk so
column scans are charged realistic I/O.  The relation owns its attribute
indexes and write epochs; the view adds the mirror write-through.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.errors import ViewError
from repro.incremental.derived import Derivation, DerivedColumnManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile
from repro.summary.summarydb import SummaryDatabase

#: Either mirror shape: one transposed file, or one sharded across disks.
MirrorStorage = TransposedFile | ShardedTransposedFile
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
    storage:
        Optional transposed file (plain or sharded) mirroring the relation
        on simulated disk; column reads then pay accounted I/O and point
        updates write through.  A sharded mirror additionally makes the
        view's aggregate queries eligible for scatter-gather execution.
    """

    def __init__(
        self,
        name: str,
        relation: Relation,
        definition: ViewDefinition | None = None,
        owner: str = "analyst",
        storage: MirrorStorage | None = None,
        summary: SummaryDatabase | None = None,
    ) -> None:
        if storage is not None and len(storage) not in (0, len(relation)):
            raise ViewError(
                f"storage holds {len(storage)} rows, relation has {len(relation)}"
            )
        self.name = name
        self.relation = relation
        self.definition = definition
        self.owner = owner
        self.storage = storage
        self.summary = summary or SummaryDatabase(view_name=name)
        self.history = UpdateHistory(view_name=name)
        self.derived = DerivedColumnManager(relation)
        if storage is not None and len(storage) == 0:
            storage.append_rows(list(relation))

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
        """One attribute's values.

        Reads the transposed mirror when present (paying that column's page
        I/O only — the SS2.6 access pattern); falls back to memory.
        """
        if self.storage is not None and attr in self._stored_attrs():
            index = self._stored_attrs().index(attr)
            return list(self.storage.scan_column(index))
        return self.relation.column(attr)

    def column_provider(self, attr: str) -> Callable[[], list[Any]]:
        """A zero-argument provider for incremental maintainers.

        Reads from memory: maintainer regeneration passes are counted by
        the maintainers themselves, and the stored mirror serves the
        I/O-accounting benchmarks.  It holds the relation, not the view:
        maintainers live in the view's summary, and that would be a cycle.
        """
        relation = self.relation
        return lambda: relation.column(attr)

    def rows_provider(
        self, attributes: Sequence[str]
    ) -> Callable[[], list[tuple[Any, ...]]]:
        """A zero-argument provider of row tuples over several attributes.

        Multi-attribute maintainers (fitted models, paired sketches)
        consume observations row-wise; this zips the named columns into
        tuples on each call, reading from memory like
        :meth:`column_provider`.
        """
        names = tuple(attributes)
        relation = self.relation
        for name in names:
            relation.schema.index_of(name)  # validate eagerly
        return lambda: list(zip(*map(relation.column, names)))

    def set_value(self, row: int, attr: str, value: Any) -> Any:
        """Point-update one cell (writes through to storage); returns the

        old value.  Use :mod:`repro.views.updates` for logged updates."""
        old = self.relation.set_value(row, attr, value)
        if self.storage is not None and attr in self._stored_attrs():
            index = self._stored_attrs().index(attr)
            self.storage.set_value(row, index, value)
        return old

    def add_derived_column(self, derivation: Derivation, dtype: DataType = DataType.FLOAT) -> None:
        """Attach a derived column (not mirrored to storage).

        The stored mirror keeps the base attributes only; derived vectors
        are the paper's SS4.3 "operations whose results are vectors which
        are added to the data set".
        """
        self.derived.add(derivation, dtype=dtype)

    def _stored_attrs(self) -> list[str]:
        # The mirror was created from the materialization schema; derived
        # columns appended later are memory-only.
        assert self.storage is not None
        return self.relation.schema.names[: self.storage.column_count]
