"""The statistical DBMS facade — the organization of Figure 3.

"We envision several concrete views over a single raw database.  Each view
is private to a single user ...  Associated with each view is a Summary
Database ...  One Management Database is associated with the DBMS."

:class:`StatisticalDBMS` owns the raw (tape) database, the single
Management Database, the view registry (with duplicate/derivation
detection), and hands out per-analyst sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.accuracy import AccuracyPreference
from repro.core.errors import DurabilityError, MetadataError, ViewError
from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.relation import Relation
from repro.summary.summarydb import SummaryDatabase
from repro.views.materialize import (
    MaterializationReport,
    RawDatabase,
    ViewDefinition,
    materialize,
)
from repro.views.sharing import DerivationMatch, PublishedEdits, ViewRegistry
from repro.views.view import ConcreteView

if TYPE_CHECKING:
    from repro.durability.manager import DurabilityManager


@dataclass
class ViewCreation:
    """Outcome of a create_view request."""

    view: ConcreteView
    reused: DerivationMatch | None = None
    report: MaterializationReport | None = None

    @property
    def from_tape(self) -> bool:
        """Whether the raw tape had to be read."""
        return self.report is not None


class StatisticalDBMS:
    """Figure 3: raw database + concrete views + Summary/Management DBs."""

    def __init__(
        self,
        management: ManagementDatabase | None = None,
        raw: RawDatabase | None = None,
        tracer: AbstractTracer | None = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self.management = management or ManagementDatabase()
        self.raw = raw or RawDatabase()
        self.registry = ViewRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.durability = durability
        if durability is not None:
            durability.bind(self)
        self.views_reused = 0
        self.views_derived = 0
        self.views_materialized = 0

    # -- raw database --------------------------------------------------------------

    def load_raw(self, relation: Relation) -> int:
        """Write a dataset onto the raw tape; returns blocks written."""
        return self.raw.store(relation)

    # -- view lifecycle -------------------------------------------------------------

    def create_view(
        self,
        definition: ViewDefinition,
        analyst: str = "analyst",
        accuracy: AccuracyPreference | None = None,
        allow_duplicate: bool = False,
    ) -> ViewCreation:
        """Materialize a view — or reuse/derive an existing one.

        The duplicate check of SS2.3 runs first: an identical definition
        returns the existing view; a derivable one is evaluated against the
        existing view's disk-resident data instead of the tape.
        ``allow_duplicate`` forces a fresh tape materialization regardless.
        """
        if definition.name in self.registry.names():
            raise ViewError(f"view name {definition.name!r} already in use")
        match = None if allow_duplicate else self.registry.find_match(definition)
        if match is not None and match.kind == "identical":
            self.views_reused += 1
            return ViewCreation(view=self.registry.get(match.existing), reused=match)
        if match is not None and match.kind == "derivable":
            relation = self.registry.derive_from(definition, match)
            view = self._wrap(relation, definition, analyst)
            self.views_derived += 1
            self._register(view, analyst, accuracy)
            return ViewCreation(view=view, reused=match)
        relation, report = materialize(definition, self.raw)
        view = self._wrap(relation, definition, analyst)
        self.views_materialized += 1
        self._register(view, analyst, accuracy)
        return ViewCreation(view=view, report=report)

    def _wrap(
        self, relation: Relation, definition: ViewDefinition, analyst: str
    ) -> ConcreteView:
        return ConcreteView(
            name=definition.name,
            relation=relation,
            definition=definition,
            owner=analyst,
            summary=SummaryDatabase(view_name=definition.name, tracer=self.tracer),
        )

    def _register(
        self,
        view: ConcreteView,
        analyst: str,
        accuracy: AccuracyPreference | None,
    ) -> None:
        self.registry.register(view)
        assert view.definition is not None
        self.management.register_view(view.definition, view.history)
        if accuracy is not None:
            self.management.set_policy(analyst, view.name, accuracy.to_policy())
        if self.durability is not None:
            self.durability.log_view_created(view)

    def drop_view(self, name: str) -> None:
        """Remove a view and its control information."""
        self.registry.unregister(name)
        self.management.drop_view(name)
        if self.durability is not None:
            self.durability.log_drop(name)

    def view(self, name: str) -> ConcreteView:
        """Fetch a view by name."""
        return self.registry.get(name)

    # -- sessions -----------------------------------------------------------------------

    def session(
        self,
        view_name: str,
        analyst: str = "analyst",
        session_id: str | None = None,
    ) -> AnalystSession:
        """Open an analyst session against a view.

        ``session_id`` (the wire server's connection id) is stamped onto
        the WAL transactions this session logs.
        """
        view = self.registry.get(view_name)
        return AnalystSession(
            management=self.management,
            view=view,
            analyst=analyst,
            policy=self.management.policy_for(analyst, view_name),
            tracer=self.tracer if self.tracer.enabled else None,
            durability=self.durability,
            session_id=session_id,
        )

    # -- publishing / adoption -------------------------------------------------------------

    def publish(self, view_name: str, publisher: str | None = None) -> PublishedEdits:
        """Publish a view's cleaned data and edit history (SS2.3).

        The Management Database records the provenance (publishing analyst
        + view version at publication) alongside the registry snapshot;
        :meth:`adopt_published` verifies the two agree before reuse.
        """
        edits = self.registry.publish(self.registry.get(view_name), publisher)
        self.management.record_publication(
            view_name, publisher=edits.publisher, version=edits.version
        )
        return edits

    def adopt_published(self, view_name: str, new_name: str, analyst: str) -> ConcreteView:
        """Create a private view from another analyst's published edits —

        reusing their data checking instead of redoing it (SS3.2).  The
        snapshot's claimed provenance must match the Management Database's
        publication record, or adoption is refused."""
        edits = self.registry.published(view_name)
        try:
            record = self.management.publication(view_name)
        except MetadataError:
            raise ViewError(
                f"published edits for {view_name!r} have no provenance record "
                "in the Management Database; refuse to adopt"
            ) from None
        if record.publisher != edits.publisher or record.version != edits.version:
            raise ViewError(
                f"provenance mismatch for published view {view_name!r}: "
                f"snapshot claims {edits.publisher}@v{edits.version}, control "
                f"information records {record.publisher}@v{record.version}"
            )
        relation = edits.relation.copy(new_name)
        base_definition = self.registry.get(view_name).definition
        definition = ViewDefinition(name=new_name, root=base_definition.root) if base_definition else None
        view = ConcreteView(
            name=new_name,
            relation=relation,
            definition=definition,
            owner=analyst,
            summary=SummaryDatabase(view_name=new_name, tracer=self.tracer),
        )
        self.registry.register(view)
        if definition is not None:
            self.management.register_view(definition, view.history)
        if self.durability is not None:
            self.durability.log_view_created(view)
        return view

    # -- durability --------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot the whole system atomically and truncate the WAL.

        Requires a :class:`~repro.durability.manager.DurabilityManager`
        passed at construction (``StatisticalDBMS(durability=...)``).
        """
        if self.durability is None:
            raise DurabilityError(
                "durability is not configured; construct the DBMS with "
                "StatisticalDBMS(durability=DurabilityManager(directory))"
            )
        return self.durability.checkpoint()

    # -- reporting -----------------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """System inventory: views, reuse counters, tape state."""
        return {
            "views": self.registry.names(),
            "views_materialized": self.views_materialized,
            "views_derived": self.views_derived,
            "views_reused": self.views_reused,
            "raw_datasets": self.raw.dataset_names,
            "tape_blocks": self.raw.tape.total_blocks,
            "management": self.management.describe(),
        }
