"""The data-space manager: views as the unit of fleet management.

A :class:`Workspace` is rooted at one directory and owns one
content-addressed subdirectory per managed view (signac direction,
ROADMAP item 5).  Each view directory is a *self-contained* durable DBMS:
its own write-ahead log and checkpoint (via the existing
:class:`~repro.durability.manager.DurabilityManager`) plus the
``manifest.json`` identity card that makes the fleet navigable without
recovery.  The paper's months-long exploratory lifecycle then scales out:
an analyst estate of thousands of parameterized views can be created,
re-opened, checkpointed, recovered, and searched as a fleet.

Bulk operations (``open_many``/``checkpoint_all``/``recover_all``) run
per-view work through a bounded thread pool and aggregate per-view
failures into a :class:`WorkspaceReport` — a corrupt directory is
quarantined and *named*, never allowed to kill the sweep.  A torn WAL
tail is not damage (crash recovery truncates it by design); such views
recover and are reported as degraded with the recovery warnings attached.
"""

from __future__ import annotations

import shutil
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.dbms import StatisticalDBMS
from repro.core.errors import ManifestError, ReproError, WorkspaceError
from repro.durability.faults import FaultInjector
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryReport, recover
from repro.metadata.persistence import definition_to_dict
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.relation import Relation
from repro.views.materialize import ViewDefinition
from repro.views.sharing import match_canonical
from repro.workspace.index import IndexEntry, WorkspaceIndex
from repro.workspace.manifest import (
    ViewManifest,
    read_manifest,
    view_space_id,
    write_manifest,
)

#: Files that mark a directory as (the remains of) a managed view.
_VIEW_DIR_MARKERS = ("manifest.json", "log.wal", "checkpoint.json")


@dataclass
class WorkspaceReport:
    """Aggregated outcome of one bulk operation over the fleet."""

    action: str
    succeeded: list[str] = field(default_factory=list)
    #: directory name -> reason the view is unusable.
    quarantined: dict[str, str] = field(default_factory=dict)
    #: space id -> recovery warnings (torn tails truncated, entries
    #: marked stale, ...) for views that recovered in degraded form.
    degraded: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every view came through undamaged."""
        return not self.quarantined

    def summary(self) -> str:
        parts = [
            f"{self.action}: {len(self.succeeded)} ok",
            f"{len(self.quarantined)} quarantined",
            f"{len(self.degraded)} degraded",
        ]
        lines = [", ".join(parts)]
        for name in sorted(self.quarantined):
            lines.append(f"  quarantined {name}: {self.quarantined[name]}")
        for name in sorted(self.degraded):
            lines.append(
                f"  degraded {name}: {'; '.join(self.degraded[name])}"
            )
        return "\n".join(lines)


class ManagedView:
    """A live handle on one workspace view: DBMS + manifest + directory."""

    def __init__(
        self,
        workspace: "Workspace",
        space_id: str,
        directory: Path,
        dbms: StatisticalDBMS,
        view_name: str,
        recovery: RecoveryReport | None = None,
    ) -> None:
        # Weak: the workspace holds its handles; a strong way back is a cycle.
        self.workspace: Workspace = weakref.proxy(workspace)
        self.space_id = space_id
        self.directory = directory
        self.dbms = dbms
        self.view_name = view_name
        self.recovery = recovery

    @property
    def view(self) -> Any:
        return self.dbms.view(self.view_name)

    def session(self, analyst: str = "analyst") -> Any:
        """An analyst session over the managed view."""
        return self.dbms.session(self.view_name, analyst=analyst)

    def checkpoint(self) -> Path:
        """Durable snapshot + manifest refresh + index update."""
        self.dbms.checkpoint()
        return self.workspace.refresh_manifest(self)

    def close(self) -> None:
        """Checkpoint and release this handle."""
        self.workspace.close(self.space_id)

    def __repr__(self) -> str:
        return (
            f"ManagedView({self.space_id} -> {self.view_name!r} "
            f"in {self.directory.name})"
        )


class Workspace:
    """A directory of content-addressed managed views (see module doc)."""

    def __init__(
        self,
        root: str | Path,
        faults: FaultInjector | None = None,
        tracer: AbstractTracer | None = None,
        pool_size: int = 8,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.faults = faults or FaultInjector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pool_size = max(1, pool_size)
        self.index = WorkspaceIndex()
        self.index.rebuild(self.root)
        self._open: dict[str, ManagedView] = {}

    # -- identity ------------------------------------------------------------

    def directory_of(self, space_id: str) -> Path:
        return self.root / space_id

    # -- single-view lifecycle ----------------------------------------------

    def create(
        self,
        definition: ViewDefinition,
        source: Relation,
        parameters: dict[str, Any] | None = None,
        analyst: str = "analyst",
        parent: str | None = None,
    ) -> ManagedView:
        """Materialize a managed view in its content-addressed directory.

        Idempotent in the signac style: if the same (schema, definition,
        parameters) content already exists in the workspace, the existing
        view is opened and returned instead of re-materialized.  Lineage
        is the explicit ``parent`` space id if given, otherwise inferred
        by SS2.3 derivation matching against the indexed fleet.
        """
        space_id = view_space_id(source.schema, definition, parameters)
        if space_id in self._open:
            return self._open[space_id]
        if space_id in self.index:
            return self.open(space_id)
        lineage = self._lineage_for(definition, parent, exclude=space_id)
        directory = self.directory_of(space_id)
        dbms = StatisticalDBMS(
            tracer=self.tracer,
            durability=DurabilityManager(
                directory, faults=self.faults, tracer=self.tracer
            ),
        )
        dbms.load_raw(source)
        creation = dbms.create_view(definition, analyst=analyst)
        dbms.checkpoint()
        managed = ManagedView(
            self, space_id, directory, dbms, creation.view.name
        )
        self._write_manifest_for(managed, parameters, lineage)
        self._open[space_id] = managed
        return managed

    def open(self, space_id: str) -> ManagedView:
        """Recover one managed view from its directory."""
        if space_id in self._open:
            return self._open[space_id]
        directory = self.directory_of(space_id)
        manifest = read_manifest(directory)
        dbms, report = recover(directory, tracer=self.tracer)
        managed = ManagedView(
            self, space_id, directory, dbms, manifest.view_name, recovery=report
        )
        self._open[space_id] = managed
        self.index.update(manifest, directory)
        return managed

    def checkpoint(self, space_id: str) -> Path:
        """Checkpoint one open view (and refresh its manifest)."""
        return self._require_open(space_id).checkpoint()

    def close(self, space_id: str) -> None:
        """Checkpoint one open view and release its handle."""
        managed = self._require_open(space_id)
        managed.dbms.checkpoint()
        self.refresh_manifest(managed)
        durability = managed.dbms.durability
        if durability is not None:
            durability.close()
        del self._open[space_id]

    def drop(self, space_id: str) -> None:
        """Remove a managed view's directory and index entry entirely."""
        if space_id in self._open:
            managed = self._open.pop(space_id)
            durability = managed.dbms.durability
            if durability is not None:
                durability.close()
        directory = self.directory_of(space_id)
        if not directory.exists():
            raise WorkspaceError(f"no managed view {space_id!r}")
        shutil.rmtree(directory)
        self.index.remove(space_id)

    # -- bulk operations -----------------------------------------------------

    def open_many(
        self, space_ids: Iterable[str]
    ) -> tuple[list[ManagedView], WorkspaceReport]:
        """Open a batch of views through the bounded pool.

        Returns the successfully opened handles plus a report naming
        every view that could not be opened.
        """
        report = WorkspaceReport(action="open_many")
        views: list[ManagedView] = []

        def open_one(space_id: str) -> ManagedView:
            return self.open(space_id)

        for space_id, outcome, error in self._pooled(list(space_ids), open_one):
            if error is not None:
                report.quarantined[space_id] = error
                continue
            report.succeeded.append(space_id)
            views.append(outcome)
            warnings = outcome.recovery.warnings if outcome.recovery else []
            if warnings:
                report.degraded[space_id] = list(warnings)
        return views, report

    def checkpoint_all(self) -> WorkspaceReport:
        """Checkpoint every open view; failures aggregate, never raise."""
        report = WorkspaceReport(action="checkpoint_all")

        def checkpoint_one(space_id: str) -> Path:
            return self._open[space_id].checkpoint()

        for space_id, _, error in self._pooled(sorted(self._open), checkpoint_one):
            if error is not None:
                report.quarantined[space_id] = error
            else:
                report.succeeded.append(space_id)
        return report

    def recover_all(self, keep_open: bool = False) -> WorkspaceReport:
        """Recover every view directory under the root; quarantine damage.

        Sweeps all directories bearing view markers (not just indexed
        ones, so a view whose manifest was destroyed is still *named* in
        the report).  Per view: read the manifest, run crash recovery,
        refresh the manifest from the recovered state, and either keep
        the handle open or release it.  An unreadable manifest or a
        recovery failure quarantines that view; torn-tail truncations and
        other recovery warnings mark it degraded.
        """
        report = WorkspaceReport(action="recover_all")

        def recover_one(directory: Path) -> tuple[str, list[str]]:
            manifest = read_manifest(directory)
            space_id = manifest.space_id
            already = self._open.get(space_id)
            if already is not None:
                return space_id, []
            dbms, recovery = recover(directory, tracer=self.tracer)
            managed = ManagedView(
                self, space_id, directory, dbms, manifest.view_name,
                recovery=recovery,
            )
            self.refresh_manifest(managed)
            if keep_open:
                self._open[space_id] = managed
            else:
                durability = dbms.durability
                if durability is not None:
                    durability.close()
            return space_id, list(recovery.warnings)

        candidates = self._view_directories()
        for directory, outcome, error in self._pooled(candidates, recover_one):
            if error is not None:
                self.index.quarantined[directory.name] = error
                report.quarantined[directory.name] = error
                continue
            space_id, warnings = outcome
            report.succeeded.append(space_id)
            if warnings:
                report.degraded[space_id] = warnings
        return report

    def close_all(self) -> WorkspaceReport:
        """Checkpoint and release every open view."""
        report = WorkspaceReport(action="close_all")
        for space_id in sorted(self._open):
            try:
                self.close(space_id)
            except ReproError as exc:
                report.quarantined[space_id] = str(exc)
            else:
                report.succeeded.append(space_id)
        return report

    # -- queries -------------------------------------------------------------

    def find(self, **query: Any) -> list[IndexEntry]:
        """Index query over the fleet — answers from manifests alone."""
        return self.index.find(**query)

    def ids(self) -> list[str]:
        """All managed space ids (indexed, open or not)."""
        return self.index.ids()

    def open_ids(self) -> list[str]:
        """Space ids with a live handle."""
        return sorted(self._open)

    def describe(self) -> dict[str, Any]:
        return {
            "root": str(self.root),
            "views": len(self.index),
            "open": len(self._open),
            "quarantined": dict(self.index.quarantined),
        }

    # -- manifest maintenance ------------------------------------------------

    def refresh_manifest(self, managed: ManagedView) -> Path:
        """Rewrite a view's manifest from its live state (crash-safely)."""
        existing: ViewManifest | None
        try:
            existing = read_manifest(managed.directory)
        except ManifestError:
            existing = None
        parameters = existing.parameters if existing is not None else {}
        lineage = existing.lineage if existing is not None else None
        return self._write_manifest_for(managed, parameters, lineage)

    def _write_manifest_for(
        self,
        managed: ManagedView,
        parameters: dict[str, Any] | None,
        lineage: dict[str, Any] | None,
    ) -> Path:
        manifest = self._manifest_from_live(managed, parameters, lineage)
        path = write_manifest(managed.directory, manifest, faults=self.faults)
        self.index.update(manifest, managed.directory)
        return path

    def _manifest_from_live(
        self,
        managed: ManagedView,
        parameters: dict[str, Any] | None,
        lineage: dict[str, Any] | None,
    ) -> ViewManifest:
        view = managed.view
        dbms = managed.dbms
        definition = view.definition
        if definition is None:
            raise WorkspaceError(
                f"managed view {managed.space_id!r} has no definition"
            )
        books = dbms.management.codebooks
        inventory = []
        for entry in view.summary.entries():
            record: dict[str, Any] = {
                "function": entry.key.function,
                "attributes": list(entry.key.attributes),
                "kind": entry.kind,
                "stale": bool(entry.stale),
            }
            if entry.epsilon is not None:
                record["epsilon"] = entry.epsilon
            inventory.append(record)
        return ViewManifest(
            space_id=managed.space_id,
            view_name=view.name,
            definition=definition_to_dict(definition),
            definition_canonical=definition.canonical(),
            parameters=dict(parameters or {}),
            schema=[
                {
                    "name": attr.name,
                    "dtype": attr.dtype.name,
                    "role": attr.role.value,
                    "codebook": attr.codebook,
                }
                for attr in view.schema.attributes
            ],
            codebook_editions={
                name: books.editions_of(name) for name in books.names()
            },
            high_water_mark=view.version,
            summary_inventory=sorted(
                inventory, key=lambda r: (r["function"], r["attributes"])
            ),
            lineage=lineage,
        )

    def _lineage_for(
        self,
        definition: ViewDefinition,
        parent: str | None,
        exclude: str,
    ) -> dict[str, Any] | None:
        if parent is not None:
            if parent not in self.index:
                raise WorkspaceError(f"lineage parent {parent!r} is not managed")
            return {"parent": parent, "kind": "explicit", "operations": 0}
        candidates = {
            space_id: canonical
            for space_id, canonical in self.index.canonical_forms().items()
            if space_id != exclude
        }
        match = match_canonical(definition, candidates)
        if match is None:
            return None
        return {
            "parent": match.existing,
            "kind": match.kind,
            "operations": match.operations,
        }

    # -- plumbing ------------------------------------------------------------

    def _require_open(self, space_id: str) -> ManagedView:
        try:
            return self._open[space_id]
        except KeyError:
            raise WorkspaceError(f"view {space_id!r} is not open") from None

    def _view_directories(self) -> list[Path]:
        return sorted(
            path
            for path in self.root.iterdir()
            if path.is_dir()
            and any((path / marker).exists() for marker in _VIEW_DIR_MARKERS)
        )

    def _pooled(
        self,
        items: list[Any],
        work: Callable[[Any], Any],
    ) -> list[tuple[Any, Any, str | None]]:
        """Run ``work`` over ``items`` in the bounded pool.

        Returns ``(item, result, error)`` triples in input order; an
        exception becomes the error string (type-prefixed) so callers
        aggregate instead of dying on the first damaged view.
        """
        results: list[tuple[Any, Any, str | None]] = []
        if not items:
            return results
        with ThreadPoolExecutor(max_workers=self.pool_size) as pool:
            futures = [pool.submit(_guarded, work, item) for item in items]
            for item, future in zip(items, futures):
                outcome, error = future.result()
                results.append((item, outcome, error))
        return results


def _guarded(work: Callable[[Any], Any], item: Any) -> tuple[Any, str | None]:
    try:
        return work(item), None
    except Exception as exc:  # aggregated, never propagated
        return None, f"{type(exc).__name__}: {exc}"
