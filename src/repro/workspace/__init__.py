"""The workspace data-space manager (signac direction, ROADMAP item 5).

Three layers over one directory tree:

* :mod:`repro.workspace.manifest` — content-addressed view identity
  (``view_space_id``) and crash-safe ``manifest.json`` records;
* :mod:`repro.workspace.space` — the :class:`Workspace` managing one
  durable single-view DBMS per directory, with pooled bulk
  open/checkpoint/recover that quarantines damage instead of dying;
* :mod:`repro.workspace.index` — the queryable metadata index that makes
  a fleet of thousands of views navigable without opening any of them.
"""

from repro.workspace.index import IndexEntry, WorkspaceIndex
from repro.workspace.manifest import (
    MANIFEST_NAME,
    ViewManifest,
    manifest_path,
    read_manifest,
    view_space_id,
    write_manifest,
)
from repro.workspace.space import ManagedView, Workspace, WorkspaceReport

__all__ = [
    "MANIFEST_NAME",
    "IndexEntry",
    "ManagedView",
    "ViewManifest",
    "Workspace",
    "WorkspaceIndex",
    "WorkspaceReport",
    "manifest_path",
    "read_manifest",
    "view_space_id",
    "write_manifest",
]
