"""View manifests: the durable identity card of one managed view.

A workspace directory holds one subdirectory per managed view, named by
the view's *space id* — a stable content hash over the view's schema, its
definition in canonical form, and its (JSON-canonicalized) parameters, in
the signac style: the same analysis requested twice lands in the same
directory, and two different parameterizations never collide.  Next to
the view's durability artifacts (``log.wal``/``checkpoint.json``) lives
``manifest.json``, a small metadata record that the workspace index can
read *without* recovering the view: definition and parameters, code-book
editions in play, the update-history high-water mark, the inventory of
summary/sketch/model entries with their staleness, and lineage to the
parent view it was derived from (paper SS2.3 duplicate detection, lifted
to fleet scope).

Manifest writes reuse the durability layer's crash-safety idiom: payload
to a temp file, fsync, :func:`os.replace` over the live name, directory
fsync — all routed through a :class:`~repro.durability.faults.
FaultInjector` so the fault-sweep tests can kill the write at every I/O
point and assert that a crash leaves the old manifest or the new one,
never a torn mix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.errors import ManifestError
from repro.durability.faults import FaultInjector, write_atomically
from repro.metadata.persistence import attribute_to_dict
from repro.relational.schema import Schema
from repro.views.materialize import ViewDefinition

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1
#: Hex digits of the sha256 content hash used as a directory name — 16
#: gives 64 bits, collision-safe far past the "thousands of views" scale.
SPACE_ID_LENGTH = 16


def canonical_parameters(parameters: dict[str, Any] | None) -> dict[str, Any]:
    """Validate and key-sort a parameter mapping for hashing/storage."""
    if not parameters:
        return {}
    try:
        encoded = json.dumps(parameters, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ManifestError(
            f"view parameters must be JSON-serializable: {exc}"
        ) from exc
    result: dict[str, Any] = json.loads(encoded)
    return result


def view_space_id(
    schema: Schema,
    definition: ViewDefinition,
    parameters: dict[str, Any] | None = None,
) -> str:
    """The content-addressed directory name for one managed view.

    Stable across processes and sessions: the hash covers the schema's
    attribute records, the definition's canonical form (name-independent
    operator tree), and the canonical-JSON parameters — nothing
    process-local, nothing ``PYTHONHASHSEED``-salted.
    """
    payload = {
        "schema": [attribute_to_dict(attr) for attr in schema.attributes],
        "definition": definition.canonical(),
        "parameters": canonical_parameters(parameters),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:SPACE_ID_LENGTH]


@dataclass
class ViewManifest:
    """Everything the index needs to know without opening the view."""

    space_id: str
    view_name: str
    definition: dict[str, Any]  # persistence form (definition_to_dict)
    definition_canonical: str
    parameters: dict[str, Any] = field(default_factory=dict)
    schema: list[dict[str, Any]] = field(default_factory=list)
    codebook_editions: dict[str, list[str]] = field(default_factory=dict)
    high_water_mark: int = 0
    summary_inventory: list[dict[str, Any]] = field(default_factory=list)
    lineage: dict[str, Any] | None = None  # {"parent", "kind", "operations"}

    def stats(self) -> set[str]:
        """Function names with a summary entry in this view."""
        return {str(record["function"]) for record in self.summary_inventory}

    def stale_stats(self) -> set[str]:
        """Function names whose entries are currently stale."""
        return {
            str(record["function"])
            for record in self.summary_inventory
            if record.get("stale")
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "space_id": self.space_id,
            "view": self.view_name,
            "definition": self.definition,
            "definition_canonical": self.definition_canonical,
            "parameters": self.parameters,
            "schema": self.schema,
            "codebook_editions": self.codebook_editions,
            "high_water_mark": self.high_water_mark,
            "summary_inventory": self.summary_inventory,
            "lineage": self.lineage,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ViewManifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"manifest has unsupported format {data.get('format')!r} "
                f"(expected {MANIFEST_FORMAT})"
            )
        try:
            return cls(
                space_id=str(data["space_id"]),
                view_name=str(data["view"]),
                definition=dict(data["definition"]),
                definition_canonical=str(data["definition_canonical"]),
                parameters=dict(data.get("parameters") or {}),
                schema=list(data.get("schema") or []),
                codebook_editions={
                    str(name): [str(e) for e in editions]
                    for name, editions in (data.get("codebook_editions") or {}).items()
                },
                high_water_mark=int(data.get("high_water_mark", 0)),
                summary_inventory=list(data.get("summary_inventory") or []),
                lineage=data.get("lineage"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"manifest record is malformed: {exc}") from exc


def manifest_path(directory: str | Path) -> Path:
    """The manifest file inside one view directory."""
    return Path(directory) / MANIFEST_NAME


def write_manifest(
    directory: str | Path,
    manifest: ViewManifest,
    faults: FaultInjector | None = None,
) -> Path:
    """Atomically persist ``manifest`` into the view directory.

    Same commit protocol as the durability layer's snapshots: the
    :func:`os.replace` rename is the commit point, durable only once the
    directory entry is fsynced.
    """
    target = manifest_path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(manifest.to_dict(), indent=1, sort_keys=True)
    write_atomically(faults or FaultInjector(), target, payload.encode("utf-8"))
    return target


def read_manifest(directory: str | Path) -> ViewManifest:
    """Load the manifest of one view directory.

    Raises :class:`~repro.core.errors.ManifestError` for *any* unreadable
    state — missing file, undecodable bytes, malformed record — so bulk
    scans have exactly one exception type to quarantine on.
    """
    path = manifest_path(directory)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"manifest {path} is unreadable: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"manifest {path} is corrupt: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    return ViewManifest.from_dict(data)
