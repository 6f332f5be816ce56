"""Checkpoints: atomic snapshots of the whole DBMS control + view state.

A checkpoint bounds recovery work: replay starts from the snapshot instead
of from an empty system, and the WAL is truncated once the snapshot is
durable.  Atomicity comes from the classic temp-file-plus-rename protocol —
the snapshot is written to ``checkpoint.json.tmp``, fsynced, then renamed
over ``checkpoint.json`` with :func:`os.replace`, so a crash at any point
leaves either the old snapshot or the new one, never a half-written mix.

The snapshot is one compact JSON document, written and read by the one
document codec (:func:`repro.metadata.persistence.dumps` / ``loads``;
``python -m json.tool checkpoint.json`` gives a human view).  It holds:

* the Management Database (view definitions, histories, rules, code books,
  policies, the SUBJECT graph) via
  :func:`repro.metadata.persistence.management_to_dict`;
* every concrete view's schema and cells, as ``"columns"`` in schema order
  (a format-1 snapshot's ``"rows"`` load through the same ``view_from_record``);
* every view's Summary Database entries — results serialized with the
  varying-length encoding of :mod:`repro.summary.entries` (hex-armoured),
  plus freshness state and the kind/epsilon accuracy metadata.  Sketch and
  model maintainers (the :data:`SKETCH_KINDS` family) persist their
  mergeable state and are reconstructed exactly on restore; exact-scalar
  maintainers are *not* persisted — they are rebuilt lazily from the data
  the first time a replayed delta needs them.  A maintainer whose state
  cannot be serialized (or whose kind the restoring build does not know)
  degrades to a detached, stale entry: recovery may re-read data, but it
  never serves a silently wrong sketch.

A checkpoint pays for the columns written since the last one (analyses run
for months, SS2.3): a :class:`Checkpointer` keeps each column's encoded bytes
and splices them back while the column's write epoch is unchanged.

Out of scope (documented in DESIGN.md §4e): the raw tape database — the
paper treats it as an archival input that is reloaded, not recovered
(SS2.3) — and derived-column *definitions*, which are Python callables.
"""

from __future__ import annotations

import os
import weakref
from pathlib import Path
from typing import Any

from repro.core.errors import DurabilityError, MetadataError, SummaryError
from repro.durability.faults import FaultInjector, write_atomically
from repro.incremental.sketches import (
    CountMinSketch,
    HeavyHitterSketch,
    HyperLogLog,
    ReservoirSample,
    TDigest,
)
from repro.metadata.persistence import (
    dumps,
    history_to_dict,
    loads,
    management_to_dict,
    persistable_column,
    splice,
    view_to_record,
)
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.stats.models import IncrementalLinearRegression
from repro.summary.entries import decode_result, encode_result

CHECKPOINT_NAME = "checkpoint.json"
SNAPSHOT_FORMAT = 2

#: Maintainer families with durable, mergeable state: ``sketch_kind`` tag
#: -> class with ``to_state``/``from_state``.  Anything outside this table
#: restores detached (and stale), never approximately.
SKETCH_KINDS: dict[str, Any] = {
    cls.sketch_kind: cls
    for cls in (
        TDigest,
        HyperLogLog,
        ReservoirSample,
        CountMinSketch,
        HeavyHitterSketch,
        IncrementalLinearRegression,
    )
}


def _summary_to_list(summary: Any) -> list[dict]:
    entries = []
    for entry in summary.entries():
        try:
            encoded = encode_result(entry.result)
        except SummaryError:
            # An unencodable result (exotic object) is simply not
            # checkpointed; the next lookup recomputes it from the view.
            continue
        record = {
            "function": entry.key.function,
            "attributes": list(entry.key.attributes),
            "result": encoded.hex(),
            "stale": entry.stale,
            "version": entry.computed_at_version,
            "pending": entry.pending_updates,
            "compute_cost_rows": entry.compute_cost_rows,
            "kind": entry.kind,
        }
        if entry.epsilon is not None:
            record["epsilon"] = entry.epsilon
        maintainer = entry.maintainer
        sketch_kind = getattr(maintainer, "sketch_kind", None)
        if sketch_kind in SKETCH_KINDS:
            try:
                record["maintainer"] = {
                    "kind": sketch_kind,
                    "state": maintainer.to_state(),
                }
            except Exception:
                # A maintainer that cannot produce durable state (e.g. a
                # dirty dense HLL with no provider) restores detached;
                # flag the snapshot so restore marks the entry stale.
                record["maintainer_lost"] = True
        entries.append(record)
    return entries


def restore_summary_entries(
    summary: Any,
    records: list[dict],
    provider_factory: Any = None,
) -> int:
    """Re-insert checkpointed entries into a fresh Summary Database.

    Sketch/model maintainers (:data:`SKETCH_KINDS`) are reconstructed
    from their persisted state; anything else restores detached and the
    first propagated delta (or lookup recomputation) rebuilds it from
    the recovered data.  A maintainer record of unknown kind or with
    corrupt state restores detached *and stale* — never silently wrong.

    ``provider_factory`` maps an attribute tuple to a zero-argument
    values provider (or ``None``); restored HyperLogLogs use it so dense
    deletes can trigger rebuilds after recovery.  Returns the number of
    entries restored.
    """
    restored = 0
    for record in records:
        maintainer = None
        maintainer_lost = bool(record.get("maintainer_lost"))
        info = record.get("maintainer")
        if info is not None:
            cls = SKETCH_KINDS.get(info.get("kind"))
            if cls is None:
                maintainer_lost = True
            else:
                try:
                    if cls is HyperLogLog:
                        provider = (
                            provider_factory(tuple(record["attributes"]))
                            if provider_factory is not None
                            else None
                        )
                        maintainer = cls.from_state(
                            info["state"], values_provider=provider
                        )
                    else:
                        maintainer = cls.from_state(info["state"])
                except Exception:
                    maintainer = None
                    maintainer_lost = True
        entry = summary.insert(
            record["function"],
            tuple(record["attributes"]),
            decode_result(bytes.fromhex(record["result"])),
            maintainer=maintainer,
            compute_cost_rows=record.get("compute_cost_rows", 0),
            version=record.get("version", 0),
            kind=record.get("kind", "exact"),
            epsilon=record.get("epsilon"),
        )
        if record.get("stale") or maintainer_lost:
            summary.mark_stale(entry, pending=record.get("pending", 0))
        restored += 1
    return restored


class Checkpointer:
    """Writes and loads atomic snapshots in a durability directory."""

    def __init__(
        self,
        directory: str | os.PathLike,
        faults: FaultInjector | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.faults = faults or FaultInjector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Encoded cells, weakly keyed: relation -> attribute -> (epoch, bytes).
        self._columns: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def path(self) -> Path:
        """The live snapshot file."""
        return self.directory / CHECKPOINT_NAME

    def write(self, dbms: Any) -> Path:
        """Snapshot ``dbms`` atomically; returns the snapshot path.

        The rename is the commit point, and it is only durable once the
        directory entry reaches disk — hence the directory fsync after
        :func:`os.replace`, *before* the caller may truncate the WAL on
        the snapshot's authority.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = self.encode(dbms)
        write_atomically(self.faults, self.path, payload)
        self.tracer.add("checkpoint.write")
        self.tracer.add("checkpoint.bytes", len(payload))
        return self.path

    def encode(self, dbms: Any) -> bytes:
        """The snapshot of a :class:`~repro.core.dbms.StatisticalDBMS`, as bytes."""
        registered = set(dbms.management.view_names())
        views = []
        for name in dbms.registry.names():
            view = dbms.registry.get(name)
            record: dict[str, Any] = {
                "name": view.name,
                **view_to_record(view, self._columns_of(view.relation)),
                "summary": _summary_to_list(view.summary),
            }
            if name not in registered:
                # Views without a registered definition (adopted copies) keep
                # their history inline; registered ones live in the management
                # snapshot so there is exactly one source of truth.
                record["history"] = history_to_dict(view.history)
            views.append(splice(record))
        management = management_to_dict(dbms.management)
        document = {"format": SNAPSHOT_FORMAT, "management": management}
        return b"".join(splice({**document, "views": splice(views)}))

    def _columns_of(self, relation: Any) -> list[bytes]:
        """The encoded cells; a column is encoded again only if written since.

        The epoch alone is the stamp: every cell write advances it, the row
        count never changes, and a column appended later starts at 1."""
        cache = self._columns.setdefault(relation, {})
        for name in relation.schema.names:
            # Stamped before the copy: a write racing it then misses next time.
            epoch = relation.epochs.get(name, 0)
            if cache.get(name, (None,))[0] == epoch:
                self.tracer.add("checkpoint.columns_reused")
            else:
                cache[name] = (epoch, dumps(persistable_column(relation, name)))
                self.tracer.add("checkpoint.columns_encoded")
        return splice([cache[name][1] for name in relation.schema.names])

    def load(self) -> dict | None:
        """Read the current snapshot (``None`` if absent); a non-snapshot raises."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None
        what = f"checkpoint {self.path}"
        try:
            snapshot = loads(raw)
        except MetadataError as exc:
            raise DurabilityError(f"{what} is unreadable: {exc}") from exc
        if not isinstance(snapshot, dict):
            raise DurabilityError(f"{what} is not a snapshot: not a JSON object")
        if snapshot.get("format") not in (1, SNAPSHOT_FORMAT):  # 1: cells as "rows"
            raise DurabilityError(
                f"{what} has unsupported format {snapshot.get('format')!r}"
            )
        for key, kind in (("management", dict), ("views", list)):
            if not isinstance(snapshot.get(key), kind):
                raise DurabilityError(f"{what} has no {key!r} {kind.__name__}")
        return snapshot
