"""Crash recovery: checkpoint load + incremental WAL replay.

:func:`recover` rebuilds a :class:`~repro.core.dbms.StatisticalDBMS` from a
durability directory in three phases:

1. **Snapshot load** — the latest checkpoint (if any) restores the
   Management Database, every concrete view's rows, and every Summary
   Database's entries (maintainers detached; see
   :mod:`repro.durability.checkpoint`).
2. **Replay** — committed WAL transactions are re-applied *in log order*,
   each one as the analyst action it was, through the code the live
   session runs: :func:`repro.views.updates.replay_operation` writes every
   logged operation of the transaction back (cells, then the history entry
   under its original version), and one
   :meth:`~repro.core.propagation.UpdatePropagator.propagate_operations`
   call maintains the summary entries **incrementally from the log**
   rather than by rescanning the view.  An undo record runs
   :meth:`~repro.views.history.UpdateHistory.undo_last` against the view's
   relation and propagates the inverse.
3. **Tail handling** — the first torn or corrupt frame ends the trusted
   log; the file is truncated back to that trusted prefix (so the new
   manager's appends stay reachable to future scans), an uncommitted
   transaction at the tail is discarded, and summary entries over the
   attributes it *mentioned* are conservatively marked stale (the data
   never changed, but the died-mid-transaction signal is treated as
   grounds for recomputation on next lookup).

Replay is idempotent against a checkpoint that already contains logged
work — the crash window between a checkpoint's ``os.replace`` and the WAL
truncation leaves both on disk.  Op records are skipped when their version
is at or below the history's high-water mark; undo records carry the
version numbers they removed and are skipped unless the history's tail
still holds exactly those versions.

Every anomaly (duplicate commit, orphan record, unknown view, version
regression) becomes a warning in the :class:`RecoveryReport`, never an
unhandled exception — a damaged log yields the longest trustworthy prefix.

Counter names: ``recovery.replayed``, ``recovery.discarded``,
``recovery.stale_marked``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.dbms import StatisticalDBMS
from repro.durability.checkpoint import Checkpointer, restore_summary_entries
from repro.durability.faults import FaultInjector
from repro.durability.manager import WAL_NAME, DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.metadata.management import ManagementDatabase
from repro.metadata.persistence import (
    definition_from_dict,
    history_from_dict,
    management_from_dict,
    operation_from_dict,
    view_from_record,
)
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.views.history import Operation
from repro.views.updates import replay_operation
from repro.views.view import ConcreteView


@dataclass
class RecoveryReport:
    """What one :func:`recover` call did."""

    checkpoint_loaded: bool = False
    views: list[str] = field(default_factory=list)
    transactions_committed: int = 0
    operations_replayed: int = 0
    undos_replayed: int = 0
    records_discarded: int = 0
    entries_marked_stale: int = 0
    torn_tail: bool = False
    tail_bytes_truncated: int = 0
    warnings: list[str] = field(default_factory=list)

    def discard(self, warning: str, records: int = 1) -> None:
        """Count ``records`` log records as not replayed, and say why."""
        self.warnings.append(warning)
        self.records_discarded += records

    def summary(self) -> str:
        """One-line human rendering (the shell prints this)."""
        tail = ", torn tail" if self.torn_tail else ""
        if self.tail_bytes_truncated:
            tail += f" ({self.tail_bytes_truncated} byte(s) truncated)"
        return (
            f"recovered {len(self.views)} view(s) "
            f"(checkpoint={'yes' if self.checkpoint_loaded else 'no'}): "
            f"{self.transactions_committed} txn(s) replayed, "
            f"{self.operations_replayed} op(s), {self.undos_replayed} undo(s), "
            f"{self.records_discarded} record(s) discarded, "
            f"{self.entries_marked_stale} cache entr(ies) marked stale"
            f"{tail}"
        )


@dataclass
class _Transaction:
    txn: int
    view: str
    records: list[dict] = field(default_factory=list)


def recover(
    directory: str | os.PathLike,
    faults: FaultInjector | None = None,
    tracer: AbstractTracer | None = None,
) -> tuple[StatisticalDBMS, RecoveryReport]:
    """Rebuild a DBMS from ``directory``; returns (dbms, report).

    The recovered DBMS is bound to a fresh :class:`DurabilityManager` over
    the same directory, numbered past every transaction the log holds, so
    the analyst continues exactly where the committed prefix ends.
    """
    sink = tracer if tracer is not None else NULL_TRACER
    report = RecoveryReport()

    checkpointer = Checkpointer(directory, tracer=sink)
    snapshot = checkpointer.load()
    if snapshot is not None:
        report.checkpoint_loaded = True
        management = management_from_dict(snapshot["management"])
    else:
        management = ManagementDatabase()

    manager = DurabilityManager(directory, faults=faults, tracer=sink)
    dbms = StatisticalDBMS(management=management, tracer=sink, durability=manager)

    if snapshot is not None:
        for record in snapshot["views"]:
            _restore_view(dbms, record, f"checkpoint {checkpointer.path}")

    scan = WriteAheadLog(manager.directory / WAL_NAME, tracer=sink).scan()
    report.torn_tail = scan.torn_tail
    report.warnings.extend(scan.warnings)
    if scan.torn_tail:
        # Cut the log back to the trusted prefix *now*: the manager
        # appends in 'ab' mode, and new commits written after leftover
        # corrupt bytes would be unreachable to the next scan — durable
        # on disk yet silently discarded by the next recovery.
        removed = manager.wal.truncate_tail(scan.bytes_scanned)
        if removed:
            report.tail_bytes_truncated = removed
            report.warnings.append(
                f"truncated {removed} untrusted byte(s) after the last "
                f"readable frame"
            )
            sink.add("recovery.tail_truncated_bytes", removed)

    committed, tail, max_txn = _group_transactions(scan.records, report)
    if report.records_discarded:
        sink.add("recovery.discarded", report.records_discarded)
    for txn in committed:
        _replay_transaction(dbms, txn, report)
        report.transactions_committed += 1
    _discard_tail(dbms, tail, report)

    manager.resume_from_txn(max_txn + 1)
    report.views = dbms.registry.names()
    return dbms, report


# -- snapshot restoration ----------------------------------------------------


def _restore_view(dbms: StatisticalDBMS, record: dict, origin: str) -> None:
    name = record["name"]
    registered = name in dbms.management.view_names()
    definition = dbms.management.view_definition(name) if registered else None
    view = view_from_record(name, record, definition, dbms.tracer, origin)
    if registered:
        # The management snapshot holds the authoritative history object;
        # the view must share it (exactly as registration wires it live).
        view.history = dbms.management.view_history(name)
    elif "history" in record:
        view.history = history_from_dict(record["history"])
    restore_summary_entries(
        view.summary,
        record.get("summary", []),
        provider_factory=lambda attrs: (
            view.column_provider(attrs[0]) if len(attrs) == 1 else None
        ),
    )
    dbms.registry.register(view)


# -- transaction grouping ----------------------------------------------------


def _group_transactions(
    records: list[dict], report: RecoveryReport
) -> tuple[list[_Transaction], _Transaction | None, int]:
    committed: list[_Transaction] = []
    open_txn: _Transaction | None = None
    max_txn = 0
    for record in records:
        kind = record.get("t")
        txn = record.get("txn", 0)
        max_txn = max(max_txn, txn if isinstance(txn, int) else 0)
        if kind == "begin":
            if open_txn is not None:
                report.discard(
                    f"transaction {open_txn.txn} has no commit record; discarded",
                    records=1 + len(open_txn.records),
                )
            open_txn = _Transaction(txn=txn, view=record.get("view", ""))
        elif kind == "commit":
            if open_txn is None or open_txn.txn != txn:
                report.discard(
                    f"duplicate or orphan commit for transaction {txn}; skipped"
                )
            else:
                committed.append(open_txn)
                open_txn = None
        elif kind in ("op", "undo", "view", "drop"):
            if open_txn is None or open_txn.txn != txn:
                report.discard(
                    f"{kind} record outside its transaction ({txn}); skipped"
                )
            else:
                open_txn.records.append(record)
        else:
            report.discard(f"unknown record type {kind!r}; skipped")
    return committed, open_txn, max_txn


# -- replay ------------------------------------------------------------------


def _replay_transaction(
    dbms: StatisticalDBMS, txn: _Transaction, report: RecoveryReport
) -> None:
    """Replay one committed transaction — one analyst action — as live:

    every operation of the action is written before any is propagated."""
    written: dict[str, list[Operation]] = {}
    for record in txn.records:
        kind = record["t"]
        if kind == "view":
            _replay_view_created(dbms, record, report)
        elif kind == "drop":
            _replay_drop(dbms, record, report)
        elif kind == "undo":
            _replay_undo(dbms, record, report)
        elif kind == "op":
            operation = _replay_operation(dbms, record, report)
            if operation is not None:
                written.setdefault(record["view"], []).append(operation)
    for name, operations in written.items():
        _propagate(dbms, dbms.registry.get(name), operations)


def _replay_view_created(
    dbms: StatisticalDBMS, record: dict, report: RecoveryReport
) -> None:
    name = record["view"]
    if name in dbms.registry.names():
        report.discard(f"view {name!r} already exists; creation skipped")
        return
    definition = (
        definition_from_dict(record["definition"]) if "definition" in record else None
    )
    origin = f"log {dbms.durability.wal_path}" if dbms.durability else "log"
    view = view_from_record(name, record, definition, dbms.tracer, origin)
    dbms.registry.register(view)
    if definition is not None and name not in dbms.management.view_names():
        dbms.management.register_view(definition, view.history)
    dbms.tracer.add("recovery.replayed")


def _replay_drop(dbms: StatisticalDBMS, record: dict, report: RecoveryReport) -> None:
    name = record["view"]
    if name not in dbms.registry.names():
        report.discard(f"drop of unknown view {name!r}; skipped")
        return
    dbms.registry.unregister(name)
    if name in dbms.management.view_names():
        dbms.management.drop_view(name)


def _known_view(
    dbms: StatisticalDBMS, record: dict, what: str, report: RecoveryReport
) -> ConcreteView | None:
    name = record["view"]
    if name not in dbms.registry.names():
        report.discard(f"{what} for unknown view {name!r}; skipped")
        return None
    return dbms.registry.get(name)


def _replay_operation(
    dbms: StatisticalDBMS, record: dict, report: RecoveryReport
) -> Operation | None:
    """Write one logged operation back; the transaction propagates it."""
    view = _known_view(dbms, record, "operation", report)
    if view is None:
        return None
    operation = operation_from_dict(record["op"])
    if operation.version <= view.history.version:
        report.discard(
            f"duplicate operation v{operation.version} for view {view.name!r}; skipped"
        )
        return None
    report.operations_replayed += 1
    dbms.tracer.add("recovery.replayed")
    return replay_operation(view, operation)


def _replay_undo(dbms: StatisticalDBMS, record: dict, report: RecoveryReport) -> None:
    view = _known_view(dbms, record, "undo", report)
    if view is None:
        return
    count = int(record.get("count", 1))
    versions = record.get("versions")
    if versions:
        # Idempotence guard, the undo analogue of the op-record version
        # check: versions are monotonic and never reissued, so the undo
        # applies iff the history's tail still holds exactly the versions
        # it removed live.  A mismatched tail means the checkpoint was
        # taken *after* the undo (crash landed between the snapshot's
        # rename and the WAL truncation) — replaying it again would
        # revert an older committed operation.
        count = len(versions)
        if view.history.tail_versions(count) != list(versions):
            report.discard(
                f"undo of versions {versions} on view {view.name!r} already "
                f"reflected in the checkpoint; skipped"
            )
            return
    if count < 1 or count > len(view.history):
        report.discard(
            f"undo of {count} operation(s) on view {view.name!r} with "
            f"{len(view.history)} logged; skipped"
        )
        return
    _propagate(dbms, view, view.history.undo_last(view.relation, count), inverse=True)
    report.undos_replayed += 1
    dbms.tracer.add("recovery.replayed")


def _propagate(
    dbms: StatisticalDBMS,
    view: ConcreteView,
    operations: list[Operation],
    inverse: bool = False,
) -> None:
    """Maintain the summary as the view owner's own session would."""
    session = dbms.session(view.name, analyst=view.owner)
    session.propagator.propagate_operations(operations, inverse)


# -- torn-tail handling ------------------------------------------------------


def _discard_tail(
    dbms: StatisticalDBMS, tail: _Transaction | None, report: RecoveryReport
) -> None:
    if tail is None:
        return
    report.torn_tail = True
    report.discard(
        f"transaction {tail.txn} was never committed; "
        f"{len(tail.records)} record(s) discarded",
        records=1 + len(tail.records),
    )
    dbms.tracer.add("recovery.discarded", 1 + len(tail.records))
    # Conservatively distrust cached results over the attributes the dying
    # transaction mentioned: the data never changed (its writes were
    # discarded with the tail), but recomputation-on-next-lookup is cheap
    # insurance against a half-observed world.
    for record in tail.records:
        if record.get("t") != "op" or record.get("view") not in dbms.registry.names():
            continue
        view = dbms.registry.get(record["view"])
        attribute = record.get("op", {}).get("attribute")
        if attribute:
            report.entries_marked_stale += view.summary.invalidate_attribute(attribute)
    if report.entries_marked_stale:
        dbms.tracer.add("recovery.stale_marked", report.entries_marked_stale)
