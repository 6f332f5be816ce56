"""The durability facade: one WAL + one checkpointer per DBMS.

A :class:`DurabilityManager` owns a durability *directory* (``log.wal`` +
``checkpoint.json``) and turns logical DBMS events into framed WAL
transactions:

* ``log_view_created`` — a new concrete view (definition, schema, rows);
* ``log_operations`` — the logged update/invalidate operations one analyst
  action recorded (begin → one ``op`` frame each → commit+fsync);
* ``log_undo`` — an undo of the last *n* operations (with the undone
  version numbers, so replay can tell whether a checkpoint already
  reflects the undo);
* ``log_drop`` — a view removal;
* ``checkpoint`` — snapshot the bound DBMS atomically, then truncate the
  log (every logged transaction is now inside the snapshot).

The commit frame's fsync is the durability point: a transaction whose
commit frame is on disk is replayed by :func:`repro.durability.recovery.
recover`; anything after the last commit is discarded as a torn tail.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from pathlib import Path
from typing import Any, Sequence

from repro.core.errors import DurabilityError
from repro.durability.checkpoint import Checkpointer
from repro.durability.faults import FaultInjector
from repro.durability.wal import WriteAheadLog, ensure_directory
from repro.metadata.persistence import (
    definition_to_dict,
    operation_to_dict,
    view_to_record,
)
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.views.history import Operation

WAL_NAME = "log.wal"


class DurabilityManager:
    """Crash-safety services for one :class:`~repro.core.dbms.StatisticalDBMS`.

    Parameters
    ----------
    directory:
        Where ``log.wal`` and ``checkpoint.json`` live (created if absent).
    faults:
        Optional :class:`FaultInjector` shared by the WAL and checkpointer
        (the crash-sweep harness).
    tracer:
        Counter sink (``wal.*``, ``checkpoint.*``).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        faults: FaultInjector | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.directory = ensure_directory(directory)
        self.faults = faults or FaultInjector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.wal = WriteAheadLog(
            self.directory / WAL_NAME, faults=self.faults, tracer=self.tracer
        )
        self.checkpointer = Checkpointer(
            self.directory, faults=self.faults, tracer=self.tracer
        )
        self._dbms: weakref.ref[Any] | None = None
        # Transaction ids come from an itertools.count: under the GIL a
        # bare ``next()`` is atomic, so concurrent sessions logging through
        # the same manager never collide on a txn id even before the
        # group committer serializes their frames.  ``_next_txn`` mirrors
        # the counter for ``__repr__`` and :meth:`resume_from_txn`.
        self._txn_ids = itertools.count(1)
        self._next_txn = 1
        #: Optional :class:`repro.concurrency.groupcommit.GroupCommitter`.
        #: When installed, :meth:`_log_transaction` hands it the whole
        #: frame list and the committer batches concurrent transactions
        #: into one fsync; when ``None``, frames go straight to the WAL.
        self.group_commit: Any = None
        # Per-thread early-lock-release state: while a write transaction
        # has called defer_syncs(), this thread's logged transactions are
        # only *staged* with the group committer and their fsync waits
        # collected here, to be drained after the view lock is released.
        self._deferred = threading.local()

    # -- binding -----------------------------------------------------------

    def bind(self, dbms: Any) -> None:
        """Attach, weakly (it owns this manager), the DBMS to checkpoint."""
        self._dbms = weakref.ref(dbms)

    @property
    def wal_path(self) -> Path:
        """The log file this manager appends to."""
        return self.wal.path

    @property
    def checkpoint_path(self) -> Path:
        """The live snapshot file."""
        return self.checkpointer.path

    # -- logging -----------------------------------------------------------

    def log_view_created(self, view: Any) -> None:
        """Make a freshly materialized/derived/adopted view durable."""
        record = {"t": "view", "view": view.name, **view_to_record(view)}
        record["rows"] = list(view.relation)  # the frame's cells stay row-major
        del record["columns"]
        if view.definition is not None:
            record["definition"] = definition_to_dict(view.definition)
        self._log_transaction(view.name, [record])

    def log_operations(
        self,
        view_name: str,
        operations: Sequence[Operation],
        session_id: str | None = None,
    ) -> None:
        """Log one analyst action's recorded operations as one transaction."""
        if not operations:
            return
        self._log_transaction(
            view_name,
            [
                {"t": "op", "view": view_name, "op": operation_to_dict(op)}
                for op in operations
            ],
            session_id=session_id,
        )

    def log_undo(
        self,
        view_name: str,
        count: int,
        versions: Sequence[int] | None = None,
        session_id: str | None = None,
    ) -> None:
        """Log an undo of the last ``count`` operations.

        ``versions`` — the undone operations' version numbers, newest
        first — is the replay-idempotence key: recovery applies the undo
        only when the history's tail still holds exactly those versions.
        Without it, a crash after a checkpoint but before the WAL is
        truncated would replay the undo against the *post-undo* snapshot
        and silently revert an older committed operation (versions are
        monotonic and never reissued, so a matching tail is proof the
        undo has not happened yet).
        """
        record: dict[str, Any] = {"t": "undo", "view": view_name, "count": count}
        if versions is not None:
            record["versions"] = list(versions)
        self._log_transaction(view_name, [record], session_id=session_id)

    def log_drop(self, view_name: str) -> None:
        """Log a view removal."""
        self._log_transaction(view_name, [{"t": "drop", "view": view_name}])

    def _log_transaction(
        self,
        view_name: str,
        records: list[dict],
        session_id: str | None = None,
    ) -> None:
        txn = next(self._txn_ids)
        self._next_txn = txn + 1
        begin: dict[str, Any] = {"t": "begin", "txn": txn, "view": view_name}
        if session_id is not None:
            begin["sid"] = session_id
        frames = [begin]
        frames.extend({**record, "txn": txn} for record in records)
        frames.append({"t": "commit", "txn": txn})
        if self.group_commit is not None:
            tickets = getattr(self._deferred, "tickets", None)
            if tickets is not None:
                # Early lock release: fix the WAL position now (caller
                # holds the view lock), pay for the sync at drain_syncs.
                tickets.append(self.group_commit.stage(frames))
            else:
                self.group_commit.commit(frames)
        else:
            self.wal.append_many(frames, sync=True)

    # -- early lock release ------------------------------------------------

    def defer_syncs(self) -> bool:
        """Start collecting this thread's commit fsync waits.

        Called by the transaction coordinator before taking a view's
        EXCLUSIVE lock: transactions logged while deferred are staged in
        WAL order but their syncs are awaited only at :meth:`drain_syncs`
        — after the lock is released — so the fsync never extends the
        lock hold and same-view writers share group-commit batches.
        Returns ``False`` (deferral inactive) without a group committer.
        """
        if self.group_commit is None:
            return False
        self._deferred.tickets = []
        return True

    def drain_syncs(self) -> None:
        """Await every sync deferred on this thread; raise the first
        failure after all tickets resolved (each was promised durability
        by its batch's sync, so none may be silently dropped)."""
        tickets = getattr(self._deferred, "tickets", None)
        self._deferred.tickets = None
        if not tickets:
            return
        error: BaseException | None = None
        for ticket in tickets:
            try:
                self.group_commit.wait(ticket)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def resume_from_txn(self, next_txn: int) -> None:
        """Continue numbering past what recovery found in the log."""
        if next_txn > self._next_txn:
            self._txn_ids = itertools.count(next_txn)
            self._next_txn = next_txn

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot the bound DBMS atomically and truncate the log."""
        dbms = self._dbms() if self._dbms is not None else None
        if dbms is None:
            raise DurabilityError(
                "no DBMS bound; pass this manager as StatisticalDBMS(durability=...)"
            )
        path = self.checkpointer.write(dbms)
        self.wal.truncate()
        return path

    def close(self) -> None:
        """Release the WAL append handle."""
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurabilityManager({str(self.directory)!r}, "
            f"wal={self.wal.size_bytes}B, next_txn={self._next_txn})"
        )
