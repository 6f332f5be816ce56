"""The transaction coordinator: MVCC snapshot reads, serialized writes.

One :class:`TransactionCoordinator` fronts one
:class:`~repro.core.dbms.StatisticalDBMS` for any number of concurrent
analyst sessions (the wire server's connections, or plain threads in
tests).  It enforces the two-level discipline the service layer needs:

* **Reads are lock-free snapshots (MVCC).**  ``with coordinator.read(sid,
  view)`` pins the latest published :class:`~repro.concurrency.mvcc.ViewVersion`
  on the view's :class:`~repro.concurrency.mvcc.VersionChain` and yields a
  :class:`~repro.concurrency.mvcc.SnapshotReader` over its frozen state —
  no view lock, no summary latch.  A reader can never observe a
  half-applied multi-attribute update because versions are only published
  at write-transaction exit.  The only lock a read path ever takes is the
  one-time per-view *bootstrap* (:meth:`chain`): the first reader of a
  never-published view briefly holds the view's lock so its initial
  capture cannot race a writer or another bootstrap.
* **Writes serialize per view and publish at exit.**  ``with
  coordinator.write(sid, view)`` takes the view's lock; the
  update/undo flows through the existing
  :class:`~repro.core.propagation.UpdatePropagator` and WAL unchanged,
  and on successful exit — still under the lock — the new state is
  published to the version chain (the *publication point*; the exit-time
  ``SnapshotError`` re-verification the old read path did lives there
  now).  A write body that raises publishes nothing: readers keep the
  last consistent version.  Group commit (installed automatically when
  the DBMS is durable) batches concurrent commits into shared fsyncs.
* **Registry mutations** (create/publish/adopt/drop) serialize through a
  reserved resource name, :data:`REGISTRY_RESOURCE`, since they touch
  shared structures no per-view lock covers.
* **Checkpoints quiesce.**  :meth:`checkpoint` takes the registry lock
  plus every view's lock in sorted name order (lock ordering —
  no cycles possible among checkpointers), so the snapshot observes no
  in-flight transaction.

Sessions are cached per ``(sid, view)`` so a connection's repeated
requests hit the same Summary Database bookkeeping; ``release(sid)`` drops
the cache, any locks the connection still holds, and any version pins it
left behind (disconnect-mid-read teardown).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.concurrency.groupcommit import GroupCommitter
from repro.concurrency.locks import LockManager
from repro.concurrency.mvcc import SnapshotReader, VersionChain, ViewVersion
from repro.concurrency.tracing import make_latch
from repro.core.dbms import StatisticalDBMS
from repro.core.errors import ReproError
from repro.core.session import AnalystSession
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.views.view import ConcreteView

#: Reserved lock resource guarding registry-level mutations.  Real view
#: names come from ``ViewDefinition.name`` which never uses this form.
REGISTRY_RESOURCE = "__registry__"


class TransactionCoordinator:
    """Concurrency control for one DBMS shared by many sessions."""

    def __init__(
        self,
        dbms: StatisticalDBMS,
        locks: LockManager | None = None,
        tracer: AbstractTracer | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.dbms = dbms
        self.tracer = tracer if tracer is not None else (
            dbms.tracer if dbms.tracer.enabled else NULL_TRACER
        )
        self.locks = locks or LockManager(timeout_s=timeout_s, tracer=self.tracer)
        self._sessions: dict[tuple[str, str], AnalystSession] = {}
        self._sessions_latch = make_latch("TransactionCoordinator._sessions_latch")
        self._chains: dict[str, VersionChain] = {}
        self._chains_latch = make_latch("TransactionCoordinator._chains_latch")
        if dbms.durability is not None and dbms.durability.group_commit is None:
            dbms.durability.group_commit = GroupCommitter(
                dbms.durability.wal, tracer=self.tracer
            )

    # -- session cache -----------------------------------------------------

    def session(
        self, sid: str, view_name: str, analyst: str | None = None
    ) -> AnalystSession:
        """The cached analyst session of ``sid`` against one view."""
        key = (sid, view_name)
        with self._sessions_latch:
            session = self._sessions.get(key)
            if session is None:
                session = self.dbms.session(
                    view_name, analyst=analyst or sid, session_id=sid
                )
                # The view's Summary Database is shared by every connection
                # that opens this view: give it a real latch (constructed
                # here — REPRO-A109) so concurrent cache fills cannot
                # corrupt its index.  install_latch is idempotent — other
                # connections' reader threads may already be inside the
                # first latch, so it must never be swapped out.
                session.view.summary.install_latch(
                    make_latch("SummaryDatabase.latch")
                )
                self._sessions[key] = session
        return session

    def release(self, sid: str) -> int:
        """Disconnect cleanup: drop cached sessions, locks, version pins.

        This is the server's teardown path: a reader that disconnects
        mid-read leaves its pin here, and dropping it lets the chain
        reclaim the version once no other reader holds it (the in-flight
        read's own ``unpin`` then finds nothing and is a no-op).
        """
        with self._sessions_latch:
            for key in [k for k in self._sessions if k[0] == sid]:
                del self._sessions[key]
        with self._chains_latch:
            chains = list(self._chains.values())
        for chain in chains:
            chain.release_all(sid)
        return self.locks.release_all(sid)

    # -- version chains ----------------------------------------------------

    def chain(
        self, sid: str, view_name: str, timeout_s: float | None = None
    ) -> VersionChain:
        """The view's version chain, bootstrapping the first publication.

        Steady state is latch-light: a bare dict read finds the chain and
        its published head.  Only a never-published view pays for locking
        — the bootstrap takes the view's lock (bounded by ``timeout_s``)
        so the initial capture cannot observe a writer mid-flight, and
        re-checks under it, so racing bootstraps publish exactly once.
        """
        chain = self._chains.get(view_name)
        if chain is None:
            self.dbms.view(view_name)  # raise ViewError before caching
            with self._chains_latch:
                chain = self._chains.setdefault(
                    view_name, VersionChain(view_name, tracer=self.tracer)
                )
        if chain.seq == 0:
            with self.locks.exclusive(sid, view_name, timeout_s):
                if chain.seq == 0:
                    chain.publish_version(self.dbms.view(view_name))
        return chain

    def chain_if_published(self, view_name: str) -> VersionChain | None:
        """The view's chain *only* if it already has a published head.

        Strictly non-blocking (two bare reads, no lock, no latch), so the
        wire server's event loop may call it to decide whether a read can
        be served inline; ``None`` means the caller must take the
        bootstrapping :meth:`chain` path on a worker thread instead.
        """
        chain = self._chains.get(view_name)
        if chain is not None and chain.seq > 0:
            return chain
        return None

    def publish_view(
        self, view_name: str, view: ConcreteView | None = None
    ) -> ViewVersion:
        """Publish ``view``'s current state (the MVCC publication point).

        Caller must hold the view's lock, or otherwise guarantee no
        writer is mid-flight.
        """
        if view is None:
            view = self.dbms.view(view_name)
        with self._chains_latch:
            chain = self._chains.setdefault(
                view_name, VersionChain(view_name, tracer=self.tracer)
            )
        return chain.publish_version(view)

    # -- transactions ------------------------------------------------------

    @contextmanager
    def read(
        self,
        sid: str,
        view_name: str,
        analyst: str | None = None,
        timeout_s: float | None = None,
    ) -> Iterator[SnapshotReader]:
        """A lock-free snapshot read: pin the latest published version.

        ``analyst`` is accepted for signature compatibility with
        :meth:`write`; reads no longer materialize a session at all.
        """
        del analyst  # reads never touch the live session/cache anymore
        chain = self.chain(sid, view_name, timeout_s)
        pinned = chain.pin(sid)
        try:
            yield SnapshotReader(
                pinned,
                self.dbms.management,
                tracer=self.tracer,
                on_miss=chain.note_demand,
            )
        finally:
            chain.unpin(sid, pinned)

    @contextmanager
    def write(
        self,
        sid: str,
        view_name: str,
        analyst: str | None = None,
        timeout_s: float | None = None,
    ) -> Iterator[AnalystSession]:
        """A serialized write transaction (holds the view's lock).

        On successful exit — still under the lock — the new view state is
        published to the version chain; a body that raises publishes
        nothing, so readers keep the last consistent version.

        Early lock release: WAL transactions logged by the body are
        *staged* (their log order fixed under the lock) but their group
        -commit fsyncs are awaited only after the lock is released, so
        the sync never serializes the next writer and same-view writers
        share fsync batches.  This call still returns only once every
        staged transaction is durable — the caller's acknowledgement
        keeps the classic guarantee; the window where a concurrent
        reader may pin the published-but-not-yet-synced version is the
        documented durability lag of the MVCC read path.
        """
        durability = self.dbms.durability
        deferred = durability is not None and durability.defer_syncs()
        try:
            with self.locks.exclusive(sid, view_name, timeout_s):
                session = self.session(sid, view_name, analyst)
                yield session
                self._warm_summaries(view_name, session)
                self.publish_view(view_name, session.view)
        finally:
            if deferred:
                durability.drain_syncs()

    def _warm_summaries(self, view_name: str, session: AnalystSession) -> None:
        """Warm reader-demanded summary keys at the publication point.

        Caller holds the view's lock.  Every key a snapshot
        reader ever had to compute itself (:meth:`VersionChain.
        note_demand`) is computed through the live session here, so the
        Summary Database's consistency policy maintains it across
        updates — incrementally where an update rule allows — and the
        version published next carries it fresh in its snapshot.  Keys
        the session cannot compute (inapplicable function, dropped
        attribute) are dropped from the demand set for good.  Cost per
        write is one cache lookup per demanded key once warm; the set is
        bounded by the distinct statistics ever queried on the view.
        """
        chain = self._chains.get(view_name)
        if chain is None:
            return
        for key in chain.demanded():
            try:
                session.compute(*key)
            except ReproError:
                chain.drop_demand(key)
                continue
            self.tracer.add("mvcc.warm")

    @contextmanager
    def registry_write(
        self, sid: str, timeout_s: float | None = None
    ) -> Iterator[StatisticalDBMS]:
        """Serialize a registry-level mutation (create/publish/adopt/drop)."""
        with self.locks.exclusive(sid, REGISTRY_RESOURCE, timeout_s):
            yield self.dbms

    def registry_names(self, sid: str, timeout_s: float | None = None) -> list[str]:
        """Snapshot the registry's view names under the registry lock.

        Handshake/stats use this instead of reading ``registry.names()``
        bare, so the read cannot observe a registry mid-mutation
        (publish/adopt hold the same lock).
        """
        with self.locks.exclusive(sid, REGISTRY_RESOURCE, timeout_s):
            return self.dbms.registry.names()

    # -- quiesced checkpoints ----------------------------------------------

    @contextmanager
    def quiesce(self, sid: str, timeout_s: float | None = None) -> Iterator[None]:
        """Hold every lock (registry first, then views in sorted order).

        Sorted acquisition is a total lock order, so two quiescers cannot
        deadlock each other; the registry lock also blocks view
        creation/drop while the view list is being walked.  ``timeout_s``
        bounds *each* acquisition (``None`` means the lock manager's
        default) — a checkpoint triggered from a request handler passes
        the request's remaining deadline so it cannot outwait it.
        """
        held: list[str] = []
        try:
            self.locks.acquire(sid, REGISTRY_RESOURCE, timeout_s)
            held.append(REGISTRY_RESOURCE)
            for name in sorted(self.dbms.registry.names()):
                # Same-class (view-lock) nesting is sanctioned here: the
                # sorted resource names are an explicit total order, so two
                # quiescers cannot meet in opposite directions.
                self.locks.acquire(sid, name, timeout_s)  # repro-lint: disable=REPRO-C201
                held.append(name)
            yield
        finally:
            for name in reversed(held):
                self.locks.release(sid, name)

    def checkpoint(
        self, sid: str = "__checkpoint__", timeout_s: float | None = None
    ) -> Any:
        """Quiesce the system and snapshot it atomically."""
        with self.quiesce(sid, timeout_s):
            with self.tracer.span("checkpoint.quiesced"):
                return self.dbms.checkpoint()

    def __repr__(self) -> str:
        with self._sessions_latch:
            cached = len(self._sessions)
        return f"TransactionCoordinator({cached} cached session(s), {self.locks!r})"
