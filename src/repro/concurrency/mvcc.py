"""Multi-version concurrency control: immutable published view versions.

A lock-based read path serializes exactly the traffic a statistical
database should serve lock-free: BENCH_e19 showed throughput collapsing
past 4 analysts when every ``query``/``columns``/``history`` request
locked the view and then mutated the Summary Database under its latch.
Reads go through MVCC instead:

* **Writers publish, readers pin.**  A :class:`VersionChain` holds, per
  view, a chain of frozen :class:`ViewVersion` records — the history
  high-water mark, a summary-entry snapshot, and the per-attribute
  column-chunk epochs.  The writer path publishes a new version at the
  end of each write transaction *while still holding the view lock* (the
  publication point); readers pin the latest version and never touch the
  view lock or the summary latch again.
* **Copy-on-write columns.**  The working copy is column-major (one
  vector per attribute), so publication freezes a changed attribute with
  one C-level tuple copy of its vector, and shares the predecessor's
  tuple whenever the attribute's epoch (:attr:`ConcreteView.epochs`) is
  unchanged — an update touching one attribute copies one column, not
  the whole view.
* **Bounded reclamation.**  Versions are reference-counted by reader
  pins; publication and unpinning garbage-collect every version that is
  neither pinned nor latest, so a burst of writes cannot accumulate
  unbounded history.
* **One pin per read.**  A read holds its pin exactly as long as it
  computes (``with coordinator.read(sid, view)``), under the reader's own
  session id, so an idle connection retains nothing and a disconnect
  releases whatever an in-flight read still holds.  Readers always pin
  the head: the writer publishes before its response is sent, so a
  session reads its own writes.
* **Demand-driven warming.**  A reader that misses a version's summary
  snapshot and computes the result itself registers the key on the chain
  (:meth:`VersionChain.note_demand`).  The next write transaction warms
  every demanded key through the live Summary Database at the
  publication point — so the consistency-policy machinery (SS4.2 update
  rules, incremental where possible) maintains it from then on, and
  every subsequent published version carries the fresh value in its
  snapshot.  Steady-state reads of previously-seen statistics therefore
  never compute: they hit the snapshot (the wire server serves them
  inline on its event loop).
* **One pinned compute.**  :meth:`SnapshotReader.compute` is the pinned
  side of the Figure-3 loop for every row of the function catalogue
  (:mod:`repro.metadata.functions`), whatever its arity.

Mutating a published :class:`ViewVersion` outside this module — or
writing the Summary Database's cache structures around its sanctioned
APIs — is flagged statically by lint rule REPRO-C206.

Observability counters (REPRO-A107 — tracers are injected, never
constructed here): ``mvcc.publish``, ``mvcc.publish_noop``, ``mvcc.pin``,
``mvcc.unpin``, ``mvcc.reclaim``, ``mvcc.release_all``,
``mvcc.cow_shared``, ``mvcc.cow_copied``, ``mvcc.memo_hit``,
``mvcc.warm``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.concurrency.tracing import make_latch
from repro.core.errors import SchemaError, SnapshotError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.views.view import ConcreteView

if TYPE_CHECKING:  # pragma: no cover
    from repro.metadata.management import ManagementDatabase


class ViewVersion:
    """One frozen published state of a concrete view.

    Everything a read-only operation needs, captured at the publication
    point: frozen column chunks (shared copy-on-write with the
    predecessor), the history operations up to the high-water mark, the
    Summary Database's fresh results, and the attribute metadata for
    applicability checks.  Instances are immutable after publication —
    the only sanctioned post-publication mutation is the internal result
    memo, which is guarded by its own latch and invisible to callers.
    """

    __slots__ = (
        "view_name",
        "seq",
        "view_version",
        "history_len",
        "row_count",
        "columns",
        "epochs",
        "history_ops",
        "summary",
        "attributes",
        "_memo",
        "_memo_latch",
    )

    def __init__(
        self,
        view_name: str,
        seq: int,
        view_version: int,
        history_len: int,
        row_count: int,
        columns: dict[str, tuple[Any, ...]],
        epochs: dict[str, int],
        history_ops: tuple[Any, ...],
        summary: dict[tuple[str, tuple[str, ...]], Any],
        attributes: dict[str, Any],
    ) -> None:
        self.view_name = view_name
        self.seq = seq
        self.view_version = view_version
        self.history_len = history_len
        self.row_count = row_count
        self.columns = columns
        self.epochs = epochs
        self.history_ops = history_ops
        self.summary = summary
        self.attributes = attributes
        self._memo: dict[tuple[str, tuple[str, ...]], Any] = {}
        self._memo_latch = make_latch("ViewVersion._memo_latch")

    def cached(self, key: tuple[str, tuple[str, ...]]) -> tuple[bool, Any]:
        """(hit, value) from the publication snapshot or the local memo.

        Both dicts are read bare: the summary snapshot is frozen at
        publication, and the memo only ever grows under ``_memo_latch``
        (a racing reader at worst misses and recomputes the same value).
        """
        summary = self.summary
        if key in summary:
            return True, summary[key]
        memo = self._memo
        if key in memo:
            return True, memo[key]
        return False, None

    def memoize(self, key: tuple[str, tuple[str, ...]], value: Any) -> Any:
        """Remember a result computed against this frozen version."""
        with self._memo_latch:
            self._memo[key] = value
        return value

    def __repr__(self) -> str:
        return (
            f"ViewVersion({self.view_name!r}, seq={self.seq}, "
            f"v{self.view_version}, {self.row_count} rows)"
        )


def _capture_parts(
    view: ConcreteView, prev: ViewVersion | None, tracer: AbstractTracer
) -> dict[str, Any]:
    """Freeze the view's current state into :class:`ViewVersion` fields.

    Caller must hold the view's lock (writer exit and first-read
    bootstrap both do), or otherwise guarantee no writer is mid-flight.
    A column whose copy-on-write epoch matches the predecessor's is shared
    by reference; any other is one tuple copy of the relation's vector.
    """
    names = list(view.schema.names)
    epochs = {name: view.epochs.get(name, 0) for name in names}
    columns: dict[str, tuple[Any, ...]] = {}
    row_count = len(view)
    shared = copied = 0
    for name in names:
        if (
            prev is not None
            and prev.epochs.get(name) == epochs[name]
            and len(prev.columns[name]) == row_count
        ):
            columns[name] = prev.columns[name]
            shared += 1
        else:
            columns[name] = view.relation.frozen_column(name)
            copied += 1
    if tracer.enabled:
        if shared:
            tracer.add("mvcc.cow_shared", shared)
        if copied:
            tracer.add("mvcc.cow_copied", copied)
    return {
        "view_version": view.version,
        "history_len": len(view.history),
        "row_count": row_count,
        "columns": columns,
        "epochs": epochs,
        "history_ops": tuple(view.history.operations_upto(view.version)),
        "summary": view.summary.snapshot_fresh(),
        "attributes": {name: view.schema.attribute(name) for name in names},
    }


class VersionChain:
    """The per-view chain of published versions, with pin refcounts.

    The latch guards the chain structure (append, pins, reclamation)
    only; state capture happens outside it, and :attr:`seq` may be read
    bare (it is a monotonically increasing int — a torn read is
    impossible; the coordinator's bootstrap re-checks it under the view
    lock before publishing).
    """

    def __init__(self, view_name: str, tracer: AbstractTracer | None = None) -> None:
        self.view_name = view_name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._latch = make_latch("VersionChain._latch")
        self._seq = 0
        self._versions: list[ViewVersion] = []
        self._pins: dict[int, dict[str, int]] = {}
        # Reader-demanded summary keys, drained by the writer at the
        # publication point.  Bounded by the number of distinct
        # (function, attributes) combinations ever queried; written under
        # the latch, but only on memo *misses* — never on the hit path.
        self._demand: dict[tuple[str, tuple[str, ...]], bool] = {}

    @property
    def seq(self) -> int:
        """Latest published sequence number (0 = never published)."""
        return self._seq

    def latest(self) -> ViewVersion | None:
        """The newest published version, if any."""
        with self._latch:
            return self._versions[-1] if self._versions else None

    def head(self) -> ViewVersion | None:
        """The newest published version via a bare read — no latch.

        Safe because versions are immutable, :meth:`publish_version`
        appends before it reclaims, and ``_reclaim_locked`` rebinds
        ``_versions`` to a new list that still ends with the head — a
        bare reader sees either list, both consistent.  This is the
        event-loop-safe accessor (REPRO-C205): the wire server's inline
        read path uses it to answer memoized queries without pinning.
        A reference obtained here stays readable after reclamation for
        the same reason the one-shot pin/unpin path does — reclamation
        only drops the *chain's* reference to a version.
        """
        versions = self._versions
        return versions[-1] if versions else None

    def live(self) -> list[ViewVersion]:
        """Snapshot of the retained chain, oldest first (for tests/obs)."""
        with self._latch:
            return list(self._versions)

    def pins(self) -> dict[int, dict[str, int]]:
        """Snapshot of the pin table: seq -> sid -> refcount."""
        with self._latch:
            return {seq: dict(holders) for seq, holders in self._pins.items()}

    # -- demand registration -------------------------------------------------

    def note_demand(self, key: tuple[str, tuple[str, ...]]) -> None:
        """Record that a reader had to compute ``key`` itself (memo miss).

        Duplicate registrations collapse; the writer warms demanded keys
        through the live Summary Database at the publication point, so
        later versions publish them pre-computed.  Only ever called on a
        miss, so the latch never burdens the steady-state hit path.
        """
        with self._latch:
            self._demand[key] = True

    def demanded(self) -> list[tuple[str, tuple[str, ...]]]:
        """The summary keys readers have missed on, for writer warming."""
        with self._latch:
            return list(self._demand)

    def drop_demand(self, key: tuple[str, tuple[str, ...]]) -> None:
        """Stop warming ``key`` (it proved uncomputable — e.g. the
        function is inapplicable to the attribute's role)."""
        with self._latch:
            self._demand.pop(key, None)

    # -- publication -------------------------------------------------------

    def publish_version(self, view: ConcreteView) -> ViewVersion:
        """Publish the view's current state; the MVCC publication point.

        Caller must hold the view's lock (writer exit, or the first-read
        bootstrap), so no other publisher can be mid-flight.  Unchanged
        state — detected by the ``(version high-water mark, history
        length)`` pair, since undo shortens the history without lowering
        the monotonic version — returns the existing head.  A *regressed*
        high-water mark can only mean a writer replaced view state around
        the coordinator, and raises :class:`SnapshotError`.
        """
        with self._latch:
            prev = self._versions[-1] if self._versions else None
        if prev is not None:
            if view.version < prev.view_version:
                self.tracer.add("txn.snapshot_violation")
                raise SnapshotError(
                    f"view {self.view_name!r} regressed from "
                    f"v{prev.view_version} to v{view.version} at the "
                    "publication point — a writer bypassed the coordinator"
                )
            if (
                prev.view_version == view.version
                and prev.history_len == len(view.history)
            ):
                self.tracer.add("mvcc.publish_noop")
                return prev
        parts = _capture_parts(view, prev, self.tracer)
        reclaimed = 0
        with self._latch:
            self._seq += 1
            version = ViewVersion(view_name=self.view_name, seq=self._seq, **parts)
            self._versions.append(version)
            reclaimed = self._reclaim_locked()
        self.tracer.add("mvcc.publish")
        if reclaimed:
            self.tracer.add("mvcc.reclaim", reclaimed)
        return version

    # -- pinning -----------------------------------------------------------

    def pin(self, sid: str) -> ViewVersion:
        """Pin and return the latest version for reader ``sid``."""
        with self._latch:
            if not self._versions:
                raise SnapshotError(
                    f"view {self.view_name!r} has no published version to pin"
                )
            version = self._versions[-1]
            holders = self._pins.setdefault(version.seq, {})
            holders[sid] = holders.get(sid, 0) + 1
            # Charged under the latch for write-consistency (C204); with a
            # span open on the calling thread this touches no shared state.
            self.tracer.add("mvcc.pin")
        return version

    def unpin(self, sid: str, version: ViewVersion) -> None:
        """Release one pin.  Idempotent: a pin already dropped by
        :meth:`release_all` (disconnect teardown racing an in-flight
        read's cleanup) is a no-op."""
        with self._latch:
            holders = self._pins.get(version.seq)
            if holders is not None and sid in holders:
                if holders[sid] <= 1:
                    del holders[sid]
                    if not holders:
                        del self._pins[version.seq]
                else:
                    holders[sid] -= 1
                reclaimed = self._reclaim_locked()
                if reclaimed:
                    self.tracer.add("mvcc.reclaim", reclaimed)
            self.tracer.add("mvcc.unpin")

    def release_all(self, sid: str) -> int:
        """Disconnect cleanup: drop every pin ``sid`` still holds."""
        dropped = 0
        with self._latch:
            for seq in list(self._pins):
                holders = self._pins[seq]
                if sid in holders:
                    dropped += holders.pop(sid)
                    if not holders:
                        del self._pins[seq]
            if dropped:
                reclaimed = self._reclaim_locked()
                self.tracer.add("mvcc.release_all", dropped)
                if reclaimed:
                    self.tracer.add("mvcc.reclaim", reclaimed)
        return dropped

    def _reclaim_locked(self) -> int:
        """Drop versions nobody pins, keeping the head (latch held)."""
        if len(self._versions) <= 1:
            return 0
        kept = [v for v in self._versions[:-1] if self._pins.get(v.seq)]
        reclaimed = len(self._versions) - 1 - len(kept)
        if reclaimed:
            kept.append(self._versions[-1])
            self._versions = kept
        return reclaimed

    def __repr__(self) -> str:
        with self._latch:
            return (
                f"VersionChain({self.view_name!r}, seq={self._seq}, "
                f"{len(self._versions)} live, {len(self._pins)} pinned)"
            )


class SnapshotReader:
    """Read-only operations against one pinned :class:`ViewVersion`.

    Computes run against the version's frozen columns and
    publication-time summary snapshot, never the live view — no view lock,
    no summary latch, no cache mutation.  Results computed here are
    memoized on the version itself, so repeated queries against the same
    published state hit the per-version memo instead of rescanning.
    """

    __slots__ = ("pinned", "_management", "_tracer", "_on_miss")

    def __init__(
        self,
        pinned: ViewVersion,
        management: "ManagementDatabase",
        tracer: AbstractTracer | None = None,
        on_miss: "Callable[[tuple[str, tuple[str, ...]]], None] | None" = None,
    ) -> None:
        self.pinned = pinned
        self._management = management
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Demand hook: called with the summary key whenever this reader
        #: computes a result itself instead of finding it published
        #: (:meth:`VersionChain.note_demand` — writers warm these).
        self._on_miss = on_miss

    @property
    def version(self) -> int:
        """The pinned history high-water mark (wire-visible version)."""
        return self.pinned.view_version

    def operations(self) -> list[Any]:
        """The view's history as of the pinned version."""
        return list(self.pinned.history_ops)

    def column(self, attribute: str) -> list[Any]:
        """One frozen column's values."""
        self._attribute(attribute)
        return list(self.pinned.columns[attribute])

    def _attribute(self, name: str) -> Any:
        try:
            return self.pinned.attributes[name]
        except KeyError:
            raise SchemaError(
                f"view {self.pinned.view_name!r} has no attribute "
                f"{name!r} in the pinned version"
            ) from None

    def compute(self, function: str, attribute: str | Sequence[str]) -> Any:
        """Compute (or fetch) one function over frozen columns.

        ``attribute`` is one name, or a multi-attribute function's names
        in key order.  The pinned counterpart of the live session's
        ``compute``: probe the publication snapshot and the version's
        memo; on a miss pass the catalogue row's check, register the key
        for writer warming, evaluate over the frozen columns and memoize.
        """
        attributes = (attribute,) if isinstance(attribute, str) else tuple(attribute)
        key = (function, attributes)
        hit, value = self.pinned.cached(key)
        if hit:
            self._tracer.add("mvcc.memo_hit")
            return value
        fn = self._management.functions.get(function)
        fn.check(attributes, self._attribute)
        if self._on_miss is not None:
            self._on_miss(key)
        # The evaluator reads the frozen tuples themselves: it cleans into
        # its own list, and could not mutate a published column if it tried.
        columns = self.pinned.columns
        return self.pinned.memoize(key, fn.compute(*[columns[name] for name in attributes]))

    def __repr__(self) -> str:
        return f"SnapshotReader({self.pinned!r})"
