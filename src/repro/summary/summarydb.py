"""The Summary Database: a cache of function results per concrete view.

"Each Summary Database serves as a cache for the user view.  Rather than
storing frequently used data ... we choose to store results of query (or
function) executions.  This leads to a savings in execution time each time
a function whose result is already in the cache is invoked.  In addition,
the size of the cache is much smaller" (SS3.2).

Lookup uses the (function, attribute) search argument through a B+-tree
secondary index; entries are *clustered on attribute name* "to facilitate
efficient access to all results on a given column" — which is exactly what
update propagation needs (SS4.1).  A page-layout simulation quantifies the
clustering benefit (benchmark E10): entries are assigned to fixed-capacity
pages either in attribute-clustered or insertion order, and
``pages_for_attribute`` counts the pages an attribute sweep touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.errors import SummaryError
from repro.incremental.differencing import IncrementalComputation
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.storage.btree import BPlusTree
from repro.summary.entries import SummaryEntry, SummaryKey


class _NullLatch:
    """Do-nothing context manager: the single-threaded default latch."""

    __slots__ = ()

    def __enter__(self) -> "_NullLatch":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_LATCH = _NullLatch()


@dataclass
class SummaryStats:
    """Cache-behaviour counters for one Summary Database."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: int = 0
    incremental_updates: int = 0
    recomputations: int = 0
    stale_served: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class SummaryDatabase:
    """The per-view cache of Figure 4, with clustered attribute access.

    Parameters
    ----------
    view_name:
        Name of the concrete view this cache belongs to.
    entries_per_page:
        Page capacity of the layout simulation.
    clustered:
        Whether the layout clusters entries by attribute (the paper's
        choice) or stores them in insertion order (the E10 ablation).
    capacity_bytes:
        Optional cap on total cached result bytes; exceeding it evicts the
        least-recently-hit entries ("less general order statistics ... can
        usually be disposed of early", SS3.1).
    """

    def __init__(
        self,
        view_name: str,
        entries_per_page: int = 8,
        clustered: bool = True,
        capacity_bytes: int | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.view_name = view_name
        self.entries_per_page = entries_per_page
        self.clustered = clustered
        self.capacity_bytes = capacity_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Guard held around structural mutations (insert/remove).  The
        #: default no-op latch costs nothing single-threaded; the
        #: multi-analyst layer (:mod:`repro.concurrency`) installs a real
        #: mutex so concurrent sessions filling the cache cannot
        #: corrupt the insertion order or the attribute index.  Lock
        #: construction itself stays inside ``repro.concurrency``
        #: (REPRO-A109); this class only *holds* whatever it was given.
        self.latch: Any = _NULL_LATCH
        self.stats = SummaryStats()
        self._entries: dict[SummaryKey, SummaryEntry] = {}
        self._insertion_order: list[SummaryKey] = []
        # Secondary index on (attribute, function): prefix scans on the
        # attribute give the clustered access path of SS4.1.
        self._index = BPlusTree(order=16)
        self._clock = 0

    # -- basic access ---------------------------------------------------------

    def install_latch(self, latch: Any) -> None:
        """Adopt an injected latch, at most once (the first caller wins).

        Replacing a live latch would let threads still inside the old one
        race threads entering the new one, so installation is idempotent:
        once a real latch is in place, later calls are no-ops.  The latch
        is constructed by the caller (REPRO-A109); this class only holds
        it.
        """
        if self.latch is _NULL_LATCH:
            self.latch = latch

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: SummaryKey) -> bool:
        return key in self._entries

    @property
    def cached_bytes(self) -> int:
        """Total encoded size of all cached results."""
        return sum(entry.size_bytes for entry in self._entries.values())

    def lookup(self, function: str, attributes: Sequence[str] | str) -> SummaryEntry | None:
        """Search by (function, attributes); records a hit or miss.

        The counter/recency bookkeeping happens under :attr:`latch` —
        ``insert`` already mutates ``stats`` latched, and a writer that
        takes the latch only sometimes is not protected by it at all
        (REPRO-C204).  Tracer charging stays outside the latch: the tracer
        has its own synchronization, and charging it latched would nest
        two unrelated locks for no benefit.
        """
        key = self._key(function, attributes)
        with self.latch:
            entry = self._entries.get(key)
            self._clock += 1
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                entry.hit_count += 1
                entry._last_hit = self._clock  # type: ignore[attr-defined]
        if entry is None:
            if self.tracer.enabled:
                self.tracer.add(f"summary.miss.{function}")
            return None
        if self.tracer.enabled:
            self.tracer.add(f"summary.hit.{function}")
        return entry

    def peek(self, function: str, attributes: Sequence[str] | str) -> SummaryEntry | None:
        """Fetch without recording a hit/miss (used by propagation)."""
        return self._entries.get(self._key(function, attributes))

    def snapshot_fresh(self) -> dict[tuple[str, tuple[str, ...]], Any]:
        """Every fresh entry's result, captured in one latched pass.

        The sanctioned read API for the MVCC publish path
        (:mod:`repro.concurrency.mvcc` — lint rule REPRO-C206): at the
        publication point the writer freezes the cache's fresh results
        into a per-version mapping, so snapshot readers never touch the
        live cache (no hit counters, no concurrent fills, no latch).
        Stale entries are skipped — readers recompute from the version's
        frozen columns rather than serve a result the writer invalidated.
        Results are shared by reference and must be treated as immutable
        (REPRO-C206 flags mutation of published version state).
        """
        with self.latch:
            return {
                (key.function, key.attributes): entry.result
                for key, entry in self._entries.items()
                if not entry.stale
            }

    def insert(
        self,
        function: str,
        attributes: Sequence[str] | str,
        result: Any,
        maintainer: IncrementalComputation | None = None,
        compute_cost_rows: int = 0,
        version: int = 0,
        kind: str = "exact",
        epsilon: float | None = None,
    ) -> SummaryEntry:
        """Insert (or overwrite) a cached result.

        Structural mutation happens under :attr:`latch`, so concurrent
        readers racing to fill the same cache (both missed, both computed)
        at worst overwrite each other with identical results — the index
        and insertion order never corrupt.
        """
        key = self._key(function, attributes)
        entry = SummaryEntry(
            key=key,
            result=result,
            maintainer=maintainer,
            compute_cost_rows=compute_cost_rows,
            kind=kind,
            epsilon=epsilon,
        )
        entry.mark_fresh(version)
        entry._last_hit = self._clock  # type: ignore[attr-defined]
        with self.latch:
            if key not in self._entries:
                self._insertion_order.append(key)
                self._index.insert((key.primary_attribute, key.function), key)
            self._entries[key] = entry
            self.stats.insertions += 1
            self._enforce_capacity()
        return entry

    def remove(self, function: str, attributes: Sequence[str] | str) -> None:
        """Drop one entry."""
        key = self._key(function, attributes)
        with self.latch:
            if key not in self._entries:
                raise SummaryError(f"no cached entry for {key}")
            self._drop(key)

    def _drop(self, key: SummaryKey) -> None:
        del self._entries[key]
        self._insertion_order.remove(key)
        self._index.delete((key.primary_attribute, key.function), key)

    # -- attribute-clustered access ----------------------------------------------

    def entries_for_attribute(self, attribute: str) -> list[SummaryEntry]:
        """Every cached entry whose primary attribute is ``attribute``.

        This is the SS4.1 access path: "given an attribute name we can
        retrieve all the values associated with that attribute, along with
        their respective function names".
        """
        keys = [key for _, key in self._index.prefix_scan((attribute,))]
        return [self._entries[key] for key in keys]

    def entries_mentioning(self, attribute: str) -> list[SummaryEntry]:
        """Entries whose key mentions ``attribute`` anywhere (multi-attribute

        results such as correlations invalidate on any input)."""
        return [
            entry
            for entry in self._entries.values()
            if attribute in entry.key.attributes
        ]

    def invalidate_attribute(self, attribute: str) -> int:
        """Mark every entry mentioning an attribute stale (SS4.3 fallback)."""
        count = 0
        for entry in self.entries_mentioning(attribute):
            if self.mark_stale(entry):
                count += 1
        return count

    # -- maintenance-state writes ------------------------------------------------
    #
    # The only sanctioned mutation points for entry maintenance state
    # outside the rule/policy layer (lint rule REPRO-A104): callers such as
    # the update propagator go through these so the cache's counters always
    # agree with what actually happened to its entries.

    def mark_stale(self, entry: SummaryEntry, pending: int = 0) -> bool:
        """Invalidate one entry; returns True if it was fresh before.

        ``pending`` additionally records that many unapplied updates (for
        the periodic/tolerant consistency policies).
        """
        with self.latch:
            newly_stale = not entry.stale
            if newly_stale:
                entry.stale = True
                self.stats.invalidations += 1
            entry.pending_updates += pending
        if newly_stale and self.tracer.enabled:
            self.tracer.add(f"summary.stale.{entry.key.function}")
        return newly_stale

    def refresh(self, entry: SummaryEntry, result: Any, version: int | None = None) -> Any:
        """Install a recomputed result and mark the entry fresh.

        ``version`` records the view version the new result reflects;
        ``None`` (the default) keeps the entry's current freshness version.
        A version below the recorded one is rejected — freshness must never
        regress, or a stale result would masquerade as newer than the
        updates it predates.

        Counter bookkeeping (``stats.recomputations``) stays with the
        caller: consistency policies already account for the recomputation
        they triggered.
        """
        if version is None:
            version = entry.computed_at_version
        if version < entry.computed_at_version:
            raise SummaryError(
                f"refresh of {entry.key} would regress its freshness version "
                f"from v{entry.computed_at_version} to v{version}"
            )
        entry.result = result
        entry.mark_fresh(version)
        if self.tracer.enabled:
            self.tracer.add(f"summary.refresh.{entry.key.function}")
        return result

    def detach_maintainer(self, entry: SummaryEntry) -> None:
        """Drop an entry's live maintainer (it no longer reflects the data);

        the next refresh rebuilds it from scratch."""
        entry.maintainer = None

    def attributes(self) -> list[str]:
        """Distinct primary attributes with cached entries."""
        return sorted({key.primary_attribute for key in self._entries})

    def entries(self) -> Iterator[SummaryEntry]:
        """All entries in index (attribute-clustered) order."""
        for _, key in self._index.items():
            yield self._entries[key]

    # -- page-layout simulation (E10 ablation) --------------------------------------

    def page_of(self, key: SummaryKey) -> int:
        """Page number the entry occupies under the configured layout."""
        order = self._layout_order()
        try:
            position = order.index(key)
        except ValueError:
            raise SummaryError(f"no cached entry for {key}") from None
        return position // self.entries_per_page

    def pages_for_attribute(self, attribute: str) -> int:
        """Distinct pages an all-entries-of-attribute sweep touches."""
        order = self._layout_order()
        pages = {
            position // self.entries_per_page
            for position, key in enumerate(order)
            if key.primary_attribute == attribute
        }
        return len(pages)

    def total_pages(self) -> int:
        """Pages occupied by the whole Summary Database."""
        n = len(self._entries)
        return (n + self.entries_per_page - 1) // self.entries_per_page

    def _layout_order(self) -> list[SummaryKey]:
        if self.clustered:
            return [key for _, key in self._index.items()]
        return list(self._insertion_order)

    # -- capacity ----------------------------------------------------------------

    def _enforce_capacity(self) -> None:
        if self.capacity_bytes is None:
            return
        while self.cached_bytes > self.capacity_bytes and len(self._entries) > 1:
            victim = min(
                self._entries.values(),
                key=lambda e: getattr(e, "_last_hit", 0),
            )
            self._drop(victim.key)
            self.stats.evictions += 1

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _key(function: str, attributes: Sequence[str] | str) -> SummaryKey:
        if isinstance(attributes, str):
            attributes = (attributes,)
        return SummaryKey(function=function, attributes=tuple(attributes))
