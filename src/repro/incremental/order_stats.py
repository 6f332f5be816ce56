"""Maintained order statistics via the paper's histogram-window scheme.

Finite differencing fails for functions that "reflect an ordering on the
input data" (SS4.2).  For the median and other order statistics the paper
proposes a manual scheme:

    "Rather than saving a single value ... we will store, in the Summary
    Database, a histogram of some number, say 100, of values around the
    median.  Associated with the histogram will be a pointer which will
    initially be set to the median.  As updates are made ... the pointer
    can be moved up and down the list ... When the pointer runs off the
    list a new histogram will have to be generated [requiring] only a
    single pass over the data ... using a simple hashing scheme that has
    101 buckets" (the 101st catches values outside the expected range).

:class:`OrderStatWindow` implements exactly this: it keeps the multiset of
values lying in a value range around the target order statistic (a
contiguous *rank* range), plus counts of values below and above the range.
Point changes move the implicit pointer in O(log w); when the target rank
escapes the window, the next read rebuilds it in a single data pass —
widening and re-passing only if the estimate from the old window bounds
proves wrong, the contingency of the paper's footnote 2, counted in
``stats.extra_passes``.  Footnote 3's floating-point concern is moot
because the window stores exact in-range values rather than discretized
bucket labels.

**Contract:** ``values_provider`` must reflect every change already
reported through ``fold`` (and the ``on_insert``/``on_delete``/
``on_update``/``apply_batch`` entry points built on it) — i.e. apply the
change to the underlying data *before* notifying the window.
Regeneration only happens inside :meth:`value` and :meth:`count` reads and
explicit :meth:`regenerate` calls, never inside ``fold``.

A removal the window cannot classify — a value inside the window bounds
that the window never saw, or any value when the multiset is empty —
breaks the histogram-window invariant (change notifications that arrive
out of order, or a delta that does not match the data).  The window then
counts ``stats.invariant_breaks`` and goes back to unbuilt, so the next
read regenerates it from the provider, which is the truth: the answer
stays exact.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import NA, is_na


@dataclass
class WindowStats:
    """Activity counters for one maintained order statistic."""

    pointer_moves: int = 0
    regenerations: int = 0
    data_passes: int = 0
    extra_passes: int = 0
    invariant_breaks: int = 0


class OrderStatWindow(IncrementalComputation):
    """A maintained order statistic over a dynamic multiset.

    Parameters
    ----------
    values_provider:
        Zero-argument callable returning an iterable of the attribute's
        current values; called once per regeneration pass (this is the
        "single pass over the data").
    window_size:
        Target number of values kept around the statistic (the paper's
        "some number, say 100").
    margin:
        A read regenerates when the needed rank comes within ``margin``
        positions of either window edge.

    Invariant: every tracked value v with ``lo_bound <= v <= hi_bound``
    is in the (sorted) window; ``below``/``above`` count values outside
    the bounds.  The window therefore covers a contiguous rank range.
    """

    def __init__(
        self,
        values_provider: Callable[[], Iterable[Any]],
        window_size: int = 100,
        margin: int = 2,
    ) -> None:
        if window_size < 8:
            raise StatisticsError(f"window_size must be >= 8, got {window_size}")
        if margin < 1 or margin * 2 >= window_size:
            raise StatisticsError(
                f"margin {margin} incompatible with window size {window_size}"
            )
        self._provider = values_provider
        self.window_size = window_size
        self.margin = margin
        self.stats = WindowStats()
        self._window: list[Any] = []
        self._below = 0
        self._above = 0
        self._lo_bound: Any = None
        self._hi_bound: Any = None
        self._initialized = False

    # -- target ranks (subclass hook) ---------------------------------------

    def _needed_ranks(self, n: int) -> tuple[list[int], list[float]]:
        """Ranks required and their interpolation weights (sum to 1)."""
        raise NotImplementedError

    # -- queries --------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of non-NA values tracked (building the window if unbuilt)."""
        if not self._initialized:
            self.regenerate()
        return self._below + len(self._window) + self._above

    @property
    def value(self) -> Any:
        """The current order statistic (regenerating if the pointer ran off)."""
        n = self.count
        if n == 0:
            return NA
        ranks, weights = self._needed_ranks(n)
        if self._near_edge(ranks):
            self.regenerate()
            n = self.count
            if n == 0:
                return NA
            ranks, weights = self._needed_ranks(n)
        total = 0.0
        for rank, weight in zip(ranks, weights):
            total += weight * float(self._window[rank - self._below])
        return total

    def _near_edge(self, ranks: list[int]) -> bool:
        if not self._window:
            return True
        lo = self._below
        hi = self._below + len(self._window) - 1
        soft_lo = lo + self.margin if self._below > 0 else lo
        soft_hi = hi - self.margin if self._above > 0 else hi
        return any(not (soft_lo <= r <= soft_hi) for r in ranks)

    # -- maintenance ------------------------------------------------------------

    def reset(self) -> None:
        """The empty, initialized multiset."""
        self._install_from_sorted([])
        self._initialized = True

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        """Move the pointer for each added or removed value (NA ignored).

        Before the first read or :meth:`initialize` the window is unbuilt
        and ignores changes: the build reads the provider, which already
        reflects them.  A batch added to an empty multiset becomes the
        window in one sorting pass.  Removing a value the window has no
        record of (inside the bounds but absent, or from an empty
        multiset) breaks the histogram-window invariant: the window goes
        back to unbuilt and the next read regenerates it.
        """
        if not self._initialized:
            return
        clean = [v for v in values if not is_na(v)]
        if not clean:
            return
        if sign > 0 and self._lo_bound is None:
            clean.sort()
            self.stats.data_passes += 1
            self._install_from_sorted(clean)
            return
        if self._lo_bound is None:
            self._break_invariant()
            return
        window = self._window
        for value in clean:
            if value < self._lo_bound:
                self._below += sign
            elif value > self._hi_bound:
                self._above += sign
            elif sign > 0:
                bisect.insort(window, value)
            else:
                i = bisect.bisect_left(window, value)
                if i == len(window) or window[i] != value:
                    self._break_invariant()
                    return
                window.pop(i)
            self.stats.pointer_moves += 1

    def _break_invariant(self) -> None:
        """Count the break and unbuild: the next read regenerates (SS4.2)."""
        self.stats.invariant_breaks += 1
        self._initialized = False

    # -- regeneration -------------------------------------------------------------

    def regenerate(self) -> None:
        """Rebuild the window around the target rank.

        The first build sorts all values.  Later rebuilds use the paper's
        hashing scheme: estimate the value range of the new window from the
        old window's bounds, then make a single pass keeping exact values
        inside the range (the 100 "desired" buckets) and mere counts
        outside it (the 101st bucket, split into below/above).  If the
        estimate misses, the range is widened and another pass made,
        counted as an extra pass; the third miss falls back to a full sort.
        """
        self.stats.regenerations += 1
        if not self._initialized or not self._window:
            self._full_rebuild()
            self._initialized = True
            return
        lo_val, hi_val = self._estimate_range()
        attempts = 0
        while True:
            attempts += 1
            below = 0
            above = 0
            in_range: list[Any] = []
            for value in self._provider():
                if is_na(value):
                    continue
                if value < lo_val:
                    below += 1
                elif value > hi_val:
                    above += 1
                else:
                    in_range.append(value)
            self.stats.data_passes += 1
            n = below + len(in_range) + above
            if n == 0:
                self._window = []
                self._below = 0
                self._above = 0
                return
            ranks, _ = self._needed_ranks(n)
            lo_needed = min(ranks) - self.margin
            hi_needed = max(ranks) + self.margin
            covered_lo = below
            covered_hi = below + len(in_range) - 1
            ok_lo = lo_needed >= covered_lo or below == 0
            ok_hi = hi_needed <= covered_hi or above == 0
            if in_range and ok_lo and ok_hi:
                in_range.sort()
                self._below = below
                self._above = above
                self._window = in_range
                self._lo_bound = lo_val
                self._hi_bound = hi_val
                self._trim(ranks)
                return
            # Estimate missed: widen and re-pass (footnote 2's contingency).
            self.stats.extra_passes += 1
            if attempts >= 3:
                self._full_rebuild()
                return
            span = (hi_val - lo_val) or 1
            lo_val -= span
            hi_val += span

    def _full_rebuild(self) -> None:
        values = sorted(v for v in self._provider() if not is_na(v))
        self.stats.data_passes += 1
        self._install_from_sorted(values)

    def _estimate_range(self) -> tuple[Any, Any]:
        """Value range the new window should cover, from the old bounds.

        "We will know what the approximate range of values for the new
        histogram will be since updates ... cause the value of the median
        to change only slightly" (SS4.2).
        """
        lo, hi = self._window[0], self._window[-1]
        span = (hi - lo) or (abs(hi) * 0.01 + 1)
        return lo - span * 0.5, hi + span * 0.5

    def _install_from_sorted(self, values: list[Any]) -> None:
        n = len(values)
        if n == 0:
            self._window = []
            self._below = 0
            self._above = 0
            self._lo_bound = None
            self._hi_bound = None
            return
        ranks, _ = self._needed_ranks(n)
        center = (min(ranks) + max(ranks)) // 2
        half = self.window_size // 2
        lo = max(0, center - half)
        hi = min(n, lo + self.window_size)
        lo = max(0, hi - self.window_size)
        # Never split a run of duplicates across the boundary: the invariant
        # requires every value inside the bounds to live in the window.
        while lo > 0 and values[lo - 1] == values[lo]:
            lo -= 1
        while hi < n and values[hi - 1] == values[hi]:
            hi += 1
        self._window = values[lo:hi]
        self._below = lo
        self._above = n - hi
        self._lo_bound = self._window[0]
        self._hi_bound = self._window[-1]

    def _trim(self, ranks: list[int]) -> None:
        """Shrink an over-full window back toward ``window_size``, keeping

        the needed ranks centered and never splitting duplicate runs."""
        if len(self._window) <= self.window_size:
            return
        center = (min(ranks) + max(ranks)) // 2 - self._below
        half = self.window_size // 2
        lo = max(0, center - half)
        hi = min(len(self._window), lo + self.window_size)
        lo = max(0, hi - self.window_size)
        while lo > 0 and self._window[lo - 1] == self._window[lo]:
            lo -= 1
        while hi < len(self._window) and self._window[hi - 1] == self._window[hi]:
            hi += 1
        self._above += len(self._window) - hi
        self._below += lo
        self._window = self._window[lo:hi]
        self._lo_bound = self._window[0]
        self._hi_bound = self._window[-1]


class MedianWindow(OrderStatWindow):
    """The paper's maintained median."""

    def _needed_ranks(self, n: int) -> tuple[list[int], list[float]]:
        mid = n // 2
        if n % 2 == 1:
            return [mid], [1.0]
        return [mid - 1, mid], [0.5, 0.5]


class QuantileWindow(OrderStatWindow):
    """A maintained quantile (linear interpolation between order ranks).

    The paper's use case: cache the 5th and 95th quantiles early, then
    serve the trimmed mean's bounds later without re-sorting (SS3.1).
    """

    def __init__(
        self,
        q: float,
        values_provider: Callable[[], Iterable[Any]],
        window_size: int = 100,
        margin: int = 2,
    ) -> None:
        if not 0.0 <= q <= 1.0:
            raise StatisticsError(f"quantile must be in [0, 1], got {q}")
        super().__init__(values_provider, window_size=window_size, margin=margin)
        self.q = q

    def _needed_ranks(self, n: int) -> tuple[list[int], list[float]]:
        position = self.q * (n - 1)
        lo = int(position)
        frac = position - lo
        if frac == 0.0 or lo + 1 >= n:
            return [lo], [1.0]
        return [lo, lo + 1], [1.0 - frac, frac]
