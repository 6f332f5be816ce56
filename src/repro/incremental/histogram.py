"""Incrementally maintained equi-width histograms.

The Summary Database stores histograms among its varying-length results
(SS3.2: "a histogram will be stored as two vectors — one for specifying the
ranges and the other for the number of values that fall in each range").
:class:`MaintainedHistogram` keeps such a histogram consistent under point
changes, with underflow/overflow buckets for values that drift outside the
original range and a rebinning trigger, checked on each read, when too
much mass escapes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import is_na


class MaintainedHistogram(IncrementalComputation):
    """An equi-width histogram maintained under inserts/deletes/updates.

    Parameters
    ----------
    lo, hi:
        Range covered by the regular buckets.
    bins:
        Number of regular buckets.
    values_provider:
        Optional callable returning current values, used to rebin when the
        escaped-mass fraction exceeds ``rebin_threshold``.
    rebin_threshold:
        Fraction of total count allowed in the underflow+overflow buckets
        before a read rebins automatically (requires ``values_provider``).
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        bins: int = 20,
        values_provider: Callable[[], Iterable[Any]] | None = None,
        rebin_threshold: float = 0.1,
    ) -> None:
        if bins < 1:
            raise StatisticsError(f"bins must be >= 1, got {bins}")
        if not hi > lo:
            raise StatisticsError(f"need hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = bins
        self.rebins = 0
        self._provider = values_provider
        self._threshold = rebin_threshold
        self.reset()

    # -- geometry -----------------------------------------------------------

    @property
    def width(self) -> float:
        """Bucket width."""
        return (self.hi - self.lo) / self.bins

    @property
    def edges(self) -> list[float]:
        """The bins+1 bucket edges (the paper's 'ranges' vector)."""
        w = self.width
        return [self.lo + i * w for i in range(self.bins + 1)]

    @property
    def total(self) -> int:
        """Total counted values, escaped mass included."""
        return sum(self.counts) + self.underflow + self.overflow

    def _bucket(self, value: float) -> int | None:
        if value < self.lo:
            return -1
        if value >= self.hi:
            return self.bins
        index = int((value - self.lo) / self.width)
        return min(index, self.bins - 1)

    # -- protocol -------------------------------------------------------------

    def reset(self) -> None:
        self.counts = [0] * self.bins
        self.underflow = 0
        self.overflow = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        for value in values:
            if is_na(value):
                continue
            index = self._bucket(float(value))
            if index == -1:
                self.underflow += sign
            elif index == self.bins:
                self.overflow += sign
            else:
                if sign < 0 and self.counts[index] <= 0:
                    raise StatisticsError(
                        f"deleting value {value!r} from empty bucket {index}"
                    )
                self.counts[index] += sign
        self._require_tracked(min(self.underflow, self.overflow))

    @property
    def value(self) -> tuple[list[float], list[int]]:
        """The paper's two vectors: (edges, counts).

        Rebinning happens here, on the read, never inside ``fold``: the
        provider already reflects a whole burst of changes, so a rebuild in
        the middle of one would apply the rest of the burst twice.
        """
        self._maybe_rebin()
        return (self.edges, list(self.counts))

    @property
    def escaped_fraction(self) -> float:
        """Share of mass in the underflow/overflow buckets."""
        total = self.total
        if total == 0:
            return 0.0
        return (self.underflow + self.overflow) / total

    def _maybe_rebin(self) -> None:
        if self._provider is None:
            return
        if self.total >= 10 and self.escaped_fraction > self._threshold:
            self.rebin()

    def rebin(self) -> None:
        """Rebuild bucket geometry from the current data (one pass)."""
        if self._provider is None:
            raise StatisticsError("rebinning requires a values_provider")
        values = [float(v) for v in self._provider() if not is_na(v)]
        self.rebins += 1
        self.reset()
        if not values:
            return
        lo, hi = min(values), max(values)
        if hi == lo:
            hi = lo + 1.0
        span = hi - lo
        self.lo = lo - 0.001 * span
        self.hi = hi + 0.001 * span
        for value in values:
            index = self._bucket(value)
            assert index is not None and 0 <= index < self.bins
            self.counts[index] += 1
