"""Incrementally maintained frequency information: mode, unique count,

and the "measure of frequency of values" the Summary Database holds as
standing descriptive information (SS3.2)."""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import NA, is_na


class IncrementalFrequency(IncrementalComputation):
    """A maintained value-frequency table.

    Exposes the mode, the number of unique values, and the top-k most
    frequent values.  Adding/removing is an O(1) dictionary update per
    value; the mode is tracked lazily (recomputed in O(U) only when the
    current mode's count is no longer provably maximal).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._counts: Counter = Counter()
        self._na = 0
        self._mode: Any = NA
        self._mode_dirty = False

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        counts = self._counts
        for value in values:
            if is_na(value):
                self._na += sign
            elif sign > 0:
                counts[value] += 1
                # While the tracked mode is stale (its count dropped) the
                # next read recomputes it; comparing against it here could
                # crown a non-maximal value.
                if not self._mode_dirty and (
                    is_na(self._mode) or counts[value] > counts.get(self._mode, 0)
                ):
                    self._mode = value
            else:
                if counts[value] <= 0:
                    raise StatisticsError(f"deleting absent value {value!r}")
                counts[value] -= 1
                if counts[value] == 0:
                    del counts[value]
                if value == self._mode:
                    self._mode_dirty = True
        self._require_tracked(self._na)

    def _refresh_mode(self) -> None:
        if not self._counts:
            self._mode = NA
        else:
            self._mode = max(self._counts, key=lambda v: (self._counts[v],))
        self._mode_dirty = False

    @property
    def value(self) -> Any:
        """The mode (an arbitrary maximal value under ties; NA when empty)."""
        if self._mode_dirty:
            self._refresh_mode()
        return self._mode

    @property
    def mode(self) -> Any:
        """Alias for :attr:`value`."""
        return self.value

    @property
    def unique_count(self) -> int:
        """Number of distinct non-NA values."""
        return len(self._counts)

    @property
    def na_count(self) -> int:
        """Number of NA (marked-invalid) values."""
        return self._na

    def frequency_of(self, value: Any) -> int:
        """Occurrences of one value."""
        return self._counts.get(value, 0)

    def top_k(self, k: int) -> list[tuple[Any, int]]:
        """The k most frequent (value, count) pairs."""
        return self._counts.most_common(k)

    def table(self) -> dict[Any, int]:
        """A copy of the full frequency table."""
        return dict(self._counts)
