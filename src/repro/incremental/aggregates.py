"""Hand-built incremental aggregates (Koenig & Paige's totals/averages and

friends).  These are specialized, numerically careful implementations of the
forms :mod:`repro.incremental.differencing` can also generate; min/max get
the support structure the algebra cannot express (a value multiset, so that
deleting the current extreme finds the next one without a full rescan —
most updates "will not affect the min or max values" per SS4.2, and those
that do cost O(distinct values) instead of O(N)).

Each class is ``reset`` / ``fold(values, sign)`` / ``value`` plus
``partial_state`` / ``merge_partial``; the base class derives every other
entry point, so the arithmetic below is the only copy."""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import NA, is_na


class IncrementalCount(IncrementalComputation):
    """Count of non-NA values; two counter bumps per fold."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._na = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        na_marker = NA
        total = na = 0
        for value in values:
            total += 1
            if value is na_marker or (isinstance(value, float) and value != value):
                na += 1
        self._na += sign * na
        self._n += sign * (total - na)
        self._require_tracked(min(self._n, self._na))

    def partial_state(self) -> tuple[int, int]:
        return (self._n, self._na)

    def merge_partial(self, state: tuple[int, int]) -> None:
        n, na = state
        self._n += n
        self._na += na

    @property
    def value(self) -> int:
        return self._n

    @property
    def na_count(self) -> int:
        """How many NA values are present (marked-invalid observations)."""
        return self._na


class IncrementalSum(IncrementalComputation):
    """Neumaier-compensated running sum; O(1) per value.

    Neumaier's variant (unlike plain Kahan) stays exact even when an
    addend exceeds the running sum in magnitude.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self._n = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        na_marker = NA
        total, comp = self._sum, self._comp
        n = 0
        for value in values:
            if value is na_marker or (isinstance(value, float) and value != value):
                continue
            x = sign * float(value)
            n += 1
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        self._sum, self._comp = total, comp
        self._n += sign * n
        self._require_tracked(self._n)

    def partial_state(self) -> tuple[int, float, float]:
        return (self._n, self._sum, self._comp)

    def merge_partial(self, state: tuple[int, float, float]) -> None:
        n, total, comp = state
        tracked = self._n + n
        # The other sum's two halves are just two more addends.
        self.fold((total, comp))
        self._n = tracked

    @property
    def value(self) -> Any:
        return NA if self._n == 0 else self._sum + self._comp


class IncrementalMean(IncrementalSum):
    """Running mean: the compensated sum over the count."""

    def partial_state(self) -> Any:
        """``(n, mean)``."""
        return (self._n, 0.0 if self._n == 0 else self.value)

    def merge_partial(self, state: Any) -> None:
        n, mean = state
        super().merge_partial((n, mean * n, 0.0))

    @property
    def value(self) -> Any:
        return NA if self._n == 0 else (self._sum + self._comp) / self._n

    @property
    def count(self) -> int:
        """Number of non-NA values contributing."""
        return self._n


class IncrementalVariance(IncrementalComputation):
    """Sample variance (ddof=1) via Welford with exact downdating.

    The form for Summary Database entries that live through long update
    streams.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        na_marker = NA
        n, mean, m2 = self._n, self._mean, self._m2
        if sign > 0:
            for value in values:
                if value is na_marker or (isinstance(value, float) and value != value):
                    continue
                x = float(value)
                n += 1
                delta = x - mean
                mean += delta / n
                m2 += delta * (x - mean)
        else:
            for value in values:
                if is_na(value):
                    continue
                x = float(value)
                if n <= 1:
                    # Only a legitimate last-value removal resets the
                    # state; with one value tracked, the running mean *is*
                    # that value (up to roundoff from earlier downdates).
                    if n == 0 or not math.isclose(x, mean, rel_tol=1e-6, abs_tol=1e-9):
                        raise StatisticsError(
                            f"removing absent value {value!r} from a variance "
                            f"state tracking {n} value(s)"
                        )
                    n, mean, m2 = 0, 0.0, 0.0
                    continue
                old_mean = (n * mean - x) / (n - 1)
                m2 -= (x - mean) * (x - old_mean)
                if m2 < 0:  # guard tiny negative residue from roundoff
                    m2 = 0.0
                mean = old_mean
                n -= 1
        self._n, self._mean, self._m2 = n, mean, m2

    def partial_state(self) -> tuple[int, float, float]:
        return (self._n, self._mean, self._m2)

    def merge_partial(self, state: tuple[int, float, float]) -> None:
        """Chan et al.'s pairwise combine of (n, mean, M2) states."""
        n, mean, m2 = state
        if n == 0:
            return
        if self._n == 0:
            self._n, self._mean, self._m2 = n, mean, m2
            return
        total = self._n + n
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self._n * n / total
        if self._m2 < 0:  # guard tiny negative residue from roundoff
            self._m2 = 0.0
        self._mean = math.fsum([self._n * self._mean, n * mean]) / total
        self._n = total

    @property
    def value(self) -> Any:
        if self._n < 2:
            return NA
        return self._m2 / (self._n - 1)

    @property
    def mean(self) -> Any:
        """The running mean (shared with the variance state)."""
        return NA if self._n == 0 else self._mean


class IncrementalStd(IncrementalVariance):
    """Sample standard deviation: the square root of the variance state."""

    @property
    def value(self) -> Any:
        var = super().value
        return NA if is_na(var) else math.sqrt(var)


class IncrementalMinMax(IncrementalComputation):
    """Min and max with a value-multiset support structure.

    Adding is a multiset union and two comparisons.  Removing non-extreme
    values is O(1) each; removing a current extreme rescans the multiset's
    distinct values (O(U)) once per fold, still avoiding the O(N) data
    pass the paper wants to skip.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._counts: Counter = Counter()
        self._min: Any = NA
        self._max: Any = NA

    def _widen(self, lo: Any, hi: Any) -> None:
        if is_na(self._min) or lo < self._min:
            self._min = lo
        if is_na(self._max) or hi > self._max:
            self._max = hi

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        na_marker = NA
        clean = [v for v in values if not (v is na_marker or (isinstance(v, float) and v != v))]
        if not clean:
            return
        counts = self._counts
        if sign > 0:
            counts.update(clean)  # Counter's C-level multiset union
            self._widen(min(clean), max(clean))
            return
        for value in clean:
            if counts[value] <= 0:
                raise StatisticsError(f"removing absent value {value!r}")
            counts[value] -= 1
            if counts[value] == 0:
                del counts[value]
        if not counts:
            self._min = NA
            self._max = NA
            return
        if self._min not in counts:
            self._min = min(counts)
        if self._max not in counts:
            self._max = max(counts)

    def partial_state(self) -> dict[Any, int]:
        return dict(self._counts)

    def merge_partial(self, state: dict[Any, int]) -> None:
        """Union the value multisets; extremes follow from the counts."""
        if state:
            self._counts.update(state)
            self._widen(min(state), max(state))

    @property
    def value(self) -> tuple[Any, Any]:
        return (self._min, self._max)

    @property
    def min(self) -> Any:
        """Current minimum (NA when empty)."""
        return self._min

    @property
    def max(self) -> Any:
        """Current maximum (NA when empty)."""
        return self._max


class IncrementalMin(IncrementalMinMax):
    """Just the minimum."""

    @property
    def value(self) -> Any:
        return self._min


class IncrementalMax(IncrementalMinMax):
    """Just the maximum."""

    @property
    def value(self) -> Any:
        return self._max
