"""Tests for hand-built incremental aggregates."""

import random
import statistics

import pytest

from repro.core.errors import StatisticsError
from repro.incremental.aggregates import (
    IncrementalCount,
    IncrementalMax,
    IncrementalMean,
    IncrementalMin,
    IncrementalMinMax,
    IncrementalStd,
    IncrementalSum,
    IncrementalVariance,
)
from repro.relational.types import NA, is_na

DATA = [5.0, 1.0, 9.0, 3.0, 7.0]


class TestCount:
    def test_basic(self):
        c = IncrementalCount()
        c.initialize([1, NA, 2, NA])
        assert c.value == 2
        assert c.na_count == 2

    def test_updates(self):
        c = IncrementalCount()
        c.initialize([1, 2])
        c.on_update(2, NA)  # marking invalid
        assert c.value == 1 and c.na_count == 1
        c.on_update(NA, 5)  # restoring
        assert c.value == 2 and c.na_count == 0


class TestSumMeanVar:
    def test_sum_kahan_stability(self):
        s = IncrementalSum()
        s.initialize([1e16, 1.0, -1e16])
        assert s.value == 1.0

    def test_mean_insert_delete(self):
        m = IncrementalMean()
        m.initialize(DATA)
        m.on_insert(100.0)
        assert m.value == pytest.approx(statistics.fmean(DATA + [100.0]))
        m.on_delete(100.0)
        assert m.value == pytest.approx(statistics.fmean(DATA))

    def test_mean_empty(self):
        m = IncrementalMean()
        m.initialize([])
        assert is_na(m.value)
        m.on_insert(5.0)
        m.on_delete(5.0)
        assert is_na(m.value)

    def test_variance_long_random_walk(self):
        rng = random.Random(3)
        v = IncrementalVariance()
        work = [rng.gauss(0, 1) for _ in range(500)]
        v.initialize(work)
        for _ in range(1000):
            i = rng.randrange(len(work))
            new = rng.gauss(0, 1)
            v.on_update(work[i], new)
            work[i] = new
        assert v.value == pytest.approx(statistics.variance(work), rel=1e-9)

    def test_std(self):
        s = IncrementalStd()
        s.initialize(DATA)
        assert s.value == pytest.approx(statistics.stdev(DATA))

    def test_variance_below_two_na(self):
        v = IncrementalVariance()
        v.initialize([1.0, 2.0])
        v.on_delete(1.0)
        assert is_na(v.value)


class TestMinMax:
    def test_initial(self):
        mm = IncrementalMinMax()
        mm.initialize(DATA)
        assert mm.value == (1.0, 9.0)

    def test_insert_new_extremes(self):
        mm = IncrementalMinMax()
        mm.initialize(DATA)
        mm.on_insert(0.5)
        mm.on_insert(99.0)
        assert mm.min == 0.5 and mm.max == 99.0

    def test_delete_extreme_finds_next(self):
        mm = IncrementalMinMax()
        mm.initialize(DATA)
        mm.on_delete(9.0)
        assert mm.max == 7.0
        mm.on_delete(1.0)
        assert mm.min == 3.0

    def test_duplicate_extremes(self):
        mm = IncrementalMinMax()
        mm.initialize([1.0, 1.0, 5.0])
        mm.on_delete(1.0)
        assert mm.min == 1.0  # one copy remains

    def test_delete_absent_rejected(self):
        mm = IncrementalMinMax()
        mm.initialize(DATA)
        with pytest.raises(StatisticsError):
            mm.on_delete(123.0)

    def test_empty(self):
        mm = IncrementalMinMax()
        mm.initialize([])
        assert is_na(mm.min) and is_na(mm.max)
        mm.on_insert(2.0)
        mm.on_delete(2.0)
        assert is_na(mm.min)

    def test_min_max_subclasses(self):
        lo = IncrementalMin()
        lo.initialize(DATA)
        assert lo.value == 1.0
        hi = IncrementalMax()
        hi.initialize(DATA)
        assert hi.value == 9.0

    def test_na_ignored(self):
        mm = IncrementalMinMax()
        mm.initialize([NA, 2.0, NA])
        assert mm.value == (2.0, 2.0)


class TestVarianceDeleteGuards:
    """Deletes of values the state never saw must fail loudly (SS4.2).

    Before the fix, deleting down to one remaining value silently zeroed
    M2 even when the deleted value was never inserted — corrupting the
    running variance instead of surfacing the phantom delete.
    """

    def test_delete_from_empty_state_raises(self):
        var = IncrementalVariance()
        with pytest.raises(StatisticsError):
            var.on_delete(1.0)

    def test_delete_absent_last_value_raises(self):
        var = IncrementalVariance()
        var.initialize([3.0])
        with pytest.raises(StatisticsError):
            var.on_delete(100.0)  # never inserted; state must not reset

    def test_delete_present_value_at_n2_succeeds(self):
        var = IncrementalVariance()
        var.initialize([3.0, 5.0])
        var.on_delete(5.0)
        assert var.mean == pytest.approx(3.0)
        assert is_na(var.value)  # n=1: variance undefined

    def test_round_trip_still_exact(self):
        var = IncrementalVariance()
        var.initialize(DATA)
        var.on_insert(11.0)
        var.on_delete(11.0)
        assert var.value == pytest.approx(statistics.variance(DATA))


class TestPartialMerge:
    """Merge contract: merged partial states == one-shot state."""

    def split_halves(self, values):
        return values[0::2], values[1::2]

    def merged(self, cls, values):
        left, right = self.split_halves(values)
        a, b = cls(), cls()
        a.initialize(left)
        b.initialize(right)
        a.merge_partial(b.partial_state())
        return a

    def test_sum_mean_var_std_merge(self):
        data = DATA + [NA, 2.5, NA, -4.0]
        for cls in (IncrementalSum, IncrementalMean, IncrementalVariance, IncrementalStd):
            whole = cls()
            whole.initialize(data)
            assert self.merged(cls, data).value == pytest.approx(whole.value)

    def test_count_merge_tracks_na(self):
        data = [1.0, NA, 3.0, NA, NA]
        merged = self.merged(IncrementalCount, data)
        assert merged.value == 2
        assert merged.na_count == 3

    def test_minmax_merge(self):
        data = [5.0, -2.0, 9.0, 0.0, 7.5]
        merged = self.merged(IncrementalMinMax, data)
        assert merged.min == -2.0
        assert merged.max == 9.0
        # Merged multiset still supports subsequent deletes.
        merged.on_delete(9.0)
        assert merged.max == 7.5

    def test_merge_empty_partial_is_identity(self):
        full = IncrementalMean()
        full.initialize(DATA)
        empty = IncrementalMean()
        empty.initialize([])
        before = full.value
        full.merge_partial(empty.partial_state())
        assert full.value == pytest.approx(before)
