"""Tests for the median/quantile histogram window (paper SS4.2)."""

import random
import statistics

import numpy as np
import pytest

from repro.core.errors import StatisticsError
from repro.incremental.order_stats import MedianWindow, QuantileWindow
from repro.relational.types import NA, is_na


class Backing:
    """A mutable value store honouring the provider contract: data is

    changed *before* the window is notified."""

    def __init__(self, values):
        self.values = list(values)

    def provider(self):
        return list(self.values)

    def update(self, window, index, new):
        old = self.values[index]
        self.values[index] = new
        window.on_update(old, new)

    def insert(self, window, value):
        self.values.append(value)
        window.on_insert(value)

    def delete(self, window, index):
        old = self.values.pop(index)
        window.on_delete(old)


class TestMedianWindow:
    def test_initial_matches_true_median(self):
        backing = Backing(range(1001))
        window = MedianWindow(backing.provider, window_size=50)
        assert window.value == 500

    def test_even_count_interpolates(self):
        backing = Backing([1.0, 2.0, 3.0, 4.0])
        window = MedianWindow(backing.provider)
        assert window.value == 2.5

    def test_empty_is_na(self):
        backing = Backing([])
        window = MedianWindow(backing.provider)
        assert is_na(window.value)

    def test_na_values_ignored(self):
        backing = Backing([1.0, NA, 3.0, NA, 5.0])
        window = MedianWindow(backing.provider)
        assert window.value == 3.0
        window.on_insert(NA)
        assert window.value == 3.0

    def test_stationary_updates_exact(self):
        rng = random.Random(0)
        backing = Backing([rng.gauss(50, 10) for _ in range(2000)])
        window = MedianWindow(backing.provider, window_size=100)
        for _ in range(1000):
            backing.update(window, rng.randrange(2000), rng.gauss(50, 10))
            assert window.value == pytest.approx(statistics.median(backing.values))

    def test_stationary_updates_rarely_regenerate(self):
        """The paper's claim: the pointer wanders, regeneration is rare."""
        rng = random.Random(1)
        backing = Backing([rng.gauss(50, 10) for _ in range(5000)])
        window = MedianWindow(backing.provider, window_size=100)
        window.value
        for _ in range(2000):
            backing.update(window, rng.randrange(5000), rng.gauss(50, 10))
        window.value
        assert window.stats.regenerations <= 5
        assert window.stats.pointer_moves == 4000

    def test_regeneration_is_single_pass(self):
        """Each regeneration after drift makes exactly one data pass."""
        rng = random.Random(2)
        backing = Backing([rng.gauss(0, 5) for _ in range(3000)])
        window = MedianWindow(backing.provider, window_size=80)
        window.value
        passes_before = window.stats.data_passes
        for step in range(2000):
            backing.update(window, rng.randrange(3000), rng.gauss(step * 0.1, 5))
            window.value
        extra_regens = window.stats.regenerations - 1
        extra_passes = window.stats.data_passes - passes_before
        assert extra_regens > 3  # drift forced pointer run-offs
        assert extra_passes == extra_regens + window.stats.extra_passes
        assert window.stats.extra_passes <= extra_regens  # mostly single-pass

    def test_inserts_and_deletes(self):
        rng = random.Random(3)
        backing = Backing([float(i) for i in range(100)])
        window = MedianWindow(backing.provider, window_size=20)
        for _ in range(300):
            if rng.random() < 0.5 and len(backing.values) > 10:
                backing.delete(window, rng.randrange(len(backing.values)))
            else:
                backing.insert(window, rng.uniform(0, 100))
            assert window.value == pytest.approx(statistics.median(backing.values))

    def test_duplicate_heavy_data(self):
        rng = random.Random(4)
        backing = Backing([rng.randrange(5) for _ in range(1000)])
        window = MedianWindow(backing.provider, window_size=32)
        for _ in range(1000):
            backing.update(window, rng.randrange(1000), rng.randrange(5))
            assert window.value == statistics.median(backing.values)

    def test_delete_absent_value_regenerates_exactly(self):
        # The invariant break unbuilds the window instead of raising
        # mid-propagation; the next read regenerates it off the provider.
        backing = Backing([1.0, 2.0, 3.0])
        window = MedianWindow(backing.provider)
        window.value
        window.on_delete(2.5)  # inside bounds, never present
        assert window.stats.invariant_breaks == 1
        assert window.value == statistics.median(backing.values)
        assert window.stats.regenerations == 2

    def test_window_size_validation(self):
        with pytest.raises(StatisticsError):
            MedianWindow(lambda: [], window_size=4)
        with pytest.raises(StatisticsError):
            MedianWindow(lambda: [], window_size=10, margin=5)

    def test_delete_everything(self):
        backing = Backing([1.0, 2.0])
        window = MedianWindow(backing.provider)
        window.value
        backing.delete(window, 0)
        backing.delete(window, 0)
        assert is_na(window.value)


class TestQuantileWindow:
    @pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_matches_numpy(self, q):
        rng = random.Random(5)
        values = [rng.gauss(0, 1) for _ in range(1500)]
        window = QuantileWindow(q, lambda: values, window_size=80)
        assert window.value == pytest.approx(float(np.quantile(values, q)))

    def test_extreme_quantiles(self):
        values = [float(i) for i in range(100)]
        assert QuantileWindow(0.0, lambda: values).value == 0.0
        assert QuantileWindow(1.0, lambda: values).value == 99.0

    def test_drift_tracks_quantile(self):
        rng = random.Random(6)
        backing = Backing([rng.gauss(100, 15) for _ in range(2000)])
        window = QuantileWindow(0.9, backing.provider, window_size=100)
        for step in range(1500):
            backing.update(window, rng.randrange(2000), rng.gauss(100 + step * 0.1, 15))
        assert window.value == pytest.approx(float(np.quantile(backing.values, 0.9)))
        assert window.stats.regenerations < 100

    def test_invalid_q(self):
        with pytest.raises(StatisticsError):
            QuantileWindow(1.5, lambda: [])

    def test_initialize_protocol(self):
        window = MedianWindow(lambda: [1.0, 2.0, 3.0])
        window.initialize([5.0, 6.0, 7.0])
        assert window.value == 6.0  # uses the initialized data
