"""Regression tests for the median maintainer's mixed-burst drift.

``Delta.coalesce`` reorders a mixed burst into inserts → deletes →
updates.  A legitimate analyst burst such as ``update(30 → 25)`` followed
by ``delete(25)`` used to reach :class:`MedianWindow` with the delete
*first* — deleting a value the window had never seen — and the paper's
histogram-window scheme, unable to classify it, raised ``StatisticsError``
mid-propagation, wedging the entry.  Two things now prevent that:
``apply_batch`` folds a burst's added values in before its removed values
fold out, so a coalesced burst is maintained exactly; and a removal the
window still cannot classify (notifications out of order, a delta that
does not match the data) unbuilds the window instead of raising: the
provider already reflects the data (the documented contract), so the next
read regenerates it in one pass (SS4.2) and the answer stays exact.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.incremental.differencing import Delta
from repro.incremental.order_stats import MedianWindow, QuantileWindow
from repro.relational.types import NA


def test_coalesced_update_then_delete_inside_bounds() -> None:
    """update(30→25) + delete(25) coalesces to delete-first; 25 is in
    [10, 30] — the add-first fold keeps the window exact, no raise."""
    data = [10.0, 20.0, 30.0]
    window = MedianWindow(lambda: list(data))
    window.initialize(data)
    assert window.value == 20.0

    burst = Delta.coalesce(
        [Delta(updates=[(30.0, 25.0)]), Delta(deletes=[25.0])]
    )
    # Provider contract: data reflects the burst before notification.
    data[:] = [10.0, 20.0]
    window.apply_batch((burst,))
    assert window.value == pytest.approx(15.0)
    assert window.stats.invariant_breaks == 0
    assert window.value == statistics.median(data)


def test_coalesced_burst_on_empty_multiset() -> None:
    """update(NA→5) + delete(5) against an all-NA column: exact through
    ``apply_batch``; the same two changes notified delete-first hit an
    empty multiset and must regenerate, not raise."""
    data: list[object] = [NA, NA]
    window = MedianWindow(lambda: list(data))
    window.initialize(data)
    assert window.value is NA

    burst = Delta.coalesce([Delta(updates=[(NA, 5.0)]), Delta(deletes=[5.0])])
    data[:] = [NA]
    window.apply_batch((burst,))
    assert window.value is NA
    assert window.stats.invariant_breaks == 0

    late = MedianWindow(lambda: list(data))
    late.initialize([NA, NA])
    late.on_delete(5.0)
    late.on_update(NA, 5.0)
    assert late.value is NA
    assert late.stats.invariant_breaks == 1


def out_of_order(window: MedianWindow, old: float, new: float) -> None:
    """Notify ``update(old → new); delete(new)`` delete-first."""
    window.on_delete(new)
    window.on_update(old, new)


def test_a_broken_window_tracks_later_mutations() -> None:
    """After the invariant breaks, later inserts/deletes must still be
    reflected in reads, exactly."""
    data = [float(v) for v in range(1, 8)]  # 1..7, median 4
    window = MedianWindow(lambda: list(data))
    window.initialize(data)

    data[:] = [float(v) for v in range(1, 7)]  # 1..6
    out_of_order(window, 7.0, 6.5)
    assert window.stats.invariant_breaks == 1
    assert window.value == statistics.median(data) == 3.5

    # Ordinary maintenance continues after the break.
    data.append(100.0)
    window.on_insert(100.0)
    assert window.value == statistics.median(data) == 4.0
    data.remove(1.0)
    window.on_delete(1.0)
    assert window.value == statistics.median(data) == 4.5


def test_explicit_regenerate_restores_exact_window() -> None:
    """regenerate() after a break rebuilds the exact window."""
    data = [10.0, 20.0, 30.0]
    window = MedianWindow(lambda: list(data))
    window.initialize(data)
    data[:] = [10.0, 20.0]
    out_of_order(window, 30.0, 25.0)
    assert window.stats.invariant_breaks >= 1

    window.regenerate()
    assert window.value == statistics.median(data) == 15.0
    # Exact maintenance resumes: a clean delete must not re-break.
    data.remove(10.0)
    window.on_delete(10.0)
    assert window.value == pytest.approx(20.0)
    assert window.stats.invariant_breaks == 1


def test_quantile_window_survives_mixed_burst() -> None:
    data = [float(v) for v in range(1, 11)]
    window = QuantileWindow(0.75, lambda: list(data))
    window.initialize(data)
    burst = Delta.coalesce([Delta(updates=[(10.0, 9.5)]), Delta(deletes=[9.5])])
    data[:] = [float(v) for v in range(1, 10)]
    window.apply_batch((burst,))
    expected = sorted(data)[6]  # q=0.75 over 9 values → position 6 exactly
    assert window.value == pytest.approx(expected)


def test_mixed_storm_matches_sorted_truth() -> None:
    """A long randomized storm of coalesced mixed bursts (with NA churn)
    must track the sorted-truth median exactly."""
    rng = random.Random(90210)
    data: list[object] = [float(rng.randint(0, 50)) for _ in range(40)]
    window = MedianWindow(lambda: list(data), window_size=8, margin=1)
    window.initialize(data)
    for _ in range(60):
        deltas: list[Delta] = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.4 and data:
                i = rng.randrange(len(data))
                old = data[i]
                new = NA if rng.random() < 0.3 else float(rng.randint(0, 50))
                data[i] = new
                deltas.append(Delta(updates=[(old, new)]))
            elif kind < 0.7:
                v = float(rng.randint(0, 50))
                data.append(v)
                deltas.append(Delta(inserts=[v]))
            elif data:
                i = rng.randrange(len(data))
                v = data.pop(i)
                deltas.append(Delta(deletes=[v]))
        if not deltas:
            continue
        window.apply_batch((Delta.coalesce(deltas),))
        clean = sorted(float(v) for v in data if v is not NA)
        if not clean:
            assert window.value is NA
            continue
        n = len(clean)
        if n % 2 == 1:
            truth = clean[n // 2]
        else:
            truth = (clean[n // 2 - 1] + clean[n // 2]) / 2.0
        assert window.value == truth


def test_an_invariant_break_on_a_large_column_answers_exactly() -> None:
    """An exact median never answers approximately: after a removal the

    window cannot classify, 20 000 lognormal values give the sorted truth."""
    rng = random.Random(1982)
    data = [rng.lognormvariate(10.0, 1.0) for _ in range(20_000)]
    window = MedianWindow(lambda: list(data))
    window.initialize(data)
    ranked = sorted(data)
    middle = len(ranked) // 2
    absent = (ranked[middle - 1] + ranked[middle]) / 2  # in bounds, never present
    assert absent not in data
    window.on_delete(absent)
    assert window.stats.invariant_breaks == 1
    assert window.value == statistics.median(data)
