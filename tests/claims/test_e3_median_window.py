"""E3: the median histogram window regenerates rarely, in one pass (§4.2).

Under a stationary correction stream the window's pointer usually just
shifts ("most updates ... will not affect the min or max values; medians
... are more susceptible"); when it runs off the list, regeneration takes
"only a single pass over the data", plus the rare extra pass of a missed
range estimate (footnote 2).  More buckets buy fewer regenerations under
drift.  The analyst reads the median after every update.
"""

import random
import statistics

import pytest

from repro.incremental.order_stats import MedianWindow
from repro.workloads.updates import correction_stream, drift_stream

N_ROWS = 50_000
N_UPDATES = 2_000


def run_stream(values, stream, window_size=100):
    work = list(values)
    window = MedianWindow(lambda: work, window_size=window_size)
    window.value  # the initial build
    for update in stream:
        old, work[update.row] = work[update.row], update.value
        window.on_update(old, update.value)
        window.value
    return work, window


@pytest.mark.parametrize("regime", ["stationary", "drifting"])
def test_the_window_regenerates_rarely_and_in_one_pass(regime):
    rng = random.Random(3)
    values = [rng.gauss(30_000, 8_000) for _ in range(N_ROWS)]
    if regime == "stationary":
        stream = correction_stream(values, N_UPDATES, noise_sd=8_000, seed=4)
    else:
        stream = drift_stream(N_ROWS, N_UPDATES, start=30_000, drift_per_step=40.0, seed=5)
    work, window = run_stream(values, list(stream))
    stats = window.stats

    assert window.value == pytest.approx(statistics.median(work))
    if regime == "stationary":
        assert stats.regenerations <= 5
    assert stats.data_passes <= stats.regenerations + stats.extra_passes
    assert stats.extra_passes <= stats.regenerations * 0.2 + 1


def test_more_buckets_regenerate_less_under_drift():
    rng = random.Random(6)
    base = [rng.gauss(0, 100) for _ in range(20_000)]
    regenerations = {}
    for window_size in (16, 400):
        stream = drift_stream(len(base), 1_500, start=0.0, drift_per_step=0.5, seed=7)
        _, window = run_stream(base, list(stream), window_size=window_size)
        regenerations[window_size] = window.stats.regenerations
    assert regenerations[400] < regenerations[16]
