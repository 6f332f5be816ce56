"""E2: finite differencing keeps totals and averages exact in O(Δ) (§4.2, Figure 5).

Koenig and Paige's incrementally recomputable aggregates (sum, mean, and
variance/std) absorb each point update from its old and new value alone,
where Figure 5's loop would rescan the column; after 1 000 updates the
maintained values equal a fresh computation at every column size.
"""

import random
import statistics

import pytest

from repro.incremental.differencing import derive_incremental

FUNCTIONS = ["sum", "mean", "var", "std"]
UPDATES = 1_000


@pytest.mark.parametrize("n_rows", [10_000, 50_000, 200_000])
def test_maintained_aggregates_stay_exact(n_rows):
    rng = random.Random(1)
    column_rng = random.Random(0)
    work = [column_rng.gauss(30_000, 8_000) for _ in range(n_rows)]
    maintained = {name: derive_incremental(name) for name in FUNCTIONS}
    for computation in maintained.values():
        computation.initialize(work)
    updates = [(rng.randrange(n_rows), rng.gauss(30_000, 8_000)) for _ in range(UPDATES)]

    for row, new in updates:
        old, work[row] = work[row], new
        for computation in maintained.values():
            computation.on_update(old, new)

    assert maintained["mean"].value == pytest.approx(statistics.fmean(work))
    assert maintained["std"].value == pytest.approx(statistics.stdev(work), rel=1e-9)
