"""Tests for the maintained histogram."""

import pytest

from repro.core.errors import StatisticsError
from repro.incremental.histogram import MaintainedHistogram
from repro.relational.types import NA


class TestMaintainedHistogram:
    def test_initialize_counts(self):
        h = MaintainedHistogram(0, 10, bins=5)
        h.initialize([0.5, 1.5, 2.5, 9.9, NA])
        assert h.total == 4
        assert h.counts[0] == 2  # [0, 2) holds 0.5 and 1.5

    def test_edges_vector(self):
        h = MaintainedHistogram(0, 10, bins=5)
        assert h.edges == [0, 2, 4, 6, 8, 10]
        edges, counts = h.value
        assert len(edges) == 6 and len(counts) == 5

    def test_insert_delete_roundtrip(self):
        h = MaintainedHistogram(0, 10, bins=2)
        h.initialize([1.0, 6.0])
        h.on_insert(2.0)
        h.on_delete(1.0)
        assert h.counts == [1, 1]

    def test_out_of_range_tracked(self):
        h = MaintainedHistogram(0, 10, bins=2)
        h.initialize([1.0])
        h.on_insert(-5.0)
        h.on_insert(50.0)
        assert h.underflow == 1 and h.overflow == 1
        assert h.escaped_fraction == pytest.approx(2 / 3)

    def test_delete_from_empty_bucket_rejected(self):
        h = MaintainedHistogram(0, 10, bins=2)
        h.initialize([])
        with pytest.raises(StatisticsError):
            h.on_delete(1.0)

    def test_updates(self):
        h = MaintainedHistogram(0, 10, bins=2)
        h.initialize([1.0])
        h.on_update(1.0, 9.0)
        assert h.counts == [0, 1]

    def test_auto_rebin_on_escape(self):
        values = list(range(10))
        work = [float(v) for v in values]
        h = MaintainedHistogram(0, 10, bins=5, values_provider=lambda: work)
        h.initialize(work)
        # Push lots of mass far above the range; rebinning should trigger.
        for i in range(5):
            work.append(100.0 + i)
            h.on_insert(100.0 + i)
            h.value  # the rebin check runs on the read
        assert h.rebins >= 1
        # Only the values inserted after the last rebin can still overflow.
        assert h.overflow <= 2
        assert h.total == len(work)

    def test_rebin_requires_provider(self):
        h = MaintainedHistogram(0, 10, bins=2)
        with pytest.raises(StatisticsError, match="provider"):
            h.rebin()

    def test_rebin_empty_data(self):
        work = []
        h = MaintainedHistogram(0, 10, bins=2, values_provider=lambda: work)
        h.rebin()
        assert h.total == 0

    def test_validation(self):
        with pytest.raises(StatisticsError):
            MaintainedHistogram(0, 10, bins=0)
        with pytest.raises(StatisticsError):
            MaintainedHistogram(5, 5, bins=2)
