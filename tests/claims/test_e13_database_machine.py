"""E13: where a database machine pays off, in the cost model (§4.3).

Of the paper's four candidate uses, two are costed against the
conventional path.  A pseudo-associative disk beats a B-tree probe for
Summary Database searches only while the area is small: the paper's own
(function, attribute) index keeps the conventional path flat.  A filtering
processor speeds a view-materializing scan when it is selective and is
about even when it keeps every row.
"""

import pytest

from repro.storage.dbmachine import compare_materializing_scan, compare_summary_search


def test_the_associative_disk_wins_only_small_searches():
    assert compare_summary_search(summary_pages=10).machine_advantage > 1
    assert any(
        compare_summary_search(summary_pages=pages).machine_advantage <= 1
        for pages in (10, 100, 1_000, 10_000)
    )


def test_the_filtering_processor_wins_selective_scans():
    advantage = {
        selectivity: compare_materializing_scan(10_000, selectivity).machine_advantage
        for selectivity in (0.001, 1.0)
    }
    assert advantage[0.001] > advantage[1.0]
    assert advantage[0.001] > 1.1
    assert advantage[1.0] == pytest.approx(1.0, abs=0.05)
