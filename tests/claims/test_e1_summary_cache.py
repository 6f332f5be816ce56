"""E1: the Summary Database saves the rescans an analysis repeats (Figure 4, §3.1–3.2).

Caching (function, attribute) results saves the repeated full-column
computations of a Zipf-skewed session over a 50k-row view, and the cache
is far smaller than its inputs ("the size of the cache is much smaller,
reflecting the relationship between the sizes of the results of and
inputs to most functions").  Without a cache every query scans its column.
"""

import pytest

from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.views.view import ConcreteView
from repro.workloads.sessions import SessionGenerator

ATTRIBUTES = ["AGE", "INCOME", "HOURS_WORKED", "YEARS_EDUCATION"]


@pytest.mark.parametrize("session_length", [50, 200, 800])
def test_the_cache_saves_rescans_and_is_small(microdata_50k, session_length):
    events = list(SessionGenerator(ATTRIBUTES, zipf_s=1.1, seed=7).events(session_length))
    view = ConcreteView("e1", microdata_50k.copy("e1"))
    session = AnalystSession(ManagementDatabase(), view, analyst="e1")
    for event in events:
        session.compute(event.function, event.attribute)

    assert session.stats.queries == session_length
    assert session.stats.rows_scanned < session_length * len(microdata_50k)
    # Longer sessions hit harder: the distinct working set saturates.
    if session_length >= 200:
        assert session.cache_stats.hit_ratio > 0.5
    input_bytes = len(microdata_50k) * len(ATTRIBUTES) * 8
    assert view.summary.cached_bytes < input_bytes / 100


def test_cached_answers_equal_recomputed_ones(microdata_50k):
    view = ConcreteView("e1x", microdata_50k.copy("e1x"))
    session = AnalystSession(ManagementDatabase(), view, analyst="e1")
    functions = session.management.functions
    for attribute in ATTRIBUTES:
        for name in ("min", "max", "mean", "std", "median", "quantile_95"):
            cached = session.compute(name, attribute)
            assert cached == pytest.approx(functions.get(name).compute(view.column(attribute)))
