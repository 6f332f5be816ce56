"""E9: precise maintenance beats invalidation, which beats no cache (§3.2, §4.3).

The paper sketches three designs: precise incremental maintenance (§4.2),
invalidate-and-recompute-on-demand ("after each update operation all the
values associated with the updated attribute will be marked as invalid",
§4.3), and no Summary Database at all, which scans a column per query.
Over 1 000 events mixing Zipf-skewed queries with point updates, counted
in rows scanned: caching never loses to no cache, incremental rules never
lose to invalidation, and from 10% updates on invalidation scans more than
twice as many rows.
"""

import pytest

from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.metadata.rules import RuleKind
from repro.views.view import ConcreteView
from repro.workloads.sessions import EventKind, SessionGenerator

ATTRIBUTES = ["AGE", "INCOME", "HOURS_WORKED"]
EVENTS = 1_000


def rows_scanned(relation, events, force_mode):
    view = ConcreteView("e9", relation.copy("e9"))
    management = ManagementDatabase(force_rule_mode=force_mode)
    session = AnalystSession(management, view, analyst="e9")
    for event in events:
        if event.kind is EventKind.QUERY:
            session.compute(event.function, event.attribute)
        else:
            value = 30_000.0 + event.magnitude * 5_000
            session.update_cells(event.attribute, [(event.row, value)])
    return session.stats.rows_scanned


@pytest.mark.parametrize("update_fraction", [0.0, 0.01, 0.1, 0.3, 0.5])
def test_incremental_rules_scan_least(microdata_10k, update_fraction):
    events = list(SessionGenerator(
        ATTRIBUTES,
        functions=("min", "max", "mean", "std", "median", "count"),
        zipf_s=1.0,
        update_fraction=update_fraction,
        n_rows=len(microdata_10k),
        seed=13,
    ).events(EVENTS))
    incremental = rows_scanned(microdata_10k, events, None)
    invalidate = rows_scanned(microdata_10k, events, RuleKind.INVALIDATE)
    queries = sum(event.kind is EventKind.QUERY for event in events)
    no_cache = queries * len(microdata_10k)

    assert incremental <= invalidate <= no_cache + 1
    if update_fraction == 0.0:
        assert incremental == invalidate  # no updates: both pure cache
    if update_fraction >= 0.1:
        assert incremental * 2 < invalidate
