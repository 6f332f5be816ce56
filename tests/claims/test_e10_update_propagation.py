"""E10: an update visits only its attribute's entries, which cluster on few pages (§3.2, §4.1).

"Given an attribute name we can retrieve all the values associated with
that attribute": a point update to INCOME visits INCOME's cached entries,
not the whole Summary Database, and undoing 50 INCOME operations sweeps
those entries once.  Clustering entries on attribute name puts one
attribute's entries on one page; insertion order scatters them over eight.
"""

from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.summary.summarydb import SummaryDatabase
from repro.views.view import ConcreteView

FUNCTIONS = ["min", "max", "mean", "std", "median", "count", "sum", "var"]


def warm_session(relation, attributes):
    view = ConcreteView("e10", relation.copy("e10"))
    session = AnalystSession(ManagementDatabase(), view, analyst="e10")
    for attribute in attributes:
        for name in FUNCTIONS:
            session.compute(name, attribute)
    return session


def test_an_update_visits_only_its_attribute(microdata_10k):
    attributes = ["AGE", "INCOME", "HOURS_WORKED", "YEARS_EDUCATION"]
    session = warm_session(microdata_10k, attributes)
    assert len(session.view.summary) == len(attributes) * len(FUNCTIONS)
    report = session.update_cells("INCOME", [(7, 55_000.0)])
    assert report.entries_visited == len(FUNCTIONS)


def test_an_undo_burst_sweeps_the_attribute_once(microdata_10k):
    session = warm_session(microdata_10k, ["INCOME"])
    n_ops = 50
    for i in range(n_ops):
        session.update_cells("INCOME", [(i, 10_000.0 + i)])
    report = session.undo(n_ops)
    assert report.attributes == ["INCOME"]
    assert report.entries_visited == len(FUNCTIONS)  # one sweep, not one per operation


def test_clustering_puts_an_attribute_on_one_page():
    def build(clustered):
        summary = SummaryDatabase("e10b", entries_per_page=8, clustered=clustered)
        # Function-major insertion: consecutive entries name different
        # attributes, the worst case for an unclustered layout.
        for name in FUNCTIONS:
            for i in range(16):
                summary.insert(name, f"attr{i:02d}", 1.0)
        return summary

    assert build(clustered=True).pages_for_attribute("attr05") == 1
    assert build(clustered=False).pages_for_attribute("attr05") == 8
