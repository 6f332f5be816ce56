"""E9 — Maintenance designs under mixed workloads (paper SS3.2, SS4.3).

The paper sketches three designs: precise incremental maintenance (SS4.2),
the invalidate-and-recompute-on-demand fallback ("after each update
operation all the values associated with the updated attribute will be
marked as invalid", SS4.3), and having no Summary Database at all.  It
argues "the relatively static nature of statistical databases indicates
that this overhead will be more than offset".

Workload: event streams mixing Zipf-skewed queries with point updates at
fractions 0-50%; work is counted in rows scanned per 1000 events.
Expected shape: caching always beats no-cache; incremental beats
invalidation everywhere, and invalidation degrades toward no-cache as the
update fraction grows.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentTable, report_table
from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.metadata.rules import RuleKind
from repro.views.view import ConcreteView
from repro.workloads.sessions import EventKind, SessionGenerator

ATTRIBUTES = ["AGE", "INCOME", "HOURS_WORKED"]
EVENTS = 1_000


def run_policyful(relation, events, force_mode):
    management = ManagementDatabase(force_rule_mode=force_mode)
    view = ConcreteView("e9", relation.copy("e9"))
    session = AnalystSession(management, view, analyst="e9")
    for event in events:
        if event.kind is EventKind.QUERY:
            session.compute(event.function, event.attribute)
        else:
            session.update_cells(
                event.attribute, [(event.row, 30_000.0 + event.magnitude * 5_000)]
            )
    return session.stats.rows_scanned


def run_no_cache(relation, events, functions):
    view = ConcreteView("e9n", relation.copy("e9n"))
    scanned = 0
    for event in events:
        if event.kind is EventKind.QUERY:
            values = view.column(event.attribute)
            functions.get(event.function).compute(values)
            scanned += len(values)
        else:
            view.relation.set_value(event.row, event.attribute, 30_000.0)
    return scanned


@pytest.mark.parametrize("update_fraction", [0.0, 0.01, 0.1, 0.3, 0.5])
def test_e9_policy_sweep(microdata_10k, update_fraction, benchmark):
    generator = SessionGenerator(
        ATTRIBUTES,
        functions=("min", "max", "mean", "std", "median", "count"),
        zipf_s=1.0,
        update_fraction=update_fraction,
        n_rows=len(microdata_10k),
        seed=13,
    )
    events = list(generator.events(EVENTS))
    functions = ManagementDatabase().functions

    incremental = run_policyful(microdata_10k, events, None)
    invalidate = run_policyful(microdata_10k, events, RuleKind.INVALIDATE)
    no_cache = run_no_cache(microdata_10k, events, functions)

    table = ExperimentTable(
        "E9",
        f"Maintenance designs, update fraction {update_fraction:.0%} "
        f"({EVENTS} events, 10k rows)",
        ["design", "rows_scanned", "vs_no_cache"],
    )
    table.add_row("no Summary Database", no_cache, 1.0)
    table.add_row(
        "invalidate + lazy recompute (SS4.3)",
        invalidate,
        round(no_cache / max(1, invalidate), 2),
    )
    table.add_row(
        "incremental rules (SS4.2)",
        incremental,
        round(no_cache / max(1, incremental), 2),
    )
    report_table(table)

    assert incremental <= invalidate <= no_cache + 1
    if update_fraction == 0.0:
        assert incremental == invalidate  # no updates: both pure cache
    if update_fraction >= 0.1:
        # Updates hurt invalidation much more than incremental rules.
        assert incremental * 2 < invalidate

    benchmark(lambda: run_policyful(microdata_10k, events[:100], None))
