"""Batched delta application: coalesce, apply_batch, and the report merge.

``apply_batch`` folds a burst's added values in and its removed values
out; the result must equal recomputation over the live multiset.  (That
every maintainer agrees with batch ``compute`` under any interleaving is
``test_conformance.py``'s job; this file keeps the burst vocabulary and
the propagator's sweep.)
"""

import statistics

import pytest

from repro.core.propagation import PropagationReport, UpdatePropagator
from repro.incremental.differencing import Delta, derive_incremental
from repro.metadata.management import ManagementDatabase
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.relational.types import NA
from repro.summary.policies import PrecisePolicy
from repro.views.view import ConcreteView

DATA = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0]

BURST = [
    Delta(inserts=[7.0, 11.0]),
    Delta(deletes=[8.0]),
    Delta(updates=[(15.0, 150.0), (42.0, NA)]),
    Delta(inserts=[NA]),
    Delta(updates=[(4.0, 4.5)]),
]


class TestCoalesce:
    def test_concatenates_in_order(self):
        merged = Delta.coalesce(BURST)
        assert merged.inserts == [7.0, 11.0, NA]
        assert merged.deletes == [8.0]
        assert merged.updates == [(15.0, 150.0), (42.0, NA), (4.0, 4.5)]
        assert merged.size == sum(d.size for d in BURST)

    def test_empty_burst_is_empty_delta(self):
        merged = Delta.coalesce([])
        assert merged.size == 0


class TestApplyBatchParity:
    @pytest.mark.parametrize("name", ["count", "sum", "mean", "avg", "var", "std"])
    def test_batch_equals_per_delta_fold(self, name):
        # One burst reorders the changes (added values in, then removed
        # ones out); applying it delta by delta does not.
        one_by_one = derive_incremental(name)
        batched = derive_incremental(name)
        one_by_one.initialize(DATA)
        batched.initialize(DATA)

        for delta in BURST:
            one_by_one.apply_delta(delta)
        batched.apply_batch(BURST)

        assert batched.value == pytest.approx(one_by_one.value)

    def test_batch_value_matches_recompute(self):
        # After the burst the live multiset is DATA with the burst applied.
        expected = [7.0, 11.0, 4.5, 150.0, 16.0, 23.0]
        for name, reference in [
            ("sum", sum),
            ("mean", statistics.fmean),
            ("var", statistics.variance),
            ("std", statistics.stdev),
        ]:
            inc = derive_incremental(name)
            inc.initialize(DATA)
            value = inc.apply_batch(BURST)
            assert value == pytest.approx(reference(expected)), name

    def test_empty_batch_returns_current_value(self):
        inc = derive_incremental("sum")
        inc.initialize(DATA)
        assert inc.apply_batch([]) == pytest.approx(sum(DATA))

    def test_count_batch_is_exact(self):
        inc = derive_incremental("count")
        inc.initialize(DATA)
        # +3 inserts (one NA), -1 delete, one update to NA: 6 + 2 - 1 - 1 = 6
        assert inc.apply_batch(BURST) == 6.0


class TestReportMerge:
    def test_counters_add_and_names_dedup(self):
        a = PropagationReport(
            attributes=["x"],
            entries_visited=2,
            incremental_updates=1,
            derived_columns_touched=["resid_x"],
        )
        b = PropagationReport(
            attributes=["x", "y"],
            entries_visited=3,
            recomputations=1,
            derived_columns_touched=["resid_x", "z"],
        )
        a.merge(b)
        assert a.attributes == ["x", "y"]
        assert a.derived_columns_touched == ["resid_x", "z"]
        assert a.entries_visited == 5
        assert a.incremental_updates == 1
        assert a.recomputations == 1


@pytest.fixture()
def propagation_setup():
    management = ManagementDatabase()
    schema = Schema([measure("x")])
    relation = Relation("v", schema, [(float(i),) for i in range(50)])
    view = ConcreteView("v", relation)
    propagator = UpdatePropagator(management, view, PrecisePolicy())
    return management, view, propagator


def seed_cache(management, view, function, attr):
    fn = management.functions.get(function)
    maintainer = (
        fn.make_maintainer(view.column_provider(attr)) if fn.is_incremental else None
    )
    return view.summary.insert(
        function, attr, fn.compute(view.column(attr)), maintainer=maintainer
    )


class TestPropagateBatch:
    def test_matches_sequential_propagation(self, propagation_setup):
        management, view, propagator = propagation_setup
        # min/max/median exercise the provider-backed maintainers, which have
        # no algebraic batch form and go through the default fold.
        for fn in ["count", "sum", "mean", "var", "min", "max", "median"]:
            seed_cache(management, view, fn, "x")

        deltas, rows = [], []
        for row, new in [(0, 100.0), (7, -3.0), (49, 0.5)]:
            old = view.relation.set_value(row, "x", new)
            deltas.append(Delta(updates=[(old, new)]))
            rows.append(row)

        report = propagator.propagate_batch("x", deltas, rows)
        column = view.column("x")
        assert view.summary.peek("sum", "x").result == pytest.approx(sum(column))
        assert view.summary.peek("mean", "x").result == pytest.approx(
            statistics.fmean(column)
        )
        assert view.summary.peek("var", "x").result == pytest.approx(
            statistics.variance(column)
        )
        assert view.summary.peek("min", "x").result == min(column)
        assert view.summary.peek("max", "x").result == max(column)
        assert view.summary.peek("median", "x").result == pytest.approx(
            statistics.median(column)
        )
        # One sweep over the entries, not one per delta.
        assert report.entries_visited == 7
        assert report.attributes == ["x"]

    def test_each_maintainer_sees_one_apply_batch_per_burst(
        self, propagation_setup
    ):
        management, view, propagator = propagation_setup
        functions = ["count", "sum", "mean", "std", "var", "min", "max", "median"]
        calls = {}
        for fn in functions:
            maintainer = seed_cache(management, view, fn, "x").maintainer
            fold_burst = maintainer.apply_batch

            def counted(deltas, fn=fn, fold_burst=fold_burst):
                calls[fn] = calls.get(fn, 0) + 1
                return fold_burst(deltas)

            maintainer.apply_batch = counted

        deltas, rows = [], []
        for i in range(40):
            row = i % 50
            old = view.relation.set_value(row, "x", float(1000 + i))
            deltas.append(Delta(updates=[(old, float(1000 + i))]))
            rows.append(row)
        propagator.propagate_batch("x", deltas, rows)
        # Forty deltas, one call per maintainer: the burst folds as a whole.
        assert calls == dict.fromkeys(functions, 1)

    def test_empty_burst_is_noop(self, propagation_setup):
        management, view, propagator = propagation_setup
        seed_cache(management, view, "sum", "x")
        before = view.summary.peek("sum", "x").result
        report = propagator.propagate_batch("x", [])
        assert view.summary.peek("sum", "x").result == before
        assert report.incremental_updates == 0

    def test_inconsistent_delta_goes_stale_and_the_sweep_finishes(self):
        """A delete of a value the view never held: every exact maintainer
        is over-drawn.  The rule must drop it and mark the entry stale —
        not store count = -1, and not let the StatisticsError abort the
        sweep with later entries un-maintained and un-marked."""
        management = ManagementDatabase()
        relation = Relation("v", Schema([measure("x")]), [(5.0,)])
        view = ConcreteView("v", relation)
        propagator = UpdatePropagator(management, view, PrecisePolicy())
        functions = ["count", "sum", "mean", "var", "min", "max", "median"]
        for fn in functions:
            seed_cache(management, view, fn, "x")

        report = propagator.propagate("x", Delta(deletes=[7.0, 7.0]))

        assert report.entries_visited == len(functions)
        column = view.column("x")
        for fn in functions:
            entry = view.summary.peek(fn, "x")
            fresh = management.functions.get(fn).compute(column)
            assert entry.stale or entry.result == pytest.approx(fresh), fn
        for fn in ["count", "sum", "mean", "var", "min", "max"]:
            entry = view.summary.peek(fn, "x")
            assert entry.stale and entry.maintainer is None, fn
        assert report.invalidations == 6
        # The median window degrades to provider-served reads instead.
        assert not view.summary.peek("median", "x").stale

    def test_mistyped_cell_goes_stale_and_the_sweep_finishes(self):
        """A cell no maintainer can fold (text in a numeric column) raises
        ``ValueError``, not ``StatisticsError``; the view has changed and the
        operation is logged all the same, so whatever a maintainer raises it
        is dropped, its entry goes stale and the sweep reaches the rest —
        one-attribute entries and the fitted model alike."""
        from repro.core.session import AnalystSession

        relation = Relation(
            "v",
            Schema([measure("y"), measure("x1")]),
            [(2.0 * i + (i % 3), float(i)) for i in range(12)],
        )
        session = AnalystSession(ManagementDatabase(), ConcreteView("v", relation))
        keys = [("mean", ("x1",)), ("min", ("x1",)), ("ols_model", ("y", "x1"))]
        for key in keys:
            session.compute(*key)

        report = session.update_cells("x1", [(0, "abc")])

        assert relation.row(0)[1] == "abc" and len(session.view.history) == 1
        assert report.entries_visited == 3
        for key in keys:
            entry = session.view.summary.peek(*key)
            assert entry.stale and entry.maintainer is None, key
        assert report.invalidations == session.cache_stats.invalidations == 3
        # Put right, everything recomputes from the view.
        session.undo()
        assert session.compute("min", "x1") == 0.0
        assert session.fit_model("y", ["x1"]).n_used == 12
