"""Tests for the update-propagation pipeline."""

import pytest

from repro.core.propagation import UpdatePropagator
from repro.incremental.derived import GlobalDerivation, LocalDerivation, RefreshMode
from repro.incremental.differencing import Delta
from repro.metadata.management import ManagementDatabase
from repro.metadata.rules import RuleKind
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.stats.correlation import pearson
from repro.stats.regression import residual_computer
from repro.summary.policies import PrecisePolicy
from repro.views.view import ConcreteView


@pytest.fixture()
def setup():
    management = ManagementDatabase()
    schema = Schema([measure("x"), measure("y")])
    relation = Relation("v", schema, [(float(i), 2.0 * i + 1) for i in range(50)])
    view = ConcreteView("v", relation)
    propagator = UpdatePropagator(management, view, PrecisePolicy())
    return management, view, propagator


def seed_cache(management, view, function, attr):
    fn = management.functions.get(function)
    maintainer = (
        fn.make_maintainer(view.column_provider(attr)) if fn.is_incremental else None
    )
    return view.summary.insert(
        function,
        attr,
        fn.compute(view.column(attr)),
        maintainer=maintainer,
    )


def close(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(close, a, b))
    return a == (pytest.approx(b, rel=1e-8, abs=1e-8) if isinstance(b, float) else b)


def point_update(view, attr, row, new):
    old = view.relation.set_value(row, attr, new)
    return Delta(updates=[(old, new)]), [row]


class TestRuleDispatch:
    def test_incremental_entries_updated(self, setup):
        management, view, propagator = setup
        seed_cache(management, view, "mean", "x")
        seed_cache(management, view, "sum", "x")
        delta, rows = point_update(view, "x", 0, 100.0)
        report = propagator.propagate("x", delta, rows)
        assert report.entries_visited == 2
        assert report.incremental_updates == 2
        assert view.summary.peek("mean", "x").result == pytest.approx(
            sum(view.column("x")) / 50
        )

    def test_invalidate_rule_marks_stale(self, setup):
        management, view, propagator = setup
        seed_cache(management, view, "trimmed_mean", "x")  # no incremental form
        delta, rows = point_update(view, "x", 1, -5.0)
        report = propagator.propagate("x", delta, rows)
        assert report.invalidations == 1
        assert view.summary.peek("trimmed_mean", "x").stale

    def test_unrelated_attribute_untouched(self, setup):
        management, view, propagator = setup
        seed_cache(management, view, "mean", "y")
        delta, rows = point_update(view, "x", 0, 42.0)
        report = propagator.propagate("x", delta, rows)
        assert report.entries_visited == 0
        assert not view.summary.peek("mean", "y").stale

    def test_multi_attribute_entries_invalidated(self, setup):
        management, view, propagator = setup
        view.summary.insert("pearson", ("x", "y"), 0.99)
        # Update via the secondary attribute too.
        delta, rows = point_update(view, "y", 0, 42.0)
        report = propagator.propagate("y", delta, rows)
        assert report.invalidations == 1
        assert view.summary.peek("pearson", ("x", "y")).stale


    def test_a_delta_that_names_no_rows_sends_a_model_stale(self, setup):
        """A direct call whose delta is not cell-aligned (inserts, or no row
        per update) cannot be turned into row updates: the model goes stale,
        labelled, and gives up the maintainer that missed the change."""
        management, view, propagator = setup
        fn = management.functions.get("ols_model")
        view.summary.insert(
            "ols_model",
            ("y", "x"),
            fn.compute(view.column("y"), view.column("x")),
            maintainer=fn.make_maintainer(view.rows_provider(("y", "x"))),
        )
        delta, _ = point_update(view, "x", 0, 42.0)
        report = propagator.propagate("x", delta)  # no rows
        entry = view.summary.peek("ols_model", ("y", "x"))
        assert entry.stale and entry.maintainer is None
        assert (report.entries_visited, report.invalidations) == (1, 1)
        # The next aligned action rebuilds it from the view.
        delta, rows = point_update(view, "y", 1, -3.0)
        report = propagator.propagate("y", delta, rows)
        assert report.recomputations == 1 and not entry.stale
        assert close(entry.result, fn.compute(view.column("y"), view.column("x")))


class TestRulesDecideForEveryArity:
    """The Management Database's rule governs an entry over several
    attributes exactly as it does a one-attribute one (SS4.1)."""

    KEYS = [
        ("pearson", ("y", "x")),
        ("crosstab", ("g", "h")),
        ("crosstab", ("g", "h", "x")),
        ("ols_model", ("y", "x", "z")),
    ]

    def session(self, **management):
        from repro.core.session import AnalystSession
        from repro.relational.schema import category

        schema = Schema([category("g"), category("h"), measure("x"), measure("y"), measure("z")])
        rows = [
            (i % 3, i % 2, float(i), 2.0 * i + (i % 5), float((7 * i) % 11))
            for i in range(40)
        ]
        view = ConcreteView("v", Relation("v", schema, rows))
        return AnalystSession(ManagementDatabase(**management), view)

    def recomputed(self, session, key):
        function = session.management.functions.get(key[0])
        return function.compute(*(session.view.relation.column(a) for a in key[1]))

    def test_regenerate_rule_recomputes_a_pair_entry(self):
        session = self.session()
        session.management.rules.set_rule("pearson", RuleKind.REGENERATE)
        session.management.rules.set_rule("mad", RuleKind.REGENERATE)
        session.compute("mad", "y")
        session.compute_pair("pearson", "y", "x")
        report = session.update_cells("y", [(3, -50.0), (4, 80.0)])
        assert report.recomputations == 2 and report.invalidations == 0
        entry = session.view.summary.peek("pearson", ("y", "x"))
        assert not entry.stale
        assert entry.result == pytest.approx(
            pearson(session.view.column("y"), session.view.column("x"))
        )

    def test_invalidate_rule_sends_a_model_stale(self):
        session = self.session()
        session.management.rules.set_rule("ols_model", RuleKind.INVALIDATE)
        session.compute("mean", "y")
        session.fit_model("y", ["x", "z"])
        report = session.update_cells("y", [(3, -50.0)])
        assert (report.incremental_updates, report.invalidations) == (1, 1)
        assert session.view.summary.peek("ols_model", ("y", "x", "z")).stale
        assert not session.view.summary.peek("mean", "y").stale

    @pytest.mark.parametrize("kind", list(RuleKind), ids=lambda kind: kind.value)
    def test_force_mode_reaches_every_arity(self, kind):
        session = self.session(force_rule_mode=kind)
        for key in self.KEYS:
            session.compute(*key)
        # Two inputs of every entry but the unweighted table, in one action.
        report = session.update(col("x") < 6.0, {"x": col("x") + 0.5, "g": 1})
        assert report.entries_visited == len(self.KEYS)
        for key in self.KEYS:
            entry = session.view.summary.peek(*key)
            assert entry.stale == (kind is RuleKind.INVALIDATE), key
            if not entry.stale:
                assert close(entry.result, self.recomputed(session, key)), key
        stats = session.cache_stats
        assert report.invalidations == stats.invalidations
        assert report.incremental_updates == stats.incremental_updates
        assert report.recomputations == stats.recomputations
        # Forcing incremental maintains what has a maintainer (the model)
        # and regenerates the rest.
        maintained = 1 if kind is RuleKind.INCREMENTAL else 0
        assert report.incremental_updates == maintained

    def test_an_entry_naming_one_attribute_twice(self):
        session = self.session()
        session.management.rules.set_rule("pearson", RuleKind.REGENERATE)
        keys = [("pearson", ("x", "x")), ("ols_model", ("x", "x", "z"))]
        for key in keys:
            session.compute(*key)
        # Both positions of the key change, in a burst naming the row twice.
        report = session.update_cells("x", [(0, 99.0), (0, 7.5)])
        assert report.entries_visited == 2
        assert (report.recomputations, report.incremental_updates) == (1, 1)
        for key in keys:
            entry = session.view.summary.peek(*key)
            assert not entry.stale and close(entry.result, self.recomputed(session, key))


class TestDerivedCascade:
    def test_local_derivation_updated_and_its_cache_invalidated(self, setup):
        management, view, propagator = setup
        view.add_derived_column(LocalDerivation("double_x", col("x") * 2))
        seed_cache(management, view, "mean", "double_x")
        delta, rows = point_update(view, "x", 3, 100.0)
        report = propagator.propagate("x", delta, rows)
        assert report.derived_columns_touched == ["double_x"]
        assert view.column("double_x")[3] == 200.0
        assert view.summary.peek("mean", "double_x").stale

    def test_global_derivation_regenerated(self, setup):
        management, view, propagator = setup
        view.add_derived_column(
            GlobalDerivation(
                "resid", ["x", "y"], residual_computer("y", ["x"]), RefreshMode.EAGER
            )
        )
        delta, rows = point_update(view, "y", 5, 999.0)
        report = propagator.propagate("y", delta, rows)
        assert "resid" in report.derived_columns_touched
        assert abs(view.column("resid")[5]) > 100


class TestReports:
    def test_pages_touched_counted(self, setup):
        management, view, propagator = setup
        for fn in ("mean", "min", "max", "sum", "count"):
            seed_cache(management, view, fn, "x")
        delta, rows = point_update(view, "x", 0, 7.0)
        report = propagator.propagate("x", delta, rows)
        assert report.summary_pages_touched >= 1

    def test_propagate_all_merges(self, setup):
        management, view, propagator = setup
        seed_cache(management, view, "mean", "x")
        seed_cache(management, view, "mean", "y")
        dx, rx = point_update(view, "x", 0, 1.5)
        dy, ry = point_update(view, "y", 0, 2.5)
        report = propagator.propagate_all(
            {"x": dx, "y": dy}, {"x": rx, "y": ry}
        )
        assert sorted(report.attributes) == ["x", "y"]
        assert report.entries_visited == 2
