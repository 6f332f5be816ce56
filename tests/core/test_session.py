"""Tests for analyst sessions: the cached compute/update/undo loop."""

import random
import statistics

import pytest

from repro.core.errors import FunctionError
from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.relational.expressions import col
from repro.relational.types import is_na
from repro.summary.policies import InvalidatePolicy, PrecisePolicy, TolerantPolicy
from repro.views.view import ConcreteView
from repro.workloads.census import generate_microdata


@pytest.fixture()
def session():
    management = ManagementDatabase()
    relation = generate_microdata(2000, seed=11, bad_value_rate=0.0)
    view = ConcreteView("income_study", relation)
    return AnalystSession(management, view, analyst="bates")


def true_column(session, attr):
    return [v for v in session.view.relation.column(attr) if not is_na(v)]


def recomputed(session, key):
    """The catalogue row's batch evaluator over the view as it stands."""
    function = session.management.functions.get(key[0])
    return function.compute(*(session.view.relation.column(a) for a in key[1]))


def close(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(close, a, b))
    return a == (pytest.approx(b, rel=1e-9) if isinstance(b, float) else b)


class TestCachedCompute:
    def test_miss_then_hit(self, session):
        first = session.compute("median", "INCOME")
        second = session.compute("median", "INCOME")
        assert first == second
        assert session.stats.queries == 2
        assert session.stats.cache_hits == 1
        assert session.cache_stats.hits == 1

    def test_hit_scans_no_rows(self, session):
        session.compute("mean", "INCOME")
        scanned = session.stats.rows_scanned
        session.compute("mean", "INCOME")
        assert session.stats.rows_scanned == scanned

    def test_values_correct(self, session):
        income = true_column(session, "INCOME")
        assert session.compute("mean", "INCOME") == pytest.approx(statistics.fmean(income))
        assert session.compute("median", "INCOME") == pytest.approx(statistics.median(income))
        assert session.compute("min", "AGE") == min(true_column(session, "AGE"))

    def test_quantiles(self, session):
        import numpy as np

        income = true_column(session, "INCOME")
        assert session.compute("quantile_95", "INCOME") == pytest.approx(
            float(np.quantile(income, 0.95))
        )

    def test_category_attribute_rejected(self, session):
        """SS3.2: summary values of encoded categories make no sense."""
        with pytest.raises(FunctionError, match="not meaningful"):
            session.compute("median", "RACE")
        # ... but counting them is fine, and force overrides.
        session.compute("unique_count", "RACE")
        session.compute("median", "RACE", force=True)

    def test_sampled_compute_uncached(self, session):
        full = session.compute("mean", "INCOME")
        sampled = session.compute("mean", "INCOME", sample=0.05, seed=3)
        assert session.stats.sampled_queries == 1
        assert abs(sampled - full) / full < 0.25  # rough but in the ballpark
        # Sampling never pollutes the cache.
        assert session.view.summary.lookup("mean", "INCOME").result == pytest.approx(full)

    def test_pair_functions_cached(self, session):
        first = session.compute_pair("pearson", "INCOME", "YEARS_EDUCATION")
        second = session.compute_pair("pearson", "INCOME", "YEARS_EDUCATION")
        assert first == second
        assert session.stats.cache_hits == 1
        assert first > 0.1  # education drives income in the generator

    def test_unknown_pair_function(self, session):
        with pytest.raises(FunctionError):
            session.compute_pair("mutual_information", "AGE", "INCOME")

    def test_wrong_attribute_count_says_so(self, session):
        with pytest.raises(FunctionError, match=r"'pearson' takes 2 attribute\(s\), got 1"):
            session.compute("pearson", "INCOME")
        with pytest.raises(FunctionError, match=r"'mean' takes 1 attribute\(s\), got 2"):
            session.compute_pair("mean", "AGE", "INCOME")
        with pytest.raises(FunctionError, match="2 or more"):
            session.fit_model("INCOME", [])
        assert len(session.view.summary) == 0

    def test_compute_takes_a_key_of_any_arity(self, session):
        pair = session.compute_pair("pearson", "INCOME", "YEARS_EDUCATION")
        assert session.compute("pearson", ("INCOME", "YEARS_EDUCATION")) == pair
        assert session.compute("mean", ("INCOME",)) == session.compute("mean", "INCOME")
        assert session.stats.cache_hits == 2
        # A sample draws one set of rows for every column of the key.
        sampled = session.compute(
            "pearson", ("INCOME", "YEARS_EDUCATION"), sample=0.5, seed=3
        )
        assert sampled == pytest.approx(pair, abs=0.1)

    def test_summary_of_block(self, session):
        block = session.summary_of("INCOME")
        assert set(block) >= {"count", "min", "max", "mean", "std", "median"}
        # All cached now: repeating is free.
        scanned = session.stats.rows_scanned
        session.summary_of("INCOME")
        assert session.stats.rows_scanned == scanned


class TestUpdatePropagation:
    def test_incremental_exactness(self, session):
        session.compute("mean", "INCOME")
        session.compute("std", "INCOME")
        session.compute("median", "INCOME")
        session.update_cells("INCOME", [(10, 99999.0), (20, 1.0)])
        income = true_column(session, "INCOME")
        assert session.compute("mean", "INCOME") == pytest.approx(statistics.fmean(income))
        assert session.compute("std", "INCOME") == pytest.approx(statistics.stdev(income))
        assert session.compute("median", "INCOME") == pytest.approx(statistics.median(income))
        # All three answered without recomputation.
        assert session.cache_stats.recomputations == 0
        assert session.cache_stats.incremental_updates > 0

    def test_predicate_update(self, session):
        session.compute("max", "HOURS_WORKED")
        report = session.update(col("HOURS_WORKED") > 70, {"HOURS_WORKED": 70.0})
        assert report.entries_visited >= 1
        assert session.compute("max", "HOURS_WORKED") == 70.0

    def test_update_only_touches_affected_attribute(self, session):
        session.compute("mean", "INCOME")
        session.compute("mean", "AGE")
        report = session.update_cells("AGE", [(0, 55)])
        assert report.attributes == ["AGE"]
        assert report.entries_visited == 1

    def test_mark_invalid_flows_to_na_count(self, session):
        session.compute("na_count", "AGE")
        session.mark_invalid("AGE", predicate=col("AGE") > 80)
        expected = sum(1 for v in session.view.relation.column("AGE") if is_na(v))
        assert session.compute("na_count", "AGE") == expected
        assert expected > 0

    def test_pair_entries_invalidated_on_update(self, session):
        session.compute_pair("pearson", "INCOME", "YEARS_EDUCATION")
        session.update_cells("YEARS_EDUCATION", [(5, 20)])
        entry = session.view.summary.peek("pearson", ("INCOME", "YEARS_EDUCATION"))
        assert entry.stale
        value = session.compute_pair("pearson", "INCOME", "YEARS_EDUCATION")
        from repro.stats.correlation import pearson

        assert value == pytest.approx(
            pearson(
                session.view.relation.column("INCOME"),
                session.view.relation.column("YEARS_EDUCATION"),
            )
        )


class TestAccuracyPolicyOnEveryArity:
    """SS3.2's accuracy preference governs a hit on any entry: the loop asks
    ``policy.on_lookup`` whatever the key's arity."""

    KEYS = [
        ("mean", ("INCOME",)),
        ("pearson", ("INCOME", "YEARS_EDUCATION")),
        ("crosstab", ("SEX", "RACE", "INCOME")),
        ("ols_model", ("INCOME", "AGE", "YEARS_EDUCATION")),
    ]

    def session_with(self, policy):
        relation = generate_microdata(500, seed=11, bad_value_rate=0.0)
        return AnalystSession(
            ManagementDatabase(), ConcreteView("v", relation), policy=policy
        )

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key[0])
    def test_tolerant_serves_stale_within_its_bound(self, key):
        session = self.session_with(TolerantPolicy(max_staleness=5))
        stats = session.cache_stats
        before = session.compute(*key)
        session.update_cells("INCOME", [(0, 1.0)])
        scanned = session.stats.rows_scanned
        assert session.compute(*key) == before  # one pending update: served
        assert (stats.stale_served, stats.recomputations) == (1, 0)
        assert session.stats.rows_scanned == scanned
        session.update_cells("INCOME", [(i, 2.0 * i) for i in range(1, 6)])
        after = session.compute(*key)  # six pending: past the bound
        assert (stats.stale_served, stats.recomputations) == (1, 1)
        assert after != before
        assert close(after, recomputed(session, key))

    @pytest.mark.parametrize("policy", [PrecisePolicy, InvalidatePolicy])
    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key[0])
    def test_exact_policies_return_the_recomputed_value(self, key, policy):
        session = self.session_with(policy())
        session.compute(*key)
        session.update_cells("INCOME", [(0, 1.0), (3, 77_000.0)])
        assert close(session.compute(*key), recomputed(session, key))
        assert session.cache_stats.stale_served == 0


class TestRowsFromHistoryMerge:
    """Regression: several operations in one action may touch the same
    attribute; propagation must see *all* their rows — a later operation
    silently replacing the earlier one's rows left derived cells and
    row-wise model maintainers behind."""

    def test_rows_merge_across_operations(self, session):
        from repro.incremental.derived import LocalDerivation

        view = session.view
        view.add_derived_column(LocalDerivation("AGE_X2", col("AGE") * 2))
        session.update_cells("AGE", [(1, 31), (2, 41)])
        session.update_cells("AGE", [(5, 51)])
        recomputed = view.derived.derivation("AGE_X2").stats.cell_recomputes
        # One action, two operations on AGE: every row of both reaches the
        # derived-column recompute.
        report = session.undo(2)
        assert report.attributes == ["AGE"]
        assert report.derived_columns_touched == ["AGE_X2"]
        assert view.derived.derivation("AGE_X2").stats.cell_recomputes == recomputed + 3
        ages, doubled = view.relation.column("AGE"), view.relation.column("AGE_X2")
        for row in (1, 2, 5):
            assert doubled[row] == 2 * ages[row]

    def test_merge_keeps_other_attributes(self, session):
        names = ("INCOME", "AGE", "YEARS_EDUCATION")
        session.fit_model(names[0], names[1:])
        session.update_cells("AGE", [(0, 33)])
        session.update_cells("HOURS_WORKED", [(3, 12.0)])
        session.update_cells("AGE", [(7, 44), (9, 55)])
        # AGE, HOURS_WORKED, AGE in one action: the model's row-wise
        # maintainer is fed rows 7, 9 *and* 0, and stays warm and exact.
        report = session.undo(3)
        assert report.attributes == ["AGE", "HOURS_WORKED"]
        entry = session.view.summary.peek("ols_model", names)
        assert not entry.stale
        warm = session.fit_model(names[0], names[1:])
        session.view.summary.mark_stale(entry)
        refit = session.fit_model(names[0], names[1:])
        assert warm.coefficients == pytest.approx(refit.coefficients, rel=1e-6)

    def test_two_changed_inputs_of_one_model_refit(self, session):
        """An action that rewrites two inputs of a fitted model reaches it
        as one (old row, new row) delta — each old cell the first value the
        action recorded for it — so the model stays warm and equals a
        forced refit."""
        names = ("INCOME", "AGE", "YEARS_EDUCATION")
        session.fit_model(names[0], names[1:])
        report = session.update(
            col("AGE") > 60, {"INCOME": col("INCOME") * 1.5, "AGE": col("AGE") - 3}
        )
        assert report.incremental_updates == 1 and report.recomputations == 0
        assert not session.view.summary.peek("ols_model", names).stale
        served = session.fit_model(names[0], names[1:])
        session.view.summary.mark_stale(session.view.summary.peek("ols_model", names))
        refit = session.fit_model(names[0], names[1:])
        assert served.coefficients == pytest.approx(refit.coefficients, rel=1e-8)


class TestUndoOfARepeatedCell:
    """Regression: an operation that wrote one cell twice is undone newest
    change first — to the value the cell held before the operation, not to
    its intermediate one — and the cache follows the view."""

    def test_cached_mean_and_warm_model_equal_recompute(self, session):
        names = ("INCOME", "AGE", "YEARS_EDUCATION")
        view = session.view
        before = view.relation.row(0)
        session.compute("mean", "INCOME")
        session.fit_model(names[0], names[1:])
        session.update_cells("INCOME", [(0, 10.0), (0, 20.0)])
        session.update_cells("AGE", [(0, 91), (3, 18), (0, 92)])
        report = session.undo(2)
        assert view.relation.row(0) == before
        assert report.incremental_updates == 2 and report.invalidations == 0
        mean, model = (view.summary.peek(*key) for key in (("mean", "INCOME"), ("ols_model", names)))
        assert not mean.stale and not model.stale
        assert close(mean.result, recomputed(session, ("mean", ("INCOME",))))
        assert model.result == pytest.approx(
            recomputed(session, ("ols_model", names)), rel=1e-8
        )


class TestMaintenanceEqualsReEvaluation:
    """The contract for every arity at once: after any action of a seeded
    stream — two-input predicate updates, bursts naming a row twice, NA
    marks, undos — every fresh entry equals its catalogue row evaluated over
    the view, and the fitted model stays fresh without ever being refitted."""

    KEYS = [
        ("mean", ("y",)),
        ("median", ("x1",)),
        ("pearson", ("y", "x1")),
        ("crosstab", ("g", "h", "y")),
        ("ols_model", ("y", "x1", "x2")),
    ]
    ROWS = 60
    STEPS = 240

    def test_seeded_action_stream(self):
        from repro.obs.tracer import Tracer
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema, category, measure
        from repro.relational.types import DataType
        from tests.action_stream import action_stream, apply

        rng = random.Random("maintenance-equals-re-evaluation")
        schema = Schema(
            [measure("id", DataType.INT), category("g"), category("h")]
            + [measure(name) for name in ("y", "x1", "x2")]
        )
        rows = [
            (i, i % 3, rng.randrange(2), *(round(rng.uniform(-60, 60), 3) for _ in "yxx"))
            for i in range(self.ROWS)
        ]
        tracer = Tracer()
        session = AnalystSession(
            ManagementDatabase(),
            ConcreteView("v", Relation("v", schema, rows)),
            policy=PrecisePolicy(),
            tracer=tracer,
        )
        for key in self.KEYS:
            session.compute(*key)
        model = session.view.summary.peek(*self.KEYS[-1])
        maintainer = model.maintainer
        stream = action_stream(rng, ("y", "x1", "x2"), self.ROWS, self.STEPS)
        for number, step in enumerate(stream):
            apply(session, step)
            for key in self.KEYS:
                entry = session.view.summary.peek(*key)
                if entry is model:
                    assert entry.result == pytest.approx(
                        recomputed(session, key), rel=1e-8
                    ), (number, step)
                elif not entry.stale:
                    assert close(entry.result, recomputed(session, key)), (number, step, key)
            assert not model.stale and model.maintainer is maintainer, (number, step)
            if number % 10 == 9:  # the analyst looks: stale entries recompute
                for key in self.KEYS:
                    assert close(session.compute(*key), recomputed(session, key))
        assert tracer.total("rule.ols_model.incremental") > self.STEPS // 2
        assert tracer.total("rule.ols_model.recompute") == 0
        assert tracer.total("rule.ols_model.invalidate") == 0
        assert tracer.total("summary.refresh.ols_model") == 0


class TestMarkInvalidRows:
    """Regression: a mark_invalid that matches no rows records nothing, so
    it logs and propagates nothing — in particular not the rows of whatever
    unrelated operation the history log happens to end with."""

    def test_no_match_on_pristine_view(self, session):
        session.compute_pair("pearson", "AGE", "INCOME")
        report = session.mark_invalid("AGE", predicate=col("AGE") > 10_000)
        assert report.attributes == [] and report.entries_visited == 0
        assert len(session.view.history) == 0
        # Nothing changed, so nothing went stale (and a recovered system,
        # which replays only logged operations, agrees).
        assert not session.view.summary.peek("pearson", ("AGE", "INCOME")).stale

    def test_no_match_ignores_unrelated_history(self, session):
        from repro.incremental.derived import LocalDerivation

        session.view.add_derived_column(LocalDerivation("AGE_X2", col("AGE") * 2))
        session.update_cells("INCOME", [(0, 123.0)])
        session.mark_invalid("AGE", predicate=col("AGE") > 10_000)
        # A zero-match invalidation must not recompute derived cells using
        # the rows of the preceding (INCOME) operation.
        derivation = session.view.derived.derivation("AGE_X2")
        assert derivation.stats.cell_recomputes == 0


class TestUndo:
    def test_undo_restores_cache_exactly(self, session):
        before_mean = session.compute("mean", "INCOME")
        before_median = session.compute("median", "INCOME")
        session.update_cells("INCOME", [(3, 1.0), (4, 2.0)])
        session.update_cells("INCOME", [(5, 3.0)])
        session.undo(1)
        session.undo(1)
        assert session.compute("mean", "INCOME") == pytest.approx(before_mean)
        assert session.compute("median", "INCOME") == pytest.approx(before_median)
        # Versions are a monotonic high-water mark; undo empties the log
        # without reissuing the undone version numbers.
        assert session.view.history.operations() == []
        assert session.view.version == 2

    def test_undo_predicate_update(self, session):
        original = list(session.view.relation.column("HOURS_WORKED"))
        session.compute("mean", "HOURS_WORKED")
        session.update(col("HOURS_WORKED") > 50, {"HOURS_WORKED": 50.0})
        session.undo(1)
        assert session.view.relation.column("HOURS_WORKED") == original
        assert session.compute("mean", "HOURS_WORKED") == pytest.approx(
            statistics.fmean(true_column(session, "HOURS_WORKED"))
        )
