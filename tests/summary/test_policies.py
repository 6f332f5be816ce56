"""Tests for consistency policies."""

import pytest

from repro.core.errors import AccuracyError
from repro.incremental.differencing import Delta
from repro.metadata.functions import FunctionRegistry
from repro.metadata.rules import RuleRepository
from repro.summary.policies import (
    InvalidatePolicy,
    PeriodicPolicy,
    PrecisePolicy,
    TolerantPolicy,
    make_policy,
)
from repro.summary.summarydb import SummaryDatabase


class Harness:
    """One cached mean over a mutable column, under a chosen policy."""

    def __init__(self, policy):
        self.registry = FunctionRegistry()
        self.rules = RuleRepository(self.registry)
        self.db = SummaryDatabase("v")
        self.policy = policy
        self.work = [1.0, 2.0, 3.0, 4.0]
        fn = self.registry.get("mean")
        maintainer = fn.make_maintainer(self.provider)
        self.entry = self.db.insert("mean", "x", maintainer.value, maintainer=maintainer)
        self.recomputes = 0

    def provider(self):
        return list(self.work)

    def update(self, index, new):
        old = self.work[index]
        self.work[index] = new
        rule = self.rules.rule_for("mean")
        return self.policy.on_update(
            self.db, self.entry, Delta(updates=[(old, new)]), rule, self.provider
        )

    def read(self):
        def recompute(entry):
            self.recomputes += 1
            entry.result = self.registry.get("mean").compute(self.work)
            entry.mark_fresh(0)
            if entry.maintainer is not None:
                entry.maintainer.initialize(self.work)
            return entry.result

        value, stale = self.policy.on_lookup(self.db, self.entry, recompute)
        return value, stale

    @property
    def true_mean(self):
        return sum(self.work) / len(self.work)


class TestPrecise:
    def test_always_exact(self):
        h = Harness(PrecisePolicy())
        for i, v in [(0, 10.0), (1, 20.0), (2, 0.5)]:
            h.update(i, v)
            value, stale = h.read()
            assert value == pytest.approx(h.true_mean)
            assert not stale
        assert h.recomputes == 0  # incremental rule did all the work
        assert h.db.stats.incremental_updates == 3


class TestInvalidate:
    def test_lazy_recompute(self):
        h = Harness(InvalidatePolicy())
        h.update(0, 10.0)
        h.update(1, 20.0)
        assert h.entry.stale
        value, _ = h.read()
        assert value == pytest.approx(h.true_mean)
        assert h.recomputes == 1  # one recompute despite two updates
        # A second read with no new updates stays cached.
        h.read()
        assert h.recomputes == 1


class TestPeriodic:
    def test_incremental_functions_stay_exact(self):
        h = Harness(PeriodicPolicy(period=5))
        h.update(0, 100.0)
        value, stale = h.read()
        assert value == pytest.approx(h.true_mean)
        assert not stale

    def test_regenerating_function_batches(self):
        """With a non-incremental rule, refreshes happen every k updates."""
        from repro.metadata.rules import RuleKind

        h = Harness(PeriodicPolicy(period=3))
        h.rules.set_rule("mean", RuleKind.REGENERATE)
        h.entry.maintainer = None
        h.update(0, 100.0)
        h.update(1, 100.0)
        assert h.entry.pending_updates == 2
        value, stale = h.read()
        assert stale  # served the lagging value
        h.update(2, 100.0)  # third update triggers the periodic refresh
        assert h.entry.pending_updates == 0
        value, stale = h.read()
        assert value == pytest.approx(h.true_mean)
        assert not stale

    def test_validation(self):
        with pytest.raises(AccuracyError):
            PeriodicPolicy(period=0)


class TestTolerant:
    def test_serves_stale_within_bound(self):
        h = Harness(TolerantPolicy(max_staleness=2))
        before = h.entry.result
        h.update(0, 100.0)
        value, stale = h.read()
        assert stale
        assert value == before  # the paper: one or two changes barely matter
        assert h.recomputes == 0

    def test_recomputes_past_bound(self):
        h = Harness(TolerantPolicy(max_staleness=2))
        for i in range(3):
            h.update(i, 100.0)
        value, stale = h.read()
        assert not stale
        assert value == pytest.approx(h.true_mean)
        assert h.recomputes == 1

    def test_validation(self):
        with pytest.raises(AccuracyError):
            TolerantPolicy(max_staleness=-1)


class TestEveryArityUnderOnePolicy:
    """The analyst's accuracy wish governs the write side of an entry over
    several attributes as it does a one-attribute one: a correlation and a
    MAD over the same attribute (both governed by the invalidate rule) age
    in step, and a fitted model is maintained exactly when a mean is."""

    @staticmethod
    def session(policy):
        from repro.core.session import AnalystSession
        from repro.metadata.management import ManagementDatabase
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema, measure
        from repro.views.view import ConcreteView

        rows = [(float(i), 3.0 * i + (i % 4), float((5 * i) % 7)) for i in range(30)]
        schema = Schema([measure("x"), measure("y"), measure("z")])
        view = ConcreteView("v", Relation("v", schema, rows))
        return AnalystSession(ManagementDatabase(), view, policy=policy)

    @pytest.mark.parametrize(
        "policy", [PeriodicPolicy(3), TolerantPolicy(5)], ids=lambda p: p.name
    )
    def test_a_pair_entry_ages_like_a_scalar_one(self, policy):
        session = self.session(policy)
        stats = session.cache_stats
        keys = [("mad", ("y",)), ("pearson", ("y", "x"))]
        for key in keys:
            session.compute(*key)
        for step in range(4):
            session.update_cells("y", [(step, -10.0 * step)])
            scalar, pair = (session.view.summary.peek(*key) for key in keys)
            assert (pair.stale, pair.pending_updates) == (
                scalar.stale,
                scalar.pending_updates,
            ), step
            if step % 2:  # the analyst looks: both are served the same way
                moves = []
                for key in keys:
                    before = (stats.stale_served, stats.recomputations)
                    session.compute(*key)
                    after = (stats.stale_served, stats.recomputations)
                    moves.append((after[0] - before[0], after[1] - before[1]))
                assert moves[0] == moves[1], step

    @pytest.mark.parametrize(
        "policy, maintained",
        [
            (PrecisePolicy(), True),
            (PeriodicPolicy(3), True),
            (InvalidatePolicy(), False),
            (TolerantPolicy(5), False),
        ],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_a_model_is_maintained_exactly_when_a_mean_is(self, policy, maintained):
        session = self.session(policy)
        stats = session.cache_stats
        session.compute("mean", "y")
        session.fit_model("y", ["x", "z"])
        report = session.update_cells("y", [(2, 50.0)])
        mean = session.view.summary.peek("mean", "y")
        model = session.view.summary.peek("ols_model", ("y", "x", "z"))
        assert model.stale == mean.stale == (not maintained)
        assert model.pending_updates == mean.pending_updates
        assert report.incremental_updates == (2 if maintained else 0)
        # The cache's own counter sees the model like the mean.
        assert stats.incremental_updates == report.incremental_updates


class TestFactory:
    def test_make_policy(self):
        assert make_policy("precise").name == "precise"
        assert make_policy("periodic", period=7).period == 7
        assert make_policy("tolerant", max_staleness=1).max_staleness == 1
        with pytest.raises(AccuracyError):
            make_policy("psychic")
