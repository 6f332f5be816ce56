"""Tests for update rules and the rule repository."""

import pytest

from repro.core.errors import RuleError
from repro.incremental.differencing import Delta
from repro.metadata.functions import FunctionRegistry
from repro.metadata.rules import (
    IncrementalRule,
    InvalidateRule,
    RegenerateRule,
    RuleKind,
    RuleRepository,
)
from repro.summary.entries import SummaryEntry, SummaryKey


def make_entry(function="mean", attr="X", result=None):
    return SummaryEntry(key=SummaryKey(function, (attr,)), result=result)


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestIncrementalRule:
    def test_applies_delta(self, registry):
        work = [1.0, 2.0, 3.0]
        fn = registry.get("mean")
        entry = make_entry(result=2.0)
        entry.maintainer = fn.make_maintainer(lambda: work)
        rule = IncrementalRule(fn)
        work[0] = 7.0
        outcome = rule.apply(entry, Delta(updates=[(1.0, 7.0)]), lambda: work)
        assert outcome.incremental_changes == 1
        assert entry.result == pytest.approx(4.0)
        assert not entry.stale

    def test_builds_maintainer_lazily(self, registry):
        work = [1.0, 2.0, 3.0]
        fn = registry.get("mean")
        entry = make_entry(result=None)
        rule = IncrementalRule(fn)
        outcome = rule.apply(entry, Delta(updates=[(1.0, 1.0)]), lambda: work)
        # No prior maintainer: the rule initialized one from current data.
        assert outcome.recomputed
        assert entry.maintainer is not None
        assert entry.result == pytest.approx(2.0)

    def test_rebuilds_a_lost_model_maintainer_from_row_tuples(self, registry):
        rows = [(2.0 * i + (i % 3), float(i)) for i in range(8)]
        fn = registry.get("ols_model")
        entry = SummaryEntry(key=SummaryKey("ols_model", ("y", "x")), result=None)
        outcome = IncrementalRule(fn).apply(entry, Delta(), lambda: rows)
        assert outcome.recomputed and not entry.stale
        assert entry.result == pytest.approx(fn.compute(*zip(*rows)))
        # Fed (old row, new row) updates from then on.
        old, rows[3] = rows[3], (11.0, 3.0)
        outcome = IncrementalRule(fn).apply(
            entry, Delta(updates=[(old, rows[3])]), lambda: rows
        )
        assert outcome.incremental_changes == 1
        assert entry.result == pytest.approx(fn.compute(*zip(*rows)))

    def test_whatever_a_maintainer_raises_the_entry_goes_stale(self, registry):
        fn = registry.get("min")
        entry = make_entry("min", result=1.0)
        entry.maintainer = fn.make_maintainer(lambda: [1.0, 2.0])
        outcome = IncrementalRule(fn).apply(
            entry, Delta(updates=[(1.0, "abc")]), lambda: ["abc", 2.0]
        )
        assert outcome.marked_stale and entry.stale and entry.maintainer is None

    def test_rejects_non_incremental_function(self, registry):
        with pytest.raises(RuleError, match="no incremental form"):
            IncrementalRule(registry.get("trimmed_mean"))


class TestRegenerateRule:
    def test_recomputes(self, registry):
        rule = RegenerateRule(registry.get("mean"))
        entry = make_entry(result=99.0)
        entry.stale = True
        outcome = rule.apply(entry, Delta(), lambda: [2.0, 4.0])
        assert outcome.recomputed
        assert entry.result == 3.0
        assert not entry.stale


    def test_recomputes_an_entry_over_several_attributes(self, registry):
        rows = [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)]
        entry = SummaryEntry(key=SummaryKey("pearson", ("a", "b")), result=None)
        rule = RegenerateRule(registry.get("pearson"))
        assert rule.apply(entry, Delta(), lambda: rows).recomputed
        assert entry.result == registry.get("pearson").compute(*map(list, zip(*rows)))
        # No rows: still one (empty) column per attribute of the key.
        table = SummaryEntry(key=SummaryKey("crosstab", ("a", "b")), result=None)
        RegenerateRule(registry.get("crosstab")).apply(table, Delta(), lambda: [])
        assert table.result == ([], [], [])


class TestInvalidateRule:
    def test_marks_stale(self, registry):
        rule = InvalidateRule(registry.get("mean"))
        entry = make_entry(result=5.0)
        outcome = rule.apply(entry, Delta(updates=[(1.0, 2.0)]), lambda: [])
        assert outcome.marked_stale
        assert entry.stale
        assert entry.result == 5.0  # untouched until lazy recompute


class TestRepository:
    def test_defaults(self, registry):
        repo = RuleRepository(registry)
        assert repo.rule_for("mean").kind is RuleKind.INCREMENTAL
        assert repo.rule_for("median").kind is RuleKind.INCREMENTAL  # manual window
        assert repo.rule_for("trimmed_mean").kind is RuleKind.INVALIDATE

    def test_force_mode(self, registry):
        repo = RuleRepository(registry, force_mode=RuleKind.INVALIDATE)
        assert repo.rule_for("mean").kind is RuleKind.INVALIDATE

    def test_force_incremental_falls_back_to_regenerate(self, registry):
        repo = RuleRepository(registry, force_mode=RuleKind.INCREMENTAL)
        assert repo.rule_for("trimmed_mean").kind is RuleKind.REGENERATE

    def test_override_single_function(self, registry):
        repo = RuleRepository(registry)
        repo.set_rule("mean", RuleKind.REGENERATE)
        assert repo.rule_for("mean").kind is RuleKind.REGENERATE
        assert repo.rule_for("sum").kind is RuleKind.INCREMENTAL

    def test_rule_under_a_named_override(self, registry):
        repo = RuleRepository(registry)
        assert repo.rule_for("mean", RuleKind.INVALIDATE).kind is RuleKind.INVALIDATE
        assert repo.rule_for("pearson", RuleKind.INCREMENTAL).kind is RuleKind.REGENERATE
        assert repo.rule_for("mean").kind is RuleKind.INCREMENTAL  # nothing installed

    def test_override_validates_function(self, registry):
        repo = RuleRepository(registry)
        from repro.core.errors import FunctionError

        with pytest.raises(FunctionError):
            repo.set_rule("nonsense", RuleKind.INVALIDATE)

    def test_describe(self, registry):
        table = RuleRepository(registry).describe()
        assert table["mean"] == "incremental"
        assert table["mad"] == "invalidate"


class TestRepositoryDefaulting:
    """The paper's default wiring: incremental where a maintainer exists,
    the SS4.3 invalidation fallback otherwise — exhaustively, for every
    registered function."""

    def test_every_function_defaults_by_maintainer_presence(self, registry):
        repo = RuleRepository(registry)
        for name in registry.names():
            fn = registry.get(name)
            expected = (
                RuleKind.INCREMENTAL if fn.is_incremental else RuleKind.INVALIDATE
            )
            assert repo.rule_for(name).kind is expected, name

    def test_custom_function_with_maintainer_defaults_incremental(self, registry):
        from repro.incremental.aggregates import IncrementalSum
        from repro.metadata.functions import StatFunction

        def factory(provider):
            maintainer = IncrementalSum()
            maintainer.initialize(provider())
            return maintainer

        registry.register(
            StatFunction("double_sum", lambda v: 2 * sum(v), factory)
        )
        rule = RuleRepository(registry).rule_for("double_sum")
        assert rule.kind is RuleKind.INCREMENTAL
        assert isinstance(rule, IncrementalRule)

    def test_custom_function_without_maintainer_defaults_invalidate(self, registry):
        from repro.metadata.functions import StatFunction

        registry.register(
            StatFunction("opaque_stat", lambda v: 0.0, None)
        )
        rule = RuleRepository(registry).rule_for("opaque_stat")
        assert rule.kind is RuleKind.INVALIDATE
        assert isinstance(rule, InvalidateRule)

    def test_synthesized_quantiles_default_incremental(self, registry):
        repo = RuleRepository(registry)
        assert repo.rule_for("quantile_90").kind is RuleKind.INCREMENTAL

    def test_override_survives_describe(self, registry):
        repo = RuleRepository(registry)
        repo.set_rule("mean", RuleKind.INVALIDATE)
        assert repo.describe()["mean"] == "invalidate"
