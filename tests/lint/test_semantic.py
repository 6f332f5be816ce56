"""Seeded-violation tests for the semantic rule-soundness checks (layer 1).

Each test wires a deliberately broken registry/rule-repository and asserts
the corresponding REPRO-Sxxx rule fires with a usable message.
"""

import gc

import pytest

from repro.core.errors import RuleError
from repro.incremental.aggregates import IncrementalCount, IncrementalMean
from repro.incremental.differencing import IncrementalComputation
from repro.lint.semantic import (
    check_algebraic_definitions,
    check_computation_protocol,
    check_invalidation_paths,
    check_live_maintainers,
    check_order_statistics,
    check_registry_coherence,
    run_semantic_checks,
)
from repro.metadata.functions import FunctionRegistry, StatFunction
from repro.metadata.rules import RuleRepository
from repro.stats import descriptive as desc


@pytest.fixture
def registry():
    return FunctionRegistry()


def _mean(values):
    return desc.mean(values)


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestCoherence:
    def test_default_wiring_is_coherent(self, registry):
        findings = list(
            check_registry_coherence(registry, RuleRepository(registry))
        )
        assert findings == []

    def test_broken_rule_repository_reported(self, registry):
        class BrokenRepo:
            def rule_for(self, name):
                raise RuleError(f"no rule for {name!r}")

        findings = list(check_registry_coherence(registry, BrokenRepo()))
        assert findings  # one per registered function
        assert rule_ids(findings) == {"REPRO-S001"}
        assert any("rule_for('count')" in f.message for f in findings)

    def test_rule_without_rulekind_reported(self, registry):
        class KindlessRule:
            kind = "not-a-kind"

        class KindlessRepo:
            def rule_for(self, name):
                return KindlessRule()

        findings = list(check_registry_coherence(registry, KindlessRepo()))
        assert rule_ids(findings) == {"REPRO-S001"}


class TestLiveMaintainers:
    def test_default_wiring_has_live_maintainers(self, registry):
        findings = list(check_live_maintainers(registry, RuleRepository(registry)))
        assert findings == []

    def test_raising_factory_reported(self, registry):
        def exploding_factory(provider):
            raise RuntimeError("no maintainer here")

        registry.register(
            StatFunction("broken_inc", _mean, exploding_factory)
        )
        findings = list(check_live_maintainers(registry, RuleRepository(registry)))
        assert [f for f in findings if "broken_inc" in f.message]
        assert rule_ids(findings) == {"REPRO-S002"}

    def test_non_computation_maintainer_reported(self, registry):
        registry.register(
            StatFunction(
                "bogus_inc", _mean, lambda provider: object()
            )
        )
        findings = list(check_live_maintainers(registry, RuleRepository(registry)))
        assert any(
            "bogus_inc" in f.message and "not an IncrementalComputation" in f.message
            for f in findings
        )

    def test_divergent_maintainer_reported(self, registry):
        class WrongMean(IncrementalMean):
            @property
            def value(self):
                base = IncrementalMean.value.fget(self)
                return base if base is None else base + 1.0  # off by one

        def factory(provider):
            maintainer = WrongMean()
            maintainer.initialize(provider())
            return maintainer

        registry.register(
            StatFunction("drifting_mean", _mean, factory)
        )
        findings = list(check_live_maintainers(registry, RuleRepository(registry)))
        assert any(
            "drifting_mean" in f.message and "diverged" in f.message
            for f in findings
        )


class TestComputationProtocol:
    """REPRO-S005 walks live subclasses, so each fixture class is dropped
    (and collected) before the codebase-clean gate can see it."""

    @staticmethod
    def findings_for(cls):
        return [f for f in check_computation_protocol() if cls.__qualname__ in f.message]

    def test_shipped_maintainers_are_clean(self):
        assert list(check_computation_protocol()) == []

    def test_missing_fold_reported(self):
        class NoFold(IncrementalComputation):
            def reset(self):
                self.seen = 0

            @property
            def value(self):
                return self.seen

        try:
            [finding] = self.findings_for(NoFold)
            assert finding.rule_id == "REPRO-S005"
            assert "does not implement ['fold']" in finding.message
        finally:
            del NoFold
            gc.collect()

    def test_overriding_a_base_owned_entry_point_reported(self):
        class ForkedCount(IncrementalCount):
            def on_insert(self, value):  # a second copy of fold's arithmetic
                self._n += 1

            def apply_batch(self, deltas):
                return self.value

        try:
            [finding] = self.findings_for(ForkedCount)
            assert finding.rule_id == "REPRO-S005"
            assert "overrides ['on_insert', 'apply_batch']" in finding.message
        finally:
            del ForkedCount
            gc.collect()

    def test_value_override_on_a_concrete_maintainer_is_clean(self):
        class Doubled(IncrementalCount):
            @property
            def value(self):
                return 2 * self._n

        try:
            assert self.findings_for(Doubled) == []
        finally:
            del Doubled
            gc.collect()


class TestOrderStatistics:
    def test_default_wiring_uses_windows(self, registry):
        findings = list(check_order_statistics(registry, RuleRepository(registry)))
        assert findings == []

    def test_algebraic_median_reported(self, registry):
        # Seeding the paper's own trap: pretending finite differencing can
        # maintain an order statistic.
        def fake_factory(provider):
            maintainer = IncrementalMean()
            maintainer.initialize(provider())
            return maintainer

        registry.register(
            StatFunction("median", desc.median, fake_factory)
        )
        findings = list(check_order_statistics(registry, RuleRepository(registry)))
        assert rule_ids(findings) == {"REPRO-S003"}
        assert "median" in findings[0].message


class TestAlgebraicDefinitions:
    def test_shipped_definitions_sound(self):
        assert list(check_algebraic_definitions()) == []

    def test_rogue_operator_reported(self):
        findings = list(
            check_algebraic_definitions({"bad": ("sort", ("sum",))})
        )
        assert rule_ids(findings) == {"REPRO-S004"}

    def test_rogue_base_measure_reported(self):
        # _collect_measures rejects unknown heads, so an unknown *measure*
        # surfaces as an out-of-algebra definition either way.
        findings = list(
            check_algebraic_definitions({"bad": ("div", ("summax",), ("count",))})
        )
        assert rule_ids(findings) == {"REPRO-S004"}


class TestInvalidationPaths:
    def test_default_wiring_invalidates(self, registry):
        findings = list(
            check_invalidation_paths(registry, RuleRepository(registry))
        )
        assert findings == []

    def test_unencodable_result_reported(self, registry):
        class Opaque:
            pass

        registry.register(
            StatFunction(
                "opaque", lambda values: Opaque(), None
            )
        )
        findings = list(
            check_invalidation_paths(registry, RuleRepository(registry))
        )
        assert any(
            f.rule_id == "REPRO-S006" and "opaque" in f.message for f in findings
        )


    def test_every_rule_is_driven_at_the_rows_arity(self, registry):
        """A regenerate path that evaluates an n-attribute row over one
        column (``pearson() missing ... 'b'``) is reported for each such row
        — and only for them."""
        from repro.metadata.rules import RegenerateRule, RuleKind, RuleOutcome

        class OneColumnRegenerate(RegenerateRule):
            def apply(self, entry, delta, values_provider):
                entry.result = self.function.compute(list(values_provider()))
                entry.stale = False
                return RuleOutcome(kind=self.kind, recomputed=True)

        class Repo(RuleRepository):
            def rule_for(self, function_name, kind=None):
                found = super().rule_for(function_name, kind)
                if isinstance(found, RegenerateRule):
                    return OneColumnRegenerate(found.function)
                return found

        findings = list(check_invalidation_paths(registry, Repo(registry)))
        assert rule_ids(findings) == {"REPRO-S006"}
        broken = {name for name in registry.names() if registry.get(name).arity > 1}
        assert broken >= {"pearson", "crosstab", "ols_model"}
        for name in registry.names():
            reported = [f for f in findings if repr(name) in f.message]
            assert bool(reported) == (name in broken), name
            assert all("OneColumnRegenerate.apply failed" in f.message for f in reported)
        # The default wiring's answer for the same rows under each override.
        assert {
            RuleRepository(registry).rule_for("pearson", kind).kind for kind in RuleKind
        } == {RuleKind.REGENERATE, RuleKind.INVALIDATE}

    def test_a_rule_that_leaves_the_wrong_freshness_is_reported(self, registry):
        from repro.metadata.rules import InvalidateRule, RuleOutcome

        class Forgetful(InvalidateRule):
            def apply(self, entry, delta, values_provider):
                return RuleOutcome(kind=self.kind, marked_stale=True)  # entry untouched

        class Repo(RuleRepository):
            def rule_for(self, function_name, kind=None):
                found = super().rule_for(function_name, kind)
                return Forgetful(found.function) if isinstance(found, InvalidateRule) else found

        findings = list(check_invalidation_paths(registry, Repo(registry)))
        assert findings and all("Forgetful.apply left" in f.message for f in findings)


class TestRunner:
    def test_default_package_wiring_clean(self):
        assert run_semantic_checks() == []

    def test_select_restricts_rules(self, registry):
        class BrokenRepo:
            def rule_for(self, name):
                raise RuleError("broken")

        findings = run_semantic_checks(
            registry=registry, rules=BrokenRepo(), select={"REPRO-S005"}
        )
        assert findings == []  # S001 violations exist but were not selected

    def test_findings_have_anchors(self, registry):
        class BrokenRepo:
            def rule_for(self, name):
                raise RuleError("broken")

        findings = run_semantic_checks(registry=registry, rules=BrokenRepo())
        assert findings
        for finding in findings:
            assert finding.path
            assert finding.line >= 1
            rendered = finding.render()
            assert finding.rule_id in rendered and ":" in rendered
