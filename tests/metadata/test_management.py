"""Tests for the Management Database."""

import pytest

from repro.core.errors import MetadataError
from repro.metadata.management import ManagementDatabase
from repro.summary.policies import PrecisePolicy, TolerantPolicy
from repro.views.history import UpdateHistory
from repro.views.materialize import SourceNode, ViewDefinition


def defn(name="v"):
    return ViewDefinition(name, SourceNode("census"))


class TestViews:
    def test_register_and_lookup(self):
        mdb = ManagementDatabase()
        history = UpdateHistory("v")
        mdb.register_view(defn(), history)
        assert mdb.view_definition("v").canonical() == "source(census)"
        assert mdb.view_history("v") is history
        assert mdb.view_names() == ["v"]

    def test_duplicate_rejected(self):
        mdb = ManagementDatabase()
        mdb.register_view(defn(), UpdateHistory("v"))
        with pytest.raises(MetadataError, match="already"):
            mdb.register_view(defn(), UpdateHistory("v"))

    def test_drop(self):
        mdb = ManagementDatabase()
        mdb.register_view(defn(), UpdateHistory("v"))
        mdb.set_policy("alice", "v", PrecisePolicy())
        mdb.drop_view("v")
        assert mdb.view_names() == []
        with pytest.raises(MetadataError):
            mdb.view_definition("v")

    def test_missing_lookups(self):
        mdb = ManagementDatabase()
        with pytest.raises(MetadataError):
            mdb.view_definition("x")
        with pytest.raises(MetadataError):
            mdb.view_history("x")


class TestPolicies:
    def test_specific_policy_wins(self):
        mdb = ManagementDatabase()
        tolerant = TolerantPolicy(max_staleness=3)
        mdb.set_policy("alice", "v", tolerant)
        assert mdb.policy_for("alice", "v") is tolerant
        # Another analyst on the same view gets the default.
        assert mdb.policy_for("bob", "v") is not tolerant

    def test_default_policy(self):
        mdb = ManagementDatabase()
        assert mdb.policy_for("anyone", "anyview").name == "precise"
        custom = TolerantPolicy()
        mdb.set_default_policy(custom)
        assert mdb.policy_for("anyone", "anyview") is custom


class TestDescribe:
    def test_inventory(self):
        mdb = ManagementDatabase()
        mdb.register_view(defn(), UpdateHistory("v"))
        mdb.set_policy("alice", "v", PrecisePolicy())
        info = mdb.describe()
        assert "mean" in info["functions"]
        assert info["rules"]["mean"] == "incremental"
        assert info["views"] == ["v"]
        assert info["policies"] == {"alice/v": "precise"}

    def test_force_rule_mode(self):
        from repro.metadata.rules import RuleKind

        mdb = ManagementDatabase(force_rule_mode=RuleKind.INVALIDATE)
        assert mdb.rules.describe()["mean"] == "invalidate"


class TestTheCatalogueIsTheWholeTruth:
    """SS4.1: "for each function we must retrieve from the Management
    Database the list of rules" — so everything a session caches must be
    named by a catalogue row, whichever public method cached it."""

    def test_every_cached_entry_resolves_to_a_row_and_a_rule(self):
        from repro.core.session import AnalystSession
        from repro.views.view import ConcreteView
        from repro.workloads.census import generate_microdata

        mdb = ManagementDatabase()
        view = ConcreteView("v", generate_microdata(300, seed=5, bad_value_rate=0.0))
        session = AnalystSession(mdb, view)
        session.compute("median", "INCOME")
        session.compute("quantile_90", "INCOME")
        session.compute_pair("spearman", "INCOME", "AGE")
        session.fit_model("INCOME", ["AGE", "YEARS_EDUCATION"])
        session.compute_crosstab("SEX", "RACE")
        session.compute_crosstab("SEX", "RACE", weight_attr="INCOME")
        session.annotate("INCOME", "top-coded at 250k")
        cached = [e for e in view.summary.entries() if not e.key.function.startswith("__")]
        assert len(cached) == 6
        for entry in cached:
            row = mdb.functions.get(entry.key.function)
            row.check(entry.key.attributes, view.schema.attribute)  # arity fits
            rule = mdb.rules.rule_for(entry.key.function)
            assert (entry.kind, entry.epsilon) == (row.summary_kind, row.epsilon)
            assert (entry.maintainer is not None) == row.is_incremental
            assert rule.kind.value == mdb.rules.describe().get(
                entry.key.function, "incremental"  # quantile_NN is synthesized
            )
        listed = mdb.rules.describe()
        assert {n: listed[n] for n in ("pearson", "spearman", "covariance", "crosstab")} == {
            n: "invalidate" for n in ("pearson", "spearman", "covariance", "crosstab")
        }
        assert listed["ols_model"] == "incremental"
