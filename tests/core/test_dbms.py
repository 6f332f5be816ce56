"""Tests for the StatisticalDBMS facade (Figure 3)."""

import pytest

from repro.core.accuracy import AccuracyLevel, AccuracyPreference
from repro.core.dbms import StatisticalDBMS
from repro.core.errors import ViewError
from repro.relational.expressions import col
from repro.views.materialize import SelectNode, SourceNode, ViewDefinition
from repro.workloads.census import figure1_dataset, generate_microdata


@pytest.fixture()
def dbms():
    db = StatisticalDBMS()
    db.load_raw(figure1_dataset("census"))
    db.load_raw(generate_microdata(500, seed=5, name="micro"))
    return db


class TestViewLifecycle:
    def test_materialize_from_tape(self, dbms):
        created = dbms.create_view(ViewDefinition("v", SourceNode("census")))
        assert created.from_tape
        assert len(created.view) == 9
        assert dbms.views_materialized == 1

    def test_identical_request_reuses(self, dbms):
        dbms.create_view(ViewDefinition("v1", SourceNode("census")), analyst="a")
        tape_before = dbms.raw.tape.stats.blocks_streamed
        created = dbms.create_view(ViewDefinition("v2", SourceNode("census")), analyst="b")
        assert created.reused is not None and created.reused.kind == "identical"
        assert created.view.name == "v1"
        assert dbms.raw.tape.stats.blocks_streamed == tape_before  # no tape
        assert dbms.views_reused == 1

    def test_derivable_request_avoids_tape(self, dbms):
        dbms.create_view(ViewDefinition("base", SourceNode("micro")))
        tape_before = dbms.raw.tape.stats.blocks_streamed
        created = dbms.create_view(
            ViewDefinition(
                "elders", SelectNode(SourceNode("micro"), col("AGE") > 60)
            )
        )
        assert created.reused is not None and created.reused.kind == "derivable"
        assert not created.from_tape
        assert dbms.raw.tape.stats.blocks_streamed == tape_before
        assert all(row[4] > 60 for row in created.view.relation)

    def test_allow_duplicate_forces_tape(self, dbms):
        dbms.create_view(ViewDefinition("v1", SourceNode("census")))
        created = dbms.create_view(
            ViewDefinition("v2", SourceNode("census")), allow_duplicate=True
        )
        assert created.from_tape
        assert dbms.views_materialized == 2

    def test_duplicate_name_rejected(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("census")))
        with pytest.raises(ViewError, match="already in use"):
            dbms.create_view(
                ViewDefinition("v", SourceNode("micro")), allow_duplicate=True
            )

    def test_drop_view(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("census")))
        dbms.drop_view("v")
        assert "v" not in dbms.registry.names()
        assert dbms.management.view_names() == []


class TestSessions:
    def test_session_computes(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("micro")))
        session = dbms.session("v", analyst="alice")
        assert session.compute("count", "INCOME") == 500

    def test_accuracy_preference_applied(self, dbms):
        pref = AccuracyPreference(AccuracyLevel.TOLERANT, parameter=3)
        dbms.create_view(
            ViewDefinition("v", SourceNode("micro")), analyst="alice", accuracy=pref
        )
        session = dbms.session("v", analyst="alice")
        assert session.policy.name == "tolerant"
        other = dbms.session("v", analyst="bob")
        assert other.policy.name == "precise"

    def test_mixed_policies_share_the_view(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("micro")), analyst="a")
        dbms.management.set_policy(
            "b", "v", AccuracyPreference(AccuracyLevel.TOLERANT, parameter=3).to_policy()
        )
        precise = dbms.session("v", analyst="a")
        tolerant = dbms.session("v", analyst="b")
        before = precise.compute("mean", "INCOME")
        tolerant.compute("mean", "INCOME")
        precise.update_cells("INCOME", [(0, 0.0)])
        # Precise sees the change; both share the same view data.
        assert precise.compute("mean", "INCOME") != before
        assert tolerant.view is precise.view


class TestPublishing:
    def test_publish_and_adopt(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("micro")), analyst="alice")
        alice = dbms.session("v", analyst="alice")
        alice.mark_invalid("AGE", predicate=col("AGE") > 150)
        dbms.publish("v", publisher="alice")
        adopted = dbms.adopt_published("v", "v_bob", analyst="bob")
        from repro.relational.types import is_na

        bad_rows = [i for i, v in enumerate(adopted.relation.column("AGE")) if is_na(v)]
        assert bad_rows  # bob inherits alice's cleaning
        assert adopted.owner == "bob"
        # Bob's view is private: his changes do not reach alice's.
        adopted.relation.set_value(0, "INCOME", -1.0)
        assert dbms.view("v").relation.column("INCOME")[0] != -1.0

    def test_describe(self, dbms):
        dbms.create_view(ViewDefinition("v", SourceNode("census")))
        info = dbms.describe()
        assert info["views"] == ["v"]
        assert info["views_materialized"] == 1
        assert "census" in info["raw_datasets"]


class TestAccuracyPreferences:
    def test_to_policy_mapping(self):
        from repro.core.accuracy import AccuracyPreference

        assert AccuracyPreference(AccuracyLevel.PRECISE).to_policy().name == "precise"
        assert AccuracyPreference(AccuracyLevel.LAZY).to_policy().name == "invalidate"
        periodic = AccuracyPreference(AccuracyLevel.PERIODIC, parameter=4).to_policy()
        assert periodic.period == 4
        tolerant = AccuracyPreference(AccuracyLevel.TOLERANT, parameter=2).to_policy()
        assert tolerant.max_staleness == 2

    def test_validation(self):
        from repro.core.errors import AccuracyError

        with pytest.raises(AccuracyError):
            AccuracyPreference(AccuracyLevel.PERIODIC, parameter=0).to_policy()
        with pytest.raises(AccuracyError):
            AccuracyPreference(AccuracyLevel.TOLERANT, parameter=-1).to_policy()
