"""Sketch & model summary entries through checkpoint, crash, and recovery.

ISSUE 9 satellite: a checkpoint persists sketch/model maintainer state
(:data:`repro.durability.checkpoint.SKETCH_KINDS`), recovery rebuilds the
entries *exactly* — including replaying post-checkpoint WAL deltas
through the restored maintainers — or marks them stale.  Never silently
wrong.
"""

import statistics

import pytest

from repro.core.dbms import StatisticalDBMS
from repro.core.errors import InjectedFault
from repro.durability.checkpoint import SKETCH_KINDS, restore_summary_entries
from repro.durability.faults import FaultInjector, FaultPlan
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.incremental.sketches import HyperLogLog, ReservoirSample, TDigest
from repro.relational.types import is_na
from repro.stats.models import IncrementalLinearRegression
from repro.stats.regression import fit_ols
from repro.summary.summarydb import SummaryDatabase
from repro.views.materialize import SourceNode, ViewDefinition

from tests.durability.helpers import people_relation

ROWS = 10
SKETCH_STATS = ("approx_median", "approx_distinct", "reservoir")


def make_dbms(directory, injector=None):
    manager = DurabilityManager(directory, faults=injector)
    dbms = StatisticalDBMS(durability=manager)
    dbms.load_raw(people_relation(ROWS))
    dbms.create_view(ViewDefinition("v1", SourceNode("people")))
    return dbms


def warm_session(dbms):
    session = dbms.session("v1")
    for fn in SKETCH_STATS:
        session.compute(fn, "x")
    session.fit_model("x", ["id"])
    return session


class TestRoundTrip:
    def test_sketch_entries_round_trip(self, tmp_path):
        dbms = make_dbms(tmp_path)
        warm_session(dbms)
        dbms.checkpoint()
        dbms.durability.close()
        recovered, _ = recover(tmp_path)
        summary = recovered.view("v1").summary
        median_entry = summary.peek("approx_median", "x")
        assert not median_entry.stale
        assert median_entry.kind == "sketch"
        assert median_entry.epsilon is not None
        assert isinstance(median_entry.maintainer, TDigest)
        assert median_entry.maintainer.value == pytest.approx(
            statistics.median(range(ROWS))
        )
        distinct_entry = summary.peek("approx_distinct", "x")
        assert isinstance(distinct_entry.maintainer, HyperLogLog)
        assert distinct_entry.maintainer.value == ROWS
        reservoir_entry = summary.peek("reservoir", "x")
        assert isinstance(reservoir_entry.maintainer, ReservoirSample)
        assert sorted(reservoir_entry.maintainer.value) == sorted(
            float(i) for i in range(ROWS)
        )

    def test_model_entry_round_trips_and_stays_warm(self, tmp_path):
        dbms = make_dbms(tmp_path)
        before = warm_session(dbms).fit_model("x", ["id"])
        dbms.checkpoint()
        dbms.durability.close()
        recovered, _ = recover(tmp_path)
        entry = recovered.view("v1").summary.peek("ols_model", ("x", "id"))
        assert not entry.stale
        assert entry.kind == "model"
        assert isinstance(entry.maintainer, IncrementalLinearRegression)
        session = recovered.session("v1")
        restored = session.fit_model("x", ["id"])
        assert list(restored.coefficients) == pytest.approx(
            list(before.coefficients), rel=1e-12
        )
        # The restored maintainer must keep absorbing row-wise updates.
        session.update_cells("x", [(3, 77.5)])
        assert not entry.stale
        warm = session.fit_model("x", ["id"])
        reference = fit_ols(session.view.relation, "x", ["id"])
        assert list(warm.coefficients) == pytest.approx(
            list(reference.coefficients), rel=1e-8
        )

    def test_post_checkpoint_wal_replays_through_restored_sketches(self, tmp_path):
        dbms = make_dbms(tmp_path)
        session = warm_session(dbms)
        dbms.checkpoint()
        session.update_cells("x", [(0, 42.0), (5, -3.25)])
        dbms.durability.close()
        recovered, _ = recover(tmp_path)
        view = recovered.view("v1")
        entry = view.summary.peek("approx_median", "x")
        if not entry.stale:
            exact = statistics.median(view.column("x"))
            assert entry.result == pytest.approx(exact)
        distinct = view.summary.peek("approx_distinct", "x")
        if not distinct.stale:
            assert distinct.result == len(set(view.column("x")))


class TestNeverSilentlyWrong:
    def _record(self, **overrides):
        digest = TDigest()
        digest.absorb([1.0, 2.0, 3.0])
        from repro.summary.entries import encode_result

        record = {
            "function": "approx_median",
            "attributes": ["x"],
            "result": encode_result(2.0).hex(),
            "stale": False,
            "version": 1,
            "pending": 0,
            "compute_cost_rows": 3,
            "kind": "sketch",
            "maintainer": {"kind": "tdigest", "state": digest.to_state()},
        }
        record.update(overrides)
        return record

    def test_known_kind_restores_live(self):
        summary = SummaryDatabase(view_name="v")
        restore_summary_entries(summary, [self._record()])
        entry = summary.peek("approx_median", "x")
        assert not entry.stale
        assert isinstance(entry.maintainer, TDigest)
        assert entry.maintainer.value == pytest.approx(2.0)

    def test_unknown_kind_restores_stale_and_detached(self):
        summary = SummaryDatabase(view_name="v")
        record = self._record(maintainer={"kind": "bogus", "state": {}})
        restore_summary_entries(summary, [record])
        entry = summary.peek("approx_median", "x")
        assert entry.stale
        assert entry.maintainer is None

    def test_corrupt_state_restores_stale_and_detached(self):
        summary = SummaryDatabase(view_name="v")
        record = self._record(
            maintainer={"kind": "tdigest", "state": {"garbage": True}}
        )
        restore_summary_entries(summary, [record])
        entry = summary.peek("approx_median", "x")
        assert entry.stale
        assert entry.maintainer is None

    def test_maintainer_lost_flag_restores_stale(self):
        summary = SummaryDatabase(view_name="v")
        record = self._record(maintainer_lost=True)
        del record["maintainer"]
        restore_summary_entries(summary, [record])
        assert summary.peek("approx_median", "x").stale

    def test_an_observed_error_key_from_older_snapshots_is_ignored(self):
        summary = SummaryDatabase(view_name="v")
        restore_summary_entries(summary, [self._record(observed_error=0.01)])
        entry = summary.peek("approx_median", "x")
        assert not entry.stale
        assert entry.result == 2.0
        assert not hasattr(entry, "observed_error")

    def test_registry_covers_all_families(self):
        assert set(SKETCH_KINDS) == {
            "tdigest",
            "hll",
            "reservoir",
            "countmin",
            "heavy_hitters",
            "linreg",
        }


# -- crash sweep -------------------------------------------------------------


ACTIONS = [(0, 42.0), (5, -3.25), (9, 9.0), (2, 0.5)]
CHECKPOINT_AT = 1  # checkpoint after the second action


def run_workload(dbms):
    session = warm_session(dbms)
    for index, (row, value) in enumerate(ACTIONS):
        session.update_cells("x", [(row, value)])
        if index == CHECKPOINT_AT:
            dbms.checkpoint()


def check_recovered(directory):
    """Fresh sketch/model entries must match recomputation; stale is fine."""
    recovered, _ = recover(directory)
    if "v1" not in recovered.registry.names():
        return
    view = recovered.view("v1")
    column = view.column("x")
    values = [v for v in column if not is_na(v)]
    summary = view.summary
    entry = summary.peek("approx_median", "x")
    if entry is not None and not entry.stale:
        assert entry.result == pytest.approx(statistics.median(values))
    entry = summary.peek("approx_distinct", "x")
    if entry is not None and not entry.stale:
        assert entry.result == len(set(values))
    entry = summary.peek("reservoir", "x")
    if entry is not None and not entry.stale:
        assert set(entry.result) <= set(values)
    entry = summary.peek("ols_model", ("x", "id"))
    if entry is not None and not entry.stale:
        reference = fit_ols(view.relation, "x", ["id"])
        stored = entry.result
        assert stored[3:] == pytest.approx(list(reference.coefficients), rel=1e-8)


def test_crash_sweep_never_silently_wrong(tmp_path):
    # Dry run to size the write schedule.
    injector = FaultInjector()
    dbms = make_dbms(tmp_path / "dry", injector)
    run_workload(dbms)
    dbms.durability.close()
    writes = injector.writes
    assert writes > 0

    for k in range(1, writes + 1):
        directory = tmp_path / f"w{k}"
        plan = FaultPlan(fail_on_write=k)
        crash_injector = FaultInjector(plan)
        manager = DurabilityManager(directory, faults=crash_injector)
        try:
            crashed_dbms = StatisticalDBMS(durability=manager)
            crashed_dbms.load_raw(people_relation(ROWS))
            crashed_dbms.create_view(ViewDefinition("v1", SourceNode("people")))
            run_workload(crashed_dbms)
        except InjectedFault:
            pass
        manager.wal.close()
        check_recovered(directory)
