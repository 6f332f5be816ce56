"""Recovery unit tests: checkpoint + replay semantics, counters, anomalies."""

import gc
import json
import math
import shutil
import weakref
from pathlib import Path

import pytest

from repro.core.dbms import StatisticalDBMS
from repro.core.errors import DurabilityError
from repro.durability.checkpoint import SNAPSHOT_FORMAT, Checkpointer
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.incremental.sketches import TDigest
from repro.metadata.persistence import dumps, loads
from repro.obs.tracer import Tracer
from repro.relational.types import NA
from repro.views.materialize import SourceNode, ViewDefinition

from tests.durability.helpers import durable_dbms, people_relation


def test_update_and_undo_replay_without_a_checkpoint(tmp_path):
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    session.update_cells("x", [(1, 50.0)])
    session.undo(1)

    recovered, report = recover(tmp_path)
    assert not report.checkpoint_loaded
    assert report.operations_replayed == 2
    assert report.undos_replayed == 1
    assert recovered.view("v1").relation.row(0)[1] == 100.0
    assert recovered.view("v1").relation.row(1)[1] == 1.0
    assert recovered.view("v1").history.version == dbms.view("v1").history.version


def test_checkpoint_bounds_replay(tmp_path):
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    dbms.checkpoint()
    assert dbms.durability.wal.size_bytes == 0
    session.update_cells("x", [(1, 50.0)])

    recovered, report = recover(tmp_path)
    assert report.checkpoint_loaded
    assert report.operations_replayed == 1  # only the post-checkpoint update
    assert recovered.view("v1").relation.row(0)[1] == 100.0
    assert recovered.view("v1").relation.row(1)[1] == 50.0


@pytest.mark.parametrize("checkpoint", [False, True], ids=["wal", "checkpoint"])
def test_replay_counts_the_updates_since_the_last_checkpoint(tmp_path, checkpoint):
    """Without a checkpoint recovery replays every logged update; after one
    it replays none, whatever the log held before."""
    updates = 60
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    for fn in ("sum", "mean", "count"):
        session.compute(fn, "x")
    for i in range(updates):
        session.update_cells("x", [(i % 20, float(i))])
    if checkpoint:
        dbms.checkpoint()
    dbms.durability.close()

    recovered, report = recover(tmp_path)
    assert report.checkpoint_loaded is checkpoint
    assert report.operations_replayed == (0 if checkpoint else updates)
    assert recovered.view("v1").column("x") == dbms.view("v1").column("x")


def test_checkpointed_summary_entries_are_maintained_incrementally(tmp_path):
    tracer = Tracer()
    dbms = durable_dbms(tmp_path, tracer=tracer)
    session = dbms.session("v1")
    live_sum = session.compute("sum", "x")
    dbms.checkpoint()
    session.update_cells("x", [(0, 100.0)])

    recovered, report = recover(tmp_path)
    entry = recovered.view("v1").summary.peek("sum", "x")
    assert entry is not None
    assert math.isclose(entry.result, live_sum + 100.0)
    # Replay maintained the entry from the log: no stale flag, no rescan
    # needed on the next lookup.
    assert not entry.stale
    assert report.operations_replayed == 1


def test_recovered_history_versions_support_operations_since(tmp_path):
    """Sharing peers that consumed the log pre-crash see identical versions."""
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    session.undo(1)  # burns v1
    session.update_cells("x", [(1, 50.0)])  # gets v2
    live = [(op.version, op.attribute) for op in dbms.view("v1").history.operations()]

    recovered, _ = recover(tmp_path)
    replayed = [
        (op.version, op.attribute)
        for op in recovered.view("v1").history.operations()
    ]
    assert replayed == live == [(2, "x")]
    assert recovered.view("v1").history.operations_since(1)[0].version == 2


def test_view_creation_and_drop_replay(tmp_path):
    dbms = durable_dbms(tmp_path)
    dbms.create_view(
        ViewDefinition("v2", SourceNode("people")), allow_duplicate=True
    )
    dbms.drop_view("v2")
    recovered, _ = recover(tmp_path)
    assert recovered.registry.names() == ["v1"]
    assert "v2" not in recovered.management.view_names()


def test_adopted_view_recovers_via_inline_history(tmp_path):
    dbms = durable_dbms(tmp_path)
    owner = dbms.session("v1")
    owner.update_cells("x", [(0, 100.0)])
    dbms.publish("v1", publisher="alice")
    dbms.adopt_published("v1", "mine", "bob")
    mine = dbms.session("mine", analyst="bob")
    mine.update_cells("x", [(2, 7.0)])
    dbms.checkpoint()

    recovered, _ = recover(tmp_path)
    adopted = recovered.view("mine")
    assert adopted.owner == "bob"
    assert adopted.relation.row(0)[1] == 100.0  # published edit carried over
    assert adopted.relation.row(2)[1] == 7.0


def test_replay_is_idempotent_against_duplicate_operations(tmp_path):
    """An op at or below the history's version is a duplicate: skipped."""
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    # Re-log the same transaction records wholesale (replayed log segment).
    manager = dbms.durability
    operations = dbms.view("v1").history.operations()
    manager.log_operations("v1", operations)

    recovered, report = recover(tmp_path)
    assert report.operations_replayed == 1
    assert any("duplicate operation" in w for w in report.warnings)
    assert recovered.view("v1").relation.row(0)[1] == 100.0
    assert recovered.view("v1").history.version == 1


def test_operations_for_unknown_views_are_skipped(tmp_path):
    dbms = durable_dbms(tmp_path)
    manager = dbms.durability
    manager._log_transaction(
        "ghost",
        [{"t": "op", "view": "ghost", "op": {"version": 1, "kind": "update",
                                             "attribute": "x", "changes": []}}],
    )
    recovered, report = recover(tmp_path)
    assert any("unknown view" in w for w in report.warnings)
    assert recovered.registry.names() == ["v1"]


def test_torn_tail_marks_mentioned_attributes_stale(tmp_path):
    tracer = Tracer()
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.compute("sum", "x")
    session.update_cells("x", [(0, 100.0)])
    dbms.checkpoint()  # snapshot carries the cached sum
    session.update_cells("x", [(1, 50.0)])
    # Tear the log inside the last transaction: keep begin+op, lose commit.
    dbms.durability.wal.close()
    path = dbms.durability.wal_path
    path.write_bytes(path.read_bytes()[:-12])

    recovered, report = recover(tmp_path, tracer=tracer)
    assert report.torn_tail
    assert report.entries_marked_stale >= 1
    entry = recovered.view("v1").summary.peek("sum", "x")
    assert entry is not None and entry.stale
    # The discarded write itself never happened.
    assert recovered.view("v1").relation.row(1)[1] == 1.0
    assert tracer.counters.get("recovery.stale_marked", 0) >= 1
    assert tracer.counters.get("recovery.discarded", 0) >= 1


def test_undo_replay_is_idempotent_after_untruncated_checkpoint(tmp_path):
    """A checkpoint that lands before the WAL truncation must not re-undo.

    Crash window: ``Checkpointer.write`` finished (os.replace durable) but
    ``wal.truncate`` never ran.  The snapshot already reflects the undo;
    replaying the log's undo record against it used to revert the *older*
    committed operation (111.0 back to 0.0).
    """
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 111.0)])
    session.update_cells("x", [(0, 222.0)])
    session.undo(1)
    # The checkpoint without the truncation == dying between the two.
    dbms.durability.checkpointer.write(dbms)

    recovered, report = recover(tmp_path)
    assert recovered.view("v1").relation.row(0)[1] == 111.0
    assert recovered.view("v1").history.version == dbms.view("v1").history.version
    assert report.undos_replayed == 0
    assert any("already reflected" in w for w in report.warnings)
    # The recovered system keeps working: a fresh undo reverts 111.0.
    recovered.session("v1").undo(1)
    assert recovered.view("v1").relation.row(0)[1] == 0.0


def test_recovery_truncates_corrupt_tail_so_new_commits_survive(tmp_path):
    """Work committed after a torn-tail recovery must survive the *next* one.

    Recovery used to leave the corrupt bytes in place; the new manager
    appended perfectly good transactions after them, and the next scan
    stopped at the old damage — silently discarding the new commits.
    """
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    dbms.durability.wal.close()
    path = dbms.durability.wal_path
    path.write_bytes(path.read_bytes() + b"\x13\x37corrupt-tail")

    recovered, report = recover(tmp_path)
    assert report.torn_tail
    assert report.tail_bytes_truncated == len(b"\x13\x37corrupt-tail")
    # New work on the recovered system lands after the trusted prefix...
    recovered.session("v1").update_cells("x", [(1, 50.0)])

    recovered2, report2 = recover(tmp_path)
    assert not report2.torn_tail
    assert recovered2.view("v1").relation.row(0)[1] == 100.0
    assert recovered2.view("v1").relation.row(1)[1] == 50.0


def test_recovery_tracer_counters(tmp_path):
    tracer = Tracer()
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    session.update_cells("x", [(1, 50.0)])
    recovered, report = recover(tmp_path, tracer=tracer)
    # One view-creation txn + two update txns.
    assert report.transactions_committed == 3
    assert tracer.counters["recovery.replayed"] == 3
    assert "recovery.discarded" not in tracer.counters


def _counter_total(tracer, name):
    """A counter's grand total: tracer-level plus every recorded span."""
    return tracer.counters.get(name, 0) + sum(
        root.total(name) for root in tracer.roots
    )


def test_wal_and_checkpoint_tracer_counters(tmp_path):
    tracer = Tracer()
    dbms = durable_dbms(tmp_path, tracer=tracer)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    # view txn (3 frames) + update txn (3 frames)
    assert _counter_total(tracer, "wal.append") == 6
    assert _counter_total(tracer, "wal.fsync") == 2
    dbms.checkpoint()
    assert _counter_total(tracer, "checkpoint.write") == 1
    assert _counter_total(tracer, "checkpoint.bytes") > 0


def test_recovered_dbms_continues_logging_past_old_transactions(tmp_path):
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    recovered, _ = recover(tmp_path)
    # New work on the recovered system lands in fresh transactions and is
    # itself recoverable.
    session2 = recovered.session("v1")
    session2.update_cells("x", [(1, 50.0)])
    recovered2, report2 = recover(tmp_path)
    assert recovered2.view("v1").relation.row(0)[1] == 100.0
    assert recovered2.view("v1").relation.row(1)[1] == 50.0
    assert not any("duplicate" in w for w in report2.warnings)


def test_checkpoint_requires_configured_durability(tmp_path):
    dbms = StatisticalDBMS()
    with pytest.raises(DurabilityError):
        dbms.checkpoint()
    manager = DurabilityManager(tmp_path)
    with pytest.raises(DurabilityError):
        manager.checkpoint()  # never bound to a DBMS


def test_corrupt_checkpoint_raises_durability_error(tmp_path):
    dbms = durable_dbms(tmp_path)
    dbms.checkpoint()
    dbms.durability.checkpoint_path.write_text("{ not json")
    with pytest.raises(DurabilityError):
        recover(tmp_path)


def test_unsupported_checkpoint_format_raises(tmp_path):
    Checkpointer(tmp_path).path.write_text('{"format": 99}')
    with pytest.raises(DurabilityError):
        recover(tmp_path)


def test_checkpoint_write_is_atomic_under_fault(tmp_path):
    """A crash mid-snapshot leaves the previous checkpoint untouched."""
    from repro.core.errors import InjectedFault
    from repro.durability.faults import FaultInjector, FaultPlan

    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.update_cells("x", [(0, 100.0)])
    dbms.checkpoint()
    before = dbms.durability.checkpoint_path.read_bytes()

    session.update_cells("x", [(1, 50.0)])
    faulty = Checkpointer(tmp_path, faults=FaultInjector(FaultPlan(fail_on_write=1)))
    with pytest.raises(InjectedFault):
        faulty.write(dbms)
    assert dbms.durability.checkpoint_path.read_bytes() == before
    recovered, _ = recover(tmp_path)
    assert recovered.view("v1").relation.row(1)[1] == 50.0  # from the WAL


# -- a file that parses but is not a snapshot --------------------------------


def _checkpointed_document(tmp_path):
    """A real two-attribute snapshot, as the document it decodes to."""
    dbms = durable_dbms(tmp_path, rows=4)
    dbms.checkpoint()
    dbms.durability.close()
    return loads(dbms.durability.checkpoint_path.read_bytes())


def _drop(key):
    def damage(document):
        del document["views"][0][key]

    return damage


def _set_columns(columns):
    def damage(document):
        document["views"][0]["columns"] = columns

    return damage


@pytest.mark.parametrize(
    "text, defect",
    [
        ("[]", "not a JSON object"),
        ('"checkpoint"', "not a JSON object"),
        ('{"format": 2}', "'management'"),
        ('{"format": 1, "management": {}}', "'views'"),
        ('{"format": 2, "management": {}, "views": {}}', "'views'"),
    ],
)
def test_a_document_that_is_not_a_snapshot_names_the_file(tmp_path, text, defect):
    path = Checkpointer(tmp_path).path
    path.write_text(text)
    with pytest.raises(DurabilityError, match=defect) as raised:
        recover(tmp_path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize(
    "damage, defect",
    [
        (_drop("schema"), "KeyError..schema"),
        (_drop("columns"), "KeyError..rows"),
        (_set_columns([[0, 1, 2, 3]]), "1 columns for 2 attributes"),
        (_set_columns([[0, 1, 2, 3], [0.0], [1.0]]), "3 columns for 2 attributes"),
        (_set_columns([[0, 1, 2, 3], [0.0, 1.0, 2.0]]), "shorter than argument 1"),
        (_set_columns([[0, 1, 2], [0.0, 1.0, 2.0, 3.0]]), "longer than argument 1"),
        (_set_columns([[0, 1, 2, 3], 7]), "TypeError"),
    ],
)
def test_a_malformed_view_record_names_the_file_and_the_defect(
    tmp_path, damage, defect
):
    """Ragged columns are the hazard of the columnar form: a bare ``zip``

    would truncate every column to the shortest and recover a wrong view."""
    document = _checkpointed_document(tmp_path)
    damage(document)
    path = Checkpointer(tmp_path).path
    path.write_bytes(dumps(document))
    with pytest.raises(DurabilityError, match=defect) as raised:
        recover(tmp_path)
    assert str(path) in str(raised.value) and "'v1'" in str(raised.value)


# -- format 1 -----------------------------------------------------------------

FORMAT1 = Path(__file__).parent / "fixtures" / "format1"
FORMAT1_ROWS = [
    (0, 100.0, "r0é"), (1, 1.5, "r1é"), (2, NA, "r2é"), (3, NA, "r3é"),
    (4, 6.0, "r4é"), (5, 7.5, NA), (6, 9.0, "r6é"), (7, NA, "r7é"),
    (8, 12.0, "r8é"), (9, 13.5, "r9é"),
]  # fmt: skip


def _assert_format1_state(dbms):
    view = dbms.view("v1")
    assert list(view.relation) == FORMAT1_ROWS
    assert [type(cell) for row in view.relation for cell in row] == [
        type(cell) for row in FORMAT1_ROWS for cell in row
    ]
    assert [op.version for op in view.history.operations()] == [1, 3]
    assert view.history.tail_versions(1) == [3]
    assert view.history is dbms.management.view_history("v1")
    assert view.history._next_version == 5  # 2 and 4 were undone: burned
    mean = view.summary.peek("mean", "x")
    assert not mean.stale and mean.result == pytest.approx(149.5 / 7)
    median = view.summary.peek("approx_median", "x")
    assert not median.stale and median.kind == "sketch" and median.result == 9.0
    assert isinstance(median.maintainer, TDigest) and median.maintainer.value == 9.0


def test_a_format_1_directory_recovers_and_is_rewritten_as_format_2(tmp_path):
    """The fixture was written by the last commit whose snapshots were

    format 1 (pretty-printed ``"rows"``): a checkpoint holding NA cells, a
    history with a burned version, a ``mean`` and a t-digest entry, then a
    log with an update to NA and an update undone (see its README)."""
    for name in ("checkpoint.json", "log.wal"):
        shutil.copy(FORMAT1 / name, tmp_path)
    assert json.loads((tmp_path / "checkpoint.json").read_text())["format"] == 1

    dbms, report = recover(tmp_path)
    assert report.checkpoint_loaded and not report.warnings
    assert (report.operations_replayed, report.undos_replayed) == (2, 1)
    _assert_format1_state(dbms)

    dbms.checkpoint()
    dbms.durability.close()
    document = json.loads((tmp_path / "checkpoint.json").read_text())
    assert document["format"] == SNAPSHOT_FORMAT == 2
    assert "rows" not in document["views"][0]
    assert document["views"][0]["columns"][0] == list(range(10))
    again, report = recover(tmp_path)
    assert report.checkpoint_loaded and report.transactions_committed == 0
    _assert_format1_state(again)


# -- memory -------------------------------------------------------------------


def test_a_released_dbms_is_freed_without_the_cycle_collector(tmp_path):
    """``Workspace.recover_all`` drops one recovered DBMS per view: its rows

    must go when the last reference does, not when a gen-2 collection runs."""
    dbms = durable_dbms(tmp_path)
    session = dbms.session("v1")
    session.compute("median", "x")
    session.compute("approx_distinct", "x")  # restored with a column provider
    session.fit_model("x", ["id"])  # maintained through a rows provider
    dbms.checkpoint()
    session.update_cells("x", [(0, 100.0)])
    dbms.durability.close()
    del dbms, session

    gc.collect()
    gc.disable()
    try:
        recovered, _ = recover(tmp_path)
        recovered.session("v1").update_cells("x", [(1, 50.0)])
        view = recovered.view("v1")
        probes = [
            weakref.ref(obj)
            for obj in (recovered, view, view.relation, view.summary)
        ]
        recovered.durability.close()
        del recovered, view
        assert [probe() for probe in probes] == [None] * 4
    finally:
        gc.enable()
