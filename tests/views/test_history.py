"""Tests for update histories: undo, rollback, replay."""

import pytest

from repro.core.errors import HistoryError
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.views.history import CellChange, Operation, OpKind, UpdateHistory


def make_relation():
    schema = Schema([measure("x"), measure("y")])
    return Relation("r", schema, [(float(i), float(i * 10)) for i in range(10)])


def change(relation, history, row, attr, new, kind=OpKind.UPDATE):
    old = relation.set_value(row, attr, new)
    history.record(kind, attr, [CellChange(row=row, old=old, new=new)])


class TestRecording:
    def test_versions_increment(self):
        history = UpdateHistory("v")
        assert history.version == 0
        relation = make_relation()
        change(relation, history, 0, "x", 99.0)
        change(relation, history, 1, "x", 98.0)
        assert history.version == 2
        assert len(history) == 2

    def test_operations_since(self):
        history = UpdateHistory("v")
        relation = make_relation()
        for i in range(5):
            change(relation, history, i, "x", -1.0)
        assert len(history.operations_since(3)) == 2

    def test_cells_changed(self):
        history = UpdateHistory("v")
        op = history.record(
            OpKind.UPDATE,
            "x",
            [CellChange(0, 1.0, 2.0), CellChange(1, 3.0, 4.0)],
        )
        assert op.cells_changed == 2

    def test_rows_and_delta_derive_from_the_changes(self):
        op = UpdateHistory("v").record(
            OpKind.UPDATE, "x", [CellChange(4, 1.0, 2.0), CellChange(1, 3.0, 4.0)]
        )
        assert op.rows == [4, 1]
        assert op.delta().updates == [(1.0, 2.0), (3.0, 4.0)]
        assert op.delta(inverse=True).updates == [(2.0, 1.0), (4.0, 3.0)]


class TestUndo:
    def test_undo_restores_values(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 3, "x", 99.0)
        assert relation.row(3)[0] == 99.0
        undone = history.undo_last(relation, 1)
        assert relation.row(3)[0] == 3.0
        assert len(undone) == 1
        # The version high-water mark does not move backwards: v1 stays
        # burned so peers that consumed the log never see it reused.
        assert history.version == 1
        assert history.operations() == []

    def test_undo_multiple_in_reverse(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 0, "x", 100.0)
        change(relation, history, 0, "x", 200.0)
        history.undo_last(relation, 2)
        assert relation.row(0)[0] == 0.0

    def test_undo_of_one_operation_naming_a_cell_twice(self):
        """Regression: changes are restored newest first, so the cell ends
        at the value it held before the operation, not its intermediate one."""
        history = UpdateHistory("v")
        relation = make_relation()
        changes = [
            CellChange(row=0, old=relation.set_value(0, "x", new), new=new)
            for new in (10.0, 20.0)
        ]
        history.record(OpKind.UPDATE, "x", changes)
        history.undo_last(relation, 1)
        assert relation.row(0)[0] == 0.0

    def test_undo_partial(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 0, "x", 100.0)
        change(relation, history, 0, "x", 200.0)
        history.undo_last(relation, 1)
        assert relation.row(0)[0] == 100.0
        assert history.version == 2  # monotonic: v2 is burned, not reissued
        assert [op.version for op in history.operations()] == [1]

    def test_undo_too_many_rejected(self):
        history = UpdateHistory("v")
        with pytest.raises(HistoryError, match="cannot undo"):
            history.undo_last(make_relation(), 1)

    def test_undo_count_validation(self):
        history = UpdateHistory("v")
        with pytest.raises(HistoryError):
            history.undo_last(make_relation(), 0)


class TestVersionMonotonicity:
    def test_undo_then_record_never_reuses_a_version(self):
        """Regression (sharing scenario, SS3.2): a peer that consumed the
        log up to some version must never see a *different* operation
        reissued under a version it already processed."""
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 0, "x", 99.0)  # v1
        peer_seen = {op.version: op for op in history.operations_since(0)}
        history.undo_last(relation, 1)
        change(relation, history, 1, "x", 42.0)  # must not become v1 again
        fresh = history.operations_since(max(peer_seen))
        assert [op.version for op in fresh] == [2]
        for op in history.operations():
            if op.version in peer_seen:
                assert op == peer_seen[op.version]

    def test_version_cuts_equal_the_filters_over_gapped_histories(self):
        """The bisected cuts agree with a filter over the log, whatever
        gaps undos and ``restore`` leave in the versions."""
        history = UpdateHistory("v")
        relation = make_relation()
        for i in range(6):
            change(relation, history, i, "x", -1.0)  # v1..v6
        history.undo_last(relation, 2)  # v5, v6 burned
        change(relation, history, 6, "x", -2.0)  # v7
        # A restored operation leaves a gap: v8..v10 were never logged here.
        history.restore(Operation(version=11, kind=OpKind.UPDATE, attribute="y", changes=()))
        change(relation, history, 7, "x", -3.0)  # v12
        history.undo_last(relation, 1)  # v12 burned: high-water 12, tail v11
        log = history.operations()
        assert [op.version for op in log] == [1, 2, 3, 4, 7, 11]
        for version in range(-1, history.version + 3):
            assert history.operations_upto(version) == [
                op for op in log if op.version <= version
            ]
            assert history.operations_since(version) == [
                op for op in log if op.version > version
            ]


class TestRollback:
    def test_rollback_to_version(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 0, "x", 10.0)  # v1
        change(relation, history, 0, "x", 20.0)  # v2
        change(relation, history, 0, "x", 30.0)  # v3
        history.rollback_to(relation, 1)
        assert relation.row(0)[0] == 10.0
        assert history.version == 3  # monotonic high-water mark
        assert [op.version for op in history.operations()] == [1]

    def test_rollback_to_pristine(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 5, "y", -1.0)
        history.rollback_to(relation, 0)
        assert relation.row(5)[1] == 50.0

    def test_rollback_noop(self):
        history = UpdateHistory("v")
        relation = make_relation()
        change(relation, history, 0, "x", 1.5)
        assert history.rollback_to(relation, 1) == []

    def test_rollback_bad_version(self):
        history = UpdateHistory("v")
        with pytest.raises(HistoryError, match="out of range"):
            history.rollback_to(make_relation(), 5)


class TestReplay:
    def test_replay_applies_edits(self):
        """SS3.2: a second analyst adopts a predecessor's data checking."""
        history = UpdateHistory("v")
        first_copy = make_relation()
        change(first_copy, history, 2, "x", 99.0)
        change(first_copy, history, 3, "y", -1.0, kind=OpKind.INVALIDATE)
        second_copy = make_relation()
        cells = history.replay_onto(second_copy)
        assert cells == 2
        assert second_copy.row(2)[0] == 99.0
        assert second_copy.row(3)[1] == -1.0
