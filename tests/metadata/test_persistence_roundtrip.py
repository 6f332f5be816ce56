"""Round-trip regressions for the persistence codec the WAL depends on.

The durability layer serializes operations and histories with the same
functions as Management Database snapshots; these tests pin the edge cases
a crash-recovery cycle must survive: NA transitions in either direction,
empty histories, burned (undone) version numbers, and JSON transport.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MetadataError
from repro.metadata.persistence import (
    dumps,
    history_from_dict,
    history_to_dict,
    loads,
    operation_from_dict,
    operation_to_dict,
    value_from_jsonable,
    value_to_jsonable,
    view_to_record,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import NA, DataType, is_na
from repro.views.history import CellChange, OpKind, UpdateHistory
from repro.views.view import ConcreteView


def through_json(data):
    """Simulate the WAL/snapshot transport: a real JSON round trip."""
    return json.loads(json.dumps(data))


# -- cell values -------------------------------------------------------------


@pytest.mark.parametrize(
    "value", [0, -7, 3.25, -1e300, "", "text", True, False, None]
)
def test_plain_values_round_trip(value):
    assert value_from_jsonable(through_json(value_to_jsonable(value))) == value


def test_na_round_trips_explicitly():
    encoded = through_json(value_to_jsonable(NA))
    assert encoded == {"__na__": True}
    assert is_na(value_from_jsonable(encoded))


def test_unpersistable_values_are_rejected():
    with pytest.raises(MetadataError):
        value_to_jsonable(object())


# -- operations --------------------------------------------------------------


def test_operation_with_na_transitions_round_trips():
    operation = UpdateHistory("v").record(
        OpKind.INVALIDATE,
        "x",
        [
            CellChange(row=0, old=4.5, new=NA),  # value invalidated
            CellChange(row=3, old=NA, new=2.0),  # NA repaired
            CellChange(row=5, old=NA, new=NA),
        ],
        description="suspicious ages",
    )
    restored = operation_from_dict(through_json(operation_to_dict(operation)))
    assert restored.version == operation.version
    assert restored.kind is OpKind.INVALIDATE
    assert restored.attribute == "x"
    assert restored.description == "suspicious ages"
    assert restored.changes[0].old == 4.5 and is_na(restored.changes[0].new)
    assert is_na(restored.changes[1].old) and restored.changes[1].new == 2.0
    assert is_na(restored.changes[2].old) and is_na(restored.changes[2].new)


def test_operation_with_no_changes_round_trips():
    operation = UpdateHistory("v").record(OpKind.UPDATE, "x", [])
    restored = operation_from_dict(through_json(operation_to_dict(operation)))
    assert restored.changes == ()
    assert restored.cells_changed == 0


def test_operation_description_defaults_when_absent():
    data = operation_to_dict(UpdateHistory("v").record(OpKind.UPDATE, "x", []))
    del data["description"]
    assert operation_from_dict(data).description == ""


# -- histories ---------------------------------------------------------------


def test_empty_history_round_trips():
    history = UpdateHistory("fresh")
    restored = history_from_dict(through_json(history_to_dict(history)))
    assert restored.view_name == "fresh"
    assert len(restored) == 0
    assert restored.version == 0
    # The next recorded operation starts at v1, exactly as live.
    assert restored.record(OpKind.UPDATE, "x", []).version == 1


def test_history_with_burned_versions_keeps_the_high_water_mark():
    """Undo burns versions; the snapshot must not hand them out again."""
    schema = Schema([Attribute("x", DataType.FLOAT)])
    relation = Relation("v", schema, [[1.0], [2.0]])
    history = UpdateHistory("v")
    for version in (1, 2, 3):
        old = relation.set_value(0, "x", float(version * 10))
        history.record(
            OpKind.UPDATE, "x", [CellChange(0, old, float(version * 10))]
        )
    history.undo_last(relation, 2)  # burns v2 and v3
    assert history.version == 3 and len(history) == 1

    restored = history_from_dict(through_json(history_to_dict(history)))
    assert len(restored) == 1
    assert restored.version == 3
    assert restored.record(OpKind.UPDATE, "x", []).version == 4


def test_empty_history_with_burned_versions_survives_management_snapshot():
    """The management-level restore must not drop an empty-but-burned history.

    After every operation is undone the history has len() == 0 — falsy —
    yet its high-water mark matters; a truthiness shortcut in
    ``management_from_dict`` used to replace it with a fresh version-0
    history, reissuing burned versions after recovery.
    """
    from repro.metadata.management import ManagementDatabase
    from repro.metadata.persistence import management_from_dict, management_to_dict
    from repro.views.materialize import SourceNode, ViewDefinition

    schema = Schema([Attribute("x", DataType.FLOAT)])
    relation = Relation("v", schema, [[1.0]])
    history = UpdateHistory("v")
    old = relation.set_value(0, "x", 9.0)
    history.record(OpKind.UPDATE, "x", [CellChange(0, old, 9.0)])
    history.undo_last(relation, 1)  # burns v1; history now empty
    management = ManagementDatabase()
    management.register_view(ViewDefinition("v", SourceNode("raw")), history)

    restored = management_from_dict(through_json(management_to_dict(management)))
    recovered_history = restored.view_history("v")
    assert len(recovered_history) == 0
    assert recovered_history.version == 1
    assert recovered_history.record(OpKind.UPDATE, "x", []).version == 2


def test_legacy_snapshot_without_next_version_still_loads():
    history = UpdateHistory("v")
    history.record(OpKind.UPDATE, "x", [CellChange(0, 1.0, 2.0)])
    data = history_to_dict(history)
    del data["next_version"]  # pre-durability snapshot shape
    restored = history_from_dict(data)
    assert restored.version == 1
    assert restored.record(OpKind.UPDATE, "x", []).version == 2


def test_history_operations_survive_na_and_order():
    history = UpdateHistory("v")
    history.record(OpKind.UPDATE, "a", [CellChange(0, NA, 5.0)])
    history.record(OpKind.INVALIDATE, "b", [CellChange(1, 7.0, NA)])
    restored = history_from_dict(through_json(history_to_dict(history)))
    kinds = [op.kind for op in restored.operations()]
    assert kinds == [OpKind.UPDATE, OpKind.INVALIDATE]
    assert restored.operations_since(1)[0].attribute == "b"


def test_unknown_operation_kind_is_rejected_by_name():
    record = operation_to_dict(UpdateHistory("v").record(OpKind.UPDATE, "x", []))
    record["kind"] = "add_column"
    with pytest.raises(MetadataError, match="add_column"):
        operation_from_dict(record)


def test_restore_rejects_version_regressions():
    from repro.core.errors import HistoryError

    history = UpdateHistory("v")
    operation = history.record(OpKind.UPDATE, "x", [])
    with pytest.raises(HistoryError):
        history.restore(operation)  # v1 <= current high-water mark


# -- the document codec -------------------------------------------------------

cells = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 2.0**53 + 2, float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.just(NA),
)


@given(st.lists(st.lists(cells, max_size=12), max_size=5))
@settings(max_examples=300, deadline=None)
def test_columns_round_trip_cell_by_cell_in_value_and_type(columns):
    """What a checkpoint does to a view's cells: the columns go to the C

    encoder as they are and come back equal and of the same type (a float
    NaN as NA), in the bytes a ``value_to_jsonable`` pass per cell gives."""
    raw = dumps({"columns": columns})
    restored = loads(raw)["columns"]
    assert [len(column) for column in restored] == [len(c) for c in columns]
    for column, back in zip(columns, restored):
        for cell, got in zip(column, back):
            if is_na(cell):
                assert got is NA
            else:  # repr tells -0.0 from 0.0 and 1 from True
                assert type(got) is type(cell) and repr(got) == repr(cell)
    if not any(isinstance(c, float) and c != c for column in columns for c in column):
        per_cell = [[value_to_jsonable(c) for c in column] for column in columns]
        assert raw == json.dumps(
            {"columns": per_cell}, separators=(",", ":")
        ).encode("utf-8")


def test_the_named_edge_cells_survive_the_codec():
    edge = [2**70, True, 1, 1.0, float("inf"), float("-inf"), float("nan"), NA, None]
    back = loads(dumps(edge))
    assert back[:6] == edge[:6]
    assert [type(cell) for cell in back[:6]] == [int, bool, int, float, float, float]
    assert back[6] is NA and back[7] is NA and back[8] is None


def test_dumps_refuses_what_json_has_no_form_for_and_loads_what_is_not_json():
    with pytest.raises(MetadataError, match="cannot persist value of type object"):
        dumps({"cell": object()})
    with pytest.raises(MetadataError, match="not a JSON document"):
        loads(b"{ torn")
    with pytest.raises(MetadataError, match="not a JSON document"):
        loads(b"\xff\xfe")


@pytest.mark.parametrize("cell", [[1, 2], (1, 2), {"a": 1}, {1}, 1 + 2j, b"raw"])
def test_view_record_refuses_a_cell_that_would_not_come_back_as_it_was(cell):
    """The per-column type census keeps ``value_to_jsonable``'s refusals: a

    list or tuple cell must not be written as a JSON array."""
    schema = Schema([Attribute("id", DataType.INT), Attribute("x", DataType.FLOAT)])
    relation = Relation("v", schema, [[0, 1.0], [1, NA], [2, None]])
    view = ConcreteView("v", relation)
    assert view_to_record(view)["columns"] == [[0, 1, 2], [1.0, NA, None]]
    relation.set_value(1, "x", cell)
    with pytest.raises(MetadataError, match="cannot persist value of type"):
        view_to_record(view)


def test_view_record_accepts_the_subclasses_the_per_cell_check_accepted():
    import enum

    import numpy as np

    class Code(enum.IntEnum):
        MALE = 1

    schema = Schema([Attribute("x", DataType.FLOAT)])
    relation = Relation("v", schema, [[np.float64(2.5)], [Code.MALE], [True]])
    assert [value_to_jsonable(row[0]) for row in relation] == [2.5, 1, True]
    record = loads(dumps(view_to_record(ConcreteView("v", relation))))
    assert record["columns"] == [[2.5, 1, True]]
    relation.set_value(0, "x", np.int64(3))  # not an int: refused then, and now
    with pytest.raises(MetadataError, match="int64"):
        value_to_jsonable(relation.row(0)[0])
    with pytest.raises(MetadataError, match="int64"):
        view_to_record(ConcreteView("v", relation))
