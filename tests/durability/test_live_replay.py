"""Live ≡ replay: a recovered system is the system that ran.

A seeded stream of every kind of write — predicate updates (one and two
attributes), point updates, ``mark_invalid`` by predicate, by rows and
with no match, single and multi-operation undos across two attributes —
runs against a durable DBMS whose Summary Database holds scalar, sketch,
pair, derived-column and fitted-model entries.  Recovery must then rebuild
the same rows, the same history, the same copy-on-write epochs, the same
stale set and the same value for every fresh entry, whether everything is
replayed from the WAL or only the tail behind a mid-stream checkpoint.

Derived-column *definitions* are Python callables and are not persisted
(DESIGN §4e), so the stream leaves the derived column's base attribute
alone once the first snapshot is taken; what the snapshot holds of it
(cells, entry, freshness) must still come back unchanged.
"""

import math
import random

import pytest

from repro.core.dbms import StatisticalDBMS
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.incremental.derived import LocalDerivation
from repro.metadata.persistence import operation_to_dict, result_to_jsonable
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.views.materialize import SourceNode, ViewDefinition
from tests.action_stream import action_stream, apply

ROWS = 48
BASE = ("id", "x", "y", "z", "w")
MODEL = ("y", "x", "z")
SEEDS = range(5)


def build(directory, rng):
    schema = Schema(
        [Attribute("id", DataType.INT)]
        + [Attribute(name, DataType.FLOAT) for name in BASE[1:]]
    )
    rows = [
        [i] + [round(rng.uniform(-40.0, 40.0), 3) for _ in BASE[1:]]
        for i in range(ROWS)
    ]
    dbms = StatisticalDBMS(durability=DurabilityManager(directory))
    dbms.load_raw(Relation("people", schema, rows))
    dbms.create_view(ViewDefinition("v1", SourceNode("people")))
    return dbms


def warm(session):
    """Fill the Summary Database with one entry of every maintained kind."""
    session.view.add_derived_column(LocalDerivation("w2", col("w") * 2))
    session.update_cells("w", [(0, 5.0), (7, -1.5)])  # recomputes w2 cells
    for attribute in ("x", "y", "z"):
        for function in ("count", "sum", "mean", "var", "min", "max", "median"):
            session.compute(function, attribute)
    session.compute("approx_median", "x")
    session.compute("approx_distinct", "y")
    session.compute("heavy_hitters", "z")
    session.compute("iqr", "x")  # no incremental form: the invalidate rule
    session.compute("mean", "w2")
    session.compute_pair("pearson", "x", "z")
    session.fit_model(MODEL[0], MODEL[1:])
    session.fit_model("w", ["y"])


def half_stream(rng):
    """Every kind of write once, in seeded order with seeded parameters."""

    def cells(count):
        return [
            (row, round(rng.uniform(-60.0, 60.0), 3))
            for row in rng.sample(range(ROWS), count)
        ]

    blocks = [
        [("update", col("x") > rng.uniform(-20, 20), {"x": col("x") * 0.5 + 1.0})],
        # Two inputs of the fitted model rewritten by one action.
        [("update", col("z") < rng.uniform(-20, 20), {"x": col("x") + 2.0, "y": 3.0})],
        [("update", col("id") < 0, {"z": 0.0})],  # matches nothing
        [("cells", rng.choice("xyz"), cells(rng.randint(1, 6)))],
        [("invalid", "y", col("y") > rng.uniform(0, 30), None)],
        [("invalid", "z", None, rng.sample(range(ROWS), 3))],
        [("invalid", "x", col("x") > 1e12, None)],  # matches nothing
        [("invalid", "z", None, [])],
        # A multi-operation undo across two attributes, rows overlapping.
        [("cells", "x", [(3, 1.25), (4, 2.5)]), ("cells", "z", [(4, -7.0)]), ("undo", 2)],
        [("cells", rng.choice("xyz"), cells(2)), ("undo", 1)],
    ]
    rng.shuffle(blocks)
    return [step for block in blocks for step in block]


def picture(dbms, attributes):
    """Everything recovery promises to bring back, in comparable form."""
    view = dbms.view("v1")
    entries = {
        (entry.key.function, entry.key.attributes): entry
        for entry in view.summary.entries()
    }
    return {
        "rows": [
            result_to_jsonable(view.relation.column(name)) for name in attributes
        ],
        "version": view.history.version,
        "history": [operation_to_dict(op) for op in view.history.operations()],
        "stale": sorted(key for key, entry in entries.items() if entry.stale),
        "values": {
            key: result_to_jsonable(entry.result)
            for key, entry in entries.items()
            if not entry.stale
        },
    }


def assert_close(live, replayed, where):
    if isinstance(live, float) and isinstance(replayed, float):
        assert math.isclose(live, replayed, rel_tol=1e-9, abs_tol=1e-9), where
    elif isinstance(live, list):
        assert isinstance(replayed, list) and len(live) == len(replayed), where
        for a, b in zip(live, replayed):
            assert_close(a, b, where)
    else:
        assert live == replayed, where


def assert_same(live, recovered):
    for part in ("rows", "version", "history", "stale"):
        assert live[part] == recovered[part], part
    assert live["values"].keys() == recovered["values"].keys()
    for key, value in live["values"].items():
        assert_close(value, recovered["values"][key], key)


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_from_the_wal_alone(tmp_path, seed):
    rng = random.Random(f"live-replay-{seed}")
    dbms = build(tmp_path, rng)
    session = dbms.session("v1")
    warm(session)
    for step in half_stream(rng) + half_stream(rng):
        apply(session, step)

    recovered, report = recover(tmp_path)
    assert not report.checkpoint_loaded and not report.warnings
    # No snapshot, so no Summary Database and no derived column to compare:
    # the base data, the history and the epochs are the whole picture.
    live = picture(dbms, BASE)
    assert live["stale"], "the stream must leave something stale to compare"
    back = picture(recovered, BASE)
    for part in ("rows", "version", "history"):
        assert live[part] == back[part], part
    epochs = dbms.view("v1").epochs
    assert recovered.view("v1").epochs == {a: epochs[a] for a in BASE if a in epochs}
    # Every fresh live entry over base attributes equals a from-scratch
    # computation on the recovered rows.
    fresh = recovered.session("v1")
    sketches = ("approx_median", "approx_distinct", "heavy_hitters")
    for (function, attributes), value in live["values"].items():
        if len(attributes) == 1 and attributes[0] in BASE and function not in sketches:
            recomputed = result_to_jsonable(fresh.compute(function, attributes[0]))
            assert_close(value, recomputed, (function, attributes))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mid_stream", [False, True], ids=["start", "mid-stream"])
def test_replay_behind_a_checkpoint(tmp_path, seed, mid_stream):
    rng = random.Random(f"live-replay-{seed}")
    dbms = build(tmp_path, rng)
    session = dbms.session("v1")
    warm(session)
    first, second = half_stream(rng), half_stream(rng)
    if mid_stream:
        for step in first:
            apply(session, step)
        first = []
    dbms.checkpoint()
    at_checkpoint = dict(dbms.view("v1").epochs)
    for step in first + second:
        apply(session, step)

    recovered, report = recover(tmp_path)
    assert report.checkpoint_loaded and not report.warnings
    assert report.undos_replayed >= 2
    names = dbms.view("v1").schema.names
    assert_same(picture(dbms, names), picture(recovered, names))
    # Replayed writes *and* replayed undos advance the copy-on-write epochs
    # exactly as the live ones did since the snapshot.
    epochs = dbms.view("v1").epochs
    assert recovered.view("v1").epochs == {
        name: epochs[name] - at_checkpoint.get(name, 0)
        for name in epochs
        if epochs[name] != at_checkpoint.get(name, 0)
    }


STREAM_STEPS = 200


@pytest.mark.parametrize("checkpoint_after", [0, STREAM_STEPS // 2, STREAM_STEPS])
def test_the_action_stream_recovers_as_it_ran(tmp_path, checkpoint_after):
    """The maintenance = re-evaluation stream (two-input predicate updates,
    bursts naming a row twice, NA marks, undos): replayed from the WAL behind
    a snapshot, in part or not at all, it leaves the rows, the stale set and
    every fresh value — the never-refitted model included — as live."""
    rng = random.Random("live-replay-stream")
    dbms = build(tmp_path, rng)
    session = dbms.session("v1")
    warm(session)
    for number, step in enumerate(action_stream(rng, "xyz", ROWS, STREAM_STEPS)):
        if number == checkpoint_after:
            dbms.checkpoint()
        apply(session, step)
    if checkpoint_after == STREAM_STEPS:
        dbms.checkpoint()
    assert not dbms.view("v1").summary.peek("ols_model", MODEL).stale

    recovered, report = recover(tmp_path)
    assert report.checkpoint_loaded and not report.warnings
    names = dbms.view("v1").schema.names
    assert_same(picture(dbms, names), picture(recovered, names))


def test_undo_of_a_repeated_cell_replays_as_live(tmp_path):
    """One burst writes a cell twice and is undone: the log replays to the
    value the cell held before the burst, and to the same summary."""
    rng = random.Random("live-replay-repeated-cell")
    dbms = build(tmp_path, rng)
    session = dbms.session("v1")
    warm(session)
    dbms.checkpoint()
    before = dbms.view("v1").relation.row(0)
    session.update_cells("x", [(0, 10.0), (5, 1.0), (0, 20.0)])
    session.undo(1)
    assert dbms.view("v1").relation.row(0) == before

    recovered, report = recover(tmp_path)
    assert report.undos_replayed == 1 and not report.warnings
    names = dbms.view("v1").schema.names
    assert_same(picture(dbms, names), picture(recovered, names))
    assert not recovered.view("v1").summary.peek("ols_model", MODEL).stale
