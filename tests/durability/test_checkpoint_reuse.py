"""A checkpoint reuses the bytes it already encoded, and writes what a cold one would.

:class:`~repro.durability.checkpoint.Checkpointer` keeps each column's bytes
by write epoch.  A Hypothesis state machine drives a durable
DBMS of two registered views plus an adopted copy whose history is written
inline — updates (NA, and an int over an equal float: ``3`` and ``3.0``
compare equal but encode differently), undos, drop and re-create under the
same name, checkpoints that fail, recovery — and after every checkpoint the
file must be byte-equal to a fresh checkpointer's encoding, to the whole
document encoded at once, and must recover to the live rows, history and
summary.  Work is asserted as exact counts of what was encoded and reused.
"""

import gc
import shutil
import tempfile
import weakref

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core.dbms import StatisticalDBMS
from repro.core.errors import InjectedFault, MetadataError
from repro.durability.checkpoint import SNAPSHOT_FORMAT, Checkpointer, _summary_to_list
from repro.durability.faults import FaultInjector, FaultPlan
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.metadata.persistence import (
    dumps,
    history_to_dict,
    management_to_dict,
    operation_to_dict,
    splice,
    view_to_record,
)
from repro.obs.tracer import Tracer
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import NA, DataType
from repro.views.materialize import SourceNode, ViewDefinition
from repro.views.view import ConcreteView

from tests.durability.helpers import durable_dbms

ROWS = 6
ATTRIBUTES = ("id", "x", "y")
WORK = ("columns_encoded", "columns_reused")


def whole_document(dbms):
    """The snapshot as one dict, to be encoded in one call."""
    registered = set(dbms.management.view_names())
    views = []
    for name in dbms.registry.names():
        view = dbms.registry.get(name)
        record = {
            "name": name,
            **view_to_record(view),
            "summary": _summary_to_list(view.summary),
        }
        if name not in registered:
            record["history"] = history_to_dict(view.history)
        views.append(record)
    return {
        "format": SNAPSHOT_FORMAT,
        "management": management_to_dict(dbms.management),
        "views": views,
    }


def people():
    schema = Schema([Attribute("id", DataType.INT)] + [
        Attribute(name, DataType.FLOAT) for name in ATTRIBUTES[1:]
    ])
    return Relation("people", schema, [(i, float(i), float(-i)) for i in range(ROWS)])


def picture(dbms, summary=True):
    """Rows (types included), history and, if asked, summary of every view."""
    return {
        name: (
            [dumps(view.relation.column(a)) for a in view.schema.names],
            [operation_to_dict(op) for op in view.history.operations()],
            view.history.version,
            dumps(_summary_to_list(view.summary)) if summary else None,
        )
        for name in dbms.registry.names()
        for view in [dbms.view(name)]
    }


def adopt_inline(dbms, name):
    """``adopt_published`` for a view with no definition: the copy is not

    registered in the Management Database, so its history is written inline."""
    view = ConcreteView(name, dbms.view("v1").relation.copy(name), owner="bob")
    dbms.registry.register(view)
    dbms.durability.log_view_created(view)


def work_done(tracer):
    return {name: tracer.total(f"checkpoint.{name}") for name in WORK}


_VALUES = st.one_of(
    st.sampled_from([3, 3.0, NA, -0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class CheckpointReuse(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="ckpt-reuse-")
        self.dbms = StatisticalDBMS(durability=DurabilityManager(self.directory))
        self.dbms.load_raw(people())
        for name in ("v1", "v2"):
            self.dbms.create_view(
                ViewDefinition(name, SourceNode("people")), allow_duplicate=True
            )
        self.dbms.session("v1").compute("sum", "x")
        self.dbms.session("v2").compute("mean", "y")
        self.on_disk = None

    def teardown(self):
        self.dbms.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _views(self):
        return self.dbms.registry.names()

    @rule(data=st.data(), value=_VALUES)
    def update(self, data, value):
        name = data.draw(st.sampled_from(self._views()))
        attribute = data.draw(st.sampled_from(ATTRIBUTES[1:]))
        row = data.draw(st.integers(0, ROWS - 1))
        self.dbms.session(name).update_cells(attribute, [(row, value)])

    @rule(data=st.data(), value=_VALUES)
    def undo(self, data, value):
        """Undo, then maybe write again: an undo writes the old cells back,
        so it must advance the epochs as any write does."""
        name = data.draw(st.sampled_from(self._views()))
        session = self.dbms.session(name)
        if len(session.view.history):
            session.undo(data.draw(st.integers(1, min(3, len(session.view.history)))))
        if data.draw(st.booleans()):
            session.update_cells("x", [(data.draw(st.integers(0, ROWS - 1)), value)])

    @precondition(lambda self: "mine" not in self.dbms.registry.names())
    @rule()
    def adopt(self):
        adopt_inline(self.dbms, "mine")

    @rule(data=st.data())
    def drop_and_recreate(self, data):
        name = data.draw(st.sampled_from([n for n in self._views() if n != "v1"] or ["v2"]))
        if name not in self._views():
            return
        gone = weakref.ref(self.dbms.view(name).relation)
        self.dbms.drop_view(name)
        gc.collect()
        assert gone() is None
        live = {id(self.dbms.view(n).relation) for n in self._views()}
        assert {id(relation) for relation in self._cache()} <= live
        if name == "mine":
            adopt_inline(self.dbms, name)
        else:
            self.dbms.create_view(
                ViewDefinition(name, SourceNode("people")), allow_duplicate=True
            )

    def _cache(self):
        return list(self.dbms.durability.checkpointer._columns.keys())

    @rule(plan=st.sampled_from(
        [FaultPlan(fail_on_write=1), FaultPlan(fail_on_replace=1)]
    ))
    def failed_checkpoint(self, plan):
        checkpointer = self.dbms.durability.checkpointer
        healthy, checkpointer.faults = checkpointer.faults, FaultInjector(plan)
        try:
            with pytest.raises(InjectedFault):
                self.dbms.checkpoint()
        finally:
            checkpointer.faults = healthy
        path = checkpointer.path
        assert (path.read_bytes() if path.exists() else None) == self.on_disk

    @rule()
    def checkpoint(self):
        path = self.dbms.checkpoint()
        self.on_disk = path.read_bytes()
        assert self.on_disk == Checkpointer(self.directory).encode(self.dbms)
        assert self.on_disk == dumps(whole_document(self.dbms))
        recovered, report = recover(self.directory)
        recovered.durability.close()
        assert report.checkpoint_loaded and report.transactions_committed == 0
        assert picture(recovered) == picture(self.dbms)

    @rule()
    def recover_and_continue(self):
        """The recovered system carries on with a cold checkpointer.  Summary

        entries computed since the last checkpoint are a cache, not logged."""
        before = picture(self.dbms, summary=False)
        self.dbms.durability.close()
        self.dbms, _ = recover(self.directory)
        self.dbms.load_raw(people())  # the tape is reloaded, not recovered
        assert picture(self.dbms, summary=False) == before


CheckpointReuse.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestCheckpointReuse = CheckpointReuse.TestCase


# -- work is proportional to change -------------------------------------------


def test_a_checkpoint_encodes_only_what_changed_since_the_last(tmp_path):
    tracer = Tracer()
    dbms = durable_dbms(tmp_path, rows=40, tracer=tracer)
    session = dbms.session("v1")
    for row in range(30):
        session.update_cells("x", [(row, row + 0.5)])
    dbms.checkpoint()
    assert work_done(tracer) == dict(zip(WORK, (2, 0)))

    def since(step):
        done = work_done(tracer)
        step()
        dbms.checkpoint()
        payload = dbms.durability.checkpoint_path.read_bytes()
        assert payload == Checkpointer(tmp_path).encode(dbms)
        return tuple(tracer.total(f"checkpoint.{k}") - done[k] for k in WORK)

    def seven_writes():
        for row in range(7):
            session.update_cells("x", [(row, -1.0)])

    assert since(seven_writes) == (1, 1)  # "x" is encoded, "id" reused
    assert since(lambda: None) == (0, 2)
    assert since(lambda: session.undo(3)) == (1, 1)


def test_a_cell_that_cannot_be_persisted_is_refused_after_a_cached_checkpoint(tmp_path):
    dbms = durable_dbms(tmp_path)
    dbms.checkpoint()
    path = dbms.durability.checkpoint_path
    before = path.read_bytes()
    dbms.view("v1").relation.set_value(3, "x", [1.0, 2.0])  # a list would come back a list
    with pytest.raises(MetadataError, match="list"):
        dbms.checkpoint()
    assert path.read_bytes() == before
    assert not path.with_name(path.name + ".tmp").exists()


def test_splice_joins_to_the_document_encoded_at_once():
    document = {"a": [1, NA, "é"], "b": {"c": 2.5}, "d": [{"e": []}], "f": []}
    inner = splice({"e": []})
    parts = {"a": dumps(document["a"]), "b": document["b"], "d": splice([inner]), "f": []}
    assert b"".join(splice(parts)) == dumps(document)
    assert b"".join(splice([dumps(1), dumps([3.0, NA]), splice([])])) == dumps(
        [1, [3.0, NA], []]
    )
    with pytest.raises(MetadataError):  # bytes inside a value is refused
        splice({"a": {"b": b"1"}})
