"""MVCC version-chain tests: reclamation, pinning, copy-on-write, teardown.

The reclamation contract under test: a pinned old version survives any
number of publications and is reclaimed only after its last reader
releases — including the release driven by the server's disconnect
teardown (``coordinator.release``), which must make an in-flight read's
own exit-time unpin a harmless no-op.
"""

import random
import sys
import threading
import time

import pytest

from repro.concurrency import (
    ConcurrentTracer,
    SnapshotReader,
    TransactionCoordinator,
)
from repro.core.dbms import StatisticalDBMS
from repro.core.errors import FunctionError, SchemaError, SnapshotError
from repro.incremental.derived import LocalDerivation
from repro.metadata.functions import StatFunction
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.server import AnalystServer, ServerClient, ServerThread
from repro.server.protocol import write_frame_sync
from repro.views.history import CellChange, Operation, OpKind
from repro.views.materialize import SourceNode, ViewDefinition
from repro.views.updates import replay_operation


def build_coordinator(tracer=None):
    dbms = StatisticalDBMS(tracer=tracer)
    schema = Schema([measure("x"), measure("y")])
    rows = [(float(i), float(i * 2)) for i in range(10)]
    dbms.load_raw(Relation("census", schema, rows))
    dbms.create_view(ViewDefinition("v", SourceNode("census")), analyst="alice")
    return TransactionCoordinator(dbms, tracer=tracer)


def write_once(coord, sid, value):
    with coord.write(sid, "v") as session:
        # Offset past the seeded y values so every write really changes
        # the cell (a no-op assignment could publish as a no-op).
        session.update(col("x") == 0.0, {"y": 100.0 + value})


class TestReclamation:
    def test_unpinned_intermediates_reclaimed_immediately(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        for i in range(4):
            write_once(coord, "w", float(i))
        # Nobody pins: only the head survives each publication.
        assert len(chain.live()) == 1
        assert chain.seq == 5  # bootstrap + 4 writes

    def test_pinned_version_survives_publishes(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        pinned = chain.pin("reader")
        for i in range(5):
            write_once(coord, "w", float(i))
        live = chain.live()
        # Exactly the pinned original and the current head survive.
        assert [v.seq for v in live] == [pinned.seq, chain.seq]
        assert chain.pins() == {pinned.seq: {"reader": 1}}
        # The frozen state is still fully readable mid-churn.
        assert pinned.columns["x"] == tuple(float(i) for i in range(10))

    def test_reclaimed_only_after_last_reader_releases(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        pinned = chain.pin("r1")
        also = chain.pin("r2")
        assert also is pinned
        write_once(coord, "w", 1.0)
        chain.unpin("r1", pinned)
        assert [v.seq for v in chain.live()] == [pinned.seq, chain.seq]
        chain.unpin("r2", pinned)
        assert [v.seq for v in chain.live()] == [chain.seq]

    def test_unpin_is_idempotent(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        pinned = chain.pin("r1")
        chain.unpin("r1", pinned)
        chain.unpin("r1", pinned)  # already gone: no error, no underflow
        assert chain.pins() == {}

    def test_pin_before_any_publication_raises(self):
        coord = build_coordinator()
        from repro.concurrency.mvcc import VersionChain

        chain = VersionChain("v")
        del coord
        with pytest.raises(SnapshotError, match="no published version"):
            chain.pin("r1")

    def test_release_all_drops_every_pin_for_the_sid(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        old = chain.pin("r1")
        chain.pin("r1")  # refcount 2 on the same version
        write_once(coord, "w", 1.0)
        newer = chain.pin("r1")
        assert newer is not old
        assert chain.release_all("r1") == 3
        assert chain.pins() == {}
        assert [v.seq for v in chain.live()] == [chain.seq]


class TestDisconnectTeardown:
    def test_release_mid_read_is_safe_and_reclaims(self):
        # The server's disconnect path calls coordinator.release(sid) even
        # while that session's read may still be in flight on a worker
        # thread.  The release drops the pin; the read keeps serving its
        # immutable version and its exit-time unpin is a no-op.
        coord = build_coordinator()
        in_read = threading.Event()
        proceed = threading.Event()
        outcome = {}

        def reader():
            try:
                with coord.read("ghost", "v") as snap:
                    in_read.set()
                    proceed.wait(5)
                    outcome["sum"] = snap.compute("sum", "x")
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        assert in_read.wait(5)
        coord.release("ghost")  # what server._teardown drives on disconnect
        chain = coord.chain("boot", "v")
        assert chain.pins() == {}
        write_once(coord, "w", 1.0)
        # The ghost's old version is already gone: nothing pins it.
        assert len(chain.live()) == 1
        proceed.set()
        thread.join(5)
        assert "error" not in outcome, outcome
        assert outcome["sum"] == pytest.approx(45.0)
        assert chain.pins() == {}

    def test_server_disconnect_releases_and_chain_stays_bounded(self):
        tracer = ConcurrentTracer()
        coord = build_coordinator(tracer)
        server = AnalystServer(coord.dbms, coordinator=coord, tracer=tracer)
        thread = ServerThread(server).start()
        try:
            with ServerClient(port=thread.port, timeout_s=10) as idle:
                idle.handshake("hopper")
                idle.open_view("v")
                # One of each worker-path read: a cold query (bootstrap +
                # memo miss), a bulk column fetch, the history.
                idle.query("v", "mean", "x")
                idle.columns("v", ["x", "y"])
                idle.history("v")
                # Served and now idle: the connection retains nothing —
                # each read unpinned before its response was sent.
                chain = coord.chain("boot", "v")
                assert chain.pins() == {}
                with ServerClient(port=thread.port, timeout_s=10) as conn:
                    conn.handshake("grace")
                    conn.open_view("v")
                    for i in range(5):
                        conn.update("v", {"y": float(i)})
                        conn.query("v", "sum", "y")
                # The idle connection is still open, yet only the head
                # survives: no read path keeps a dead version alive.
                assert len(chain.live()) == 1
                assert chain.pins() == {}
            totals = tracer.counter_totals()
            assert totals.get("mvcc.reclaim", 0) >= 1
        finally:
            thread.stop()

    def test_disconnect_mid_columns_leaves_no_pin(self, monkeypatch):
        in_read = threading.Event()
        proceed = threading.Event()
        real_column = SnapshotReader.column

        def slow_column(reader, attribute):
            in_read.set()
            proceed.wait(5)
            return real_column(reader, attribute)

        monkeypatch.setattr(SnapshotReader, "column", slow_column)
        coord = build_coordinator()
        thread = ServerThread(AnalystServer(coord.dbms, coordinator=coord)).start()
        try:
            conn = ServerClient(port=thread.port, timeout_s=10)
            conn.handshake("ghost")
            write_frame_sync(
                conn._sock,
                {"op": "columns", "id": 99, "view": "v", "attributes": ["x"]},
            )
            assert in_read.wait(5)
            chain = coord.chain("boot", "v")
            # Pinned under the connection's own sid — the one the
            # disconnect teardown releases.
            assert chain.pins() == {chain.seq: {conn.sid: 1}}
            conn._sock.close()  # vanish without reading the response
            proceed.set()
            deadline = time.monotonic() + 5
            while chain.pins() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert chain.pins() == {}
            write_once(coord, "w", 1.0)
            assert len(chain.live()) == 1
        finally:
            proceed.set()
            thread.stop()


class TestBootstrap:
    def test_racing_first_reads_publish_exactly_once(self):
        tracer = ConcurrentTracer()
        coord = build_coordinator(tracer)
        readers = 8
        barrier = threading.Barrier(readers)
        sums = []
        errors = []

        def first_read(index):
            try:
                barrier.wait(5)
                with coord.read(f"r{index}", "v") as snap:
                    sums.append((snap.pinned.seq, snap.compute("sum", "x")))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=first_read, args=(i,), daemon=True)
            for i in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert all(not thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sums == [(1, pytest.approx(45.0))] * readers
        assert tracer.counter_totals()["mvcc.publish"] == 1
        assert coord.chain("boot", "v").pins() == {}
        assert coord.locks.holder("v") is None


class TestCopyOnWrite:
    def test_untouched_columns_are_shared_by_reference(self):
        tracer = ConcurrentTracer()
        coord = build_coordinator(tracer)
        chain = coord.chain("boot", "v")
        before = chain.pin("r1")
        with coord.write("w", "v") as session:
            session.update(col("x") == 0.0, {"y": 99.0})
        after = chain.latest()
        assert after is not before
        # "y" changed: fresh chunk.  "x" did not: the frozen tuple is the
        # very same object, not a copy.
        assert after.columns["y"] != before.columns["y"]
        assert after.columns["x"] is before.columns["x"]
        totals = tracer.counter_totals()
        assert totals.get("mvcc.cow_shared", 0) >= 1
        assert totals.get("mvcc.cow_copied", 0) >= 1

    def test_undo_invalidates_sharing_for_the_restored_column(self):
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        with coord.write("w", "v") as session:
            session.update(col("x") == 0.0, {"y": 99.0})
        touched = chain.latest()
        with coord.write("w", "v") as session:
            session.undo(1)
        restored = chain.latest()
        # The undo bumped y's epoch: no stale share of the pre-undo chunk.
        assert restored.columns["y"] != touched.columns["y"]
        assert restored.columns["y"] == tuple(float(i * 2) for i in range(10))

    def test_pinned_columns_stay_frozen_while_the_cell_is_rewritten(self):
        # Publication copies the relation's live vector; a version that
        # held the vector itself would change under its pinned reader.
        coord = build_coordinator()
        chain = coord.chain("boot", "v")
        pinned = chain.pin("r1")
        at_pin = {name: list(values) for name, values in pinned.columns.items()}
        for step in ("write", "write", "undo", "write"):
            with coord.write("w", "v") as session:
                if step == "undo":
                    session.undo(1)
                else:
                    session.update(col("x") == 4.0, {"y": session.view.version + 50.0})
        assert coord.dbms.view("v").relation.column("y")[4] == chain.latest().columns["y"][4]
        assert chain.latest().columns["y"][4] != at_pin["y"][4]
        for name, values in pinned.columns.items():
            assert type(values) is tuple
            assert list(values) == at_pin[name]
        chain.unpin("r1", pinned)

    @pytest.mark.parametrize("how", ["update", "undo", "replay"])
    def test_derived_cells_are_published_with_the_write_that_recomputed_them(self, how):
        # The recompute of a derived cell is a write like any other: it is
        # counted where it happens (Relation.set_value), so the version
        # published after it cannot share the predecessor's derived column.
        coord = build_coordinator()
        coord.dbms.view("v").add_derived_column(LocalDerivation("double", col("y") * 2))
        with coord.read("r", "v") as snap:
            assert (snap.column("y")[3], snap.column("double")[3]) == (6.0, 12.0)
        with coord.write("w", "v") as session:
            session.update(col("x") == 3.0, {"y": 10.0})
        expected = (10.0, 20.0)
        if how == "undo":
            with coord.write("w", "v") as session:
                session.undo(1)
            expected = (6.0, 12.0)
        elif how == "replay":
            with coord.write("w", "v") as session:
                logged = Operation(
                    version=session.view.version + 1,
                    kind=OpKind.UPDATE,
                    attribute="y",
                    changes=(CellChange(row=3, old=10.0, new=-4.0),),
                )
                replayed = replay_operation(session.view, logged)
                session.propagator.propagate_operations([replayed])
            expected = (-4.0, -8.0)
        with coord.read("r", "v") as snap:
            assert (snap.column("y")[3], snap.column("double")[3]) == expected
        view = coord.dbms.view("v")
        assert (view.relation.row(3)[1], view.relation.row(3)[2]) == expected


class TestVersionMemo:
    def test_repeated_compute_hits_the_version_memo(self):
        tracer = ConcurrentTracer()
        coord = build_coordinator(tracer)
        with coord.read("s1", "v") as snap:
            first = snap.compute("sum", "x")
        with coord.read("s2", "v") as snap:
            # Same pinned version: the result is served from its memo.
            assert snap.compute("sum", "x") == first
        totals = tracer.counter_totals()
        assert totals.get("mvcc.memo_hit", 0) >= 1

    def test_publication_summary_snapshot_is_served(self):
        # A result the *writer* cached in the live Summary Database is
        # captured at publication and served without recompute.
        coord = build_coordinator()
        session = coord.session("warm", "v")
        session.compute("mean", "x")  # fills the live summary cache
        with coord.write("w", "v") as ws:
            ws.update(col("x") == 999.0, {"y": 0.0})  # no-op match, publishes
        with coord.read("s1", "v") as snap:
            hit, value = snap.pinned.cached(("mean", ("x",)))
            assert hit
            assert snap.compute("mean", "x") == pytest.approx(value)


class TestOneCataloguePinnedCompute:
    """The pinned reader has one ``compute``: whatever the catalogue row's
    arity, the same probe -> check -> demand -> evaluate -> memoize path."""

    def test_wrong_attribute_count_says_so(self):
        coord = build_coordinator()
        with coord.read("s1", "v") as snap:
            with pytest.raises(
                FunctionError, match=r"'pearson' takes 2 attribute\(s\), got 1"
            ):
                snap.compute("pearson", "x")
            with pytest.raises(
                FunctionError, match=r"'mean' takes 1 attribute\(s\), got 2"
            ):
                snap.compute("mean", ("x", "y"))
            with pytest.raises(FunctionError, match="2 or more"):
                snap.compute("ols_model", ("x",))
            with pytest.raises(FunctionError, match="2 to 3"):
                snap.compute("crosstab", ("x", "y", "x", "y"))
            # An unknown name still lists the known ones, all of them rows.
            with pytest.raises(FunctionError, match="known:.*ols_model.*pearson"):
                snap.compute("mutual_information", ("x", "y"))
            with pytest.raises(SchemaError, match="pinned version"):
                snap.compute("pearson", ("x", "nope"))
        # Nothing a check rejected was registered for writer warming.
        assert coord.chain("s1", "v").demanded() == []

    def test_evaluators_read_the_frozen_tuples(self):
        coord = build_coordinator()
        seen = []
        coord.dbms.management.functions.register(
            StatFunction("probe", lambda values: seen.append(values))
        )
        with coord.read("s1", "v") as snap:
            snap.compute("probe", "x")
            (values,) = seen
            assert values is snap.pinned.columns["x"]  # no per-miss copy
            assert isinstance(values, tuple)  # ... and nothing to mutate
            assert isinstance(snap.column("x"), list)  # the wire shape stays

    @pytest.mark.parametrize("seed", range(3))
    def test_live_and_pinned_agree_at_every_publication(self, seed):
        """A seeded update/undo stream; one key of each arity."""
        rng = random.Random(seed)
        coord = build_coordinator()
        keys = [
            ("mean", ("y",)),
            ("pearson", ("x", "y")),
            ("ols_model", ("y", "x")),
            ("crosstab", ("x", "y", "y")),
        ]

        def close(a, b):
            if isinstance(a, (list, tuple)):
                return len(a) == len(b) and all(map(close, a, b))
            return a == (pytest.approx(b, rel=1e-9, abs=1e-9) if isinstance(b, float) else b)

        depth = 0
        for _ in range(25):
            with coord.write("w", "v") as session:
                if depth and rng.random() < 0.3:
                    session.undo()
                    depth -= 1
                else:
                    cell = (rng.randrange(10), float(rng.randint(-50, 50)))
                    session.update_cells("y", [cell])
                    depth += 1
            with coord.read("r", "v") as snap:
                assert snap.version == session.view.version
                for function, attributes in keys:
                    live = session.compute(function, attributes)
                    pinned = snap.compute(function, attributes)
                    assert close(pinned, live), (function, snap.version)
        # Every key a reader missed on is warmed by the writer from then
        # on, so the head publishes all four, whatever their arity.
        chain = coord.chain("w", "v")
        assert sorted(chain.demanded()) == sorted(keys)
        assert set(keys) <= set(chain.head().summary)
