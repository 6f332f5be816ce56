"""TransactionCoordinator tests: MVCC snapshots, serialized writes, quiesce."""

import threading

import pytest

from repro.concurrency import TransactionCoordinator
from repro.concurrency.groupcommit import GroupCommitter
from repro.concurrency.transactions import REGISTRY_RESOURCE
from repro.core.dbms import StatisticalDBMS
from repro.durability.manager import DurabilityManager
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.views.materialize import SourceNode, ViewDefinition


def build_dbms(durability_dir=None):
    durability = (
        DurabilityManager(durability_dir) if durability_dir is not None else None
    )
    dbms = StatisticalDBMS(durability=durability)
    schema = Schema([measure("x"), measure("y")])
    rows = [(float(i), float(i * 2)) for i in range(10)]
    dbms.load_raw(Relation("census", schema, rows))
    dbms.create_view(ViewDefinition("v", SourceNode("census")), analyst="alice")
    return dbms


class TestSessions:
    def test_session_cached_per_sid_and_view(self):
        coord = TransactionCoordinator(build_dbms())
        first = coord.session("s1", "v")
        assert coord.session("s1", "v") is first
        assert coord.session("s2", "v") is not first

    def test_release_drops_cache_and_locks(self):
        coord = TransactionCoordinator(build_dbms())
        first = coord.session("s1", "v")
        coord.locks.acquire("s1", "v")
        assert coord.release("s1") == 1
        assert coord.locks.held_by("s1") == []
        assert coord.session("s1", "v") is not first

    def test_summary_latch_installed(self):
        coord = TransactionCoordinator(build_dbms())
        session = coord.session("s1", "v")
        latch = session.view.summary.latch
        assert latch is not None
        with latch:  # usable as a context manager
            pass

    def test_summary_latch_installed_at_most_once(self):
        # A second connection opening the same view must NOT swap out the
        # latch other connections' threads may already be inside.
        coord = TransactionCoordinator(build_dbms())
        first = coord.session("s1", "v").view.summary.latch
        assert coord.session("s2", "v").view.summary.latch is first
        # Even after the first session is released, the latch survives.
        coord.release("s1")
        assert coord.session("s3", "v").view.summary.latch is first


class TestReadTransactions:
    def test_read_pins_version_and_computes(self):
        coord = TransactionCoordinator(build_dbms())
        with coord.read("s1", "v") as snap:
            assert snap.version == 0
            assert snap.compute("mean", "x") == pytest.approx(4.5)
            assert snap.operations() == []

    def test_read_sees_committed_writes(self):
        coord = TransactionCoordinator(build_dbms())
        with coord.write("s1", "v") as session:
            session.update(col("x") == 3.0, {"x": 30.0})
        with coord.read("s2", "v") as snap:
            assert snap.version > 0
            assert snap.compute("mean", "x") == pytest.approx(7.2)
            assert len(snap.operations()) == 1

    def test_rogue_write_invisible_until_publication_point(self):
        # MVCC replaces the old exit-time SnapshotError: a mutation that
        # skips coordinator.write() cannot tear an in-flight read (the
        # pinned version is immutable) — it simply stays invisible until
        # the next publication point picks it up.
        coord = TransactionCoordinator(build_dbms())
        rogue = coord.dbms.session("v", analyst="rogue")
        with coord.read("s1", "v") as snap:
            assert snap.compute("sum", "x") == pytest.approx(45.0)
            rogue.update(col("x") == 1.0, {"x": 10.0})
            # Still the published state, mid-read and after:
            assert snap.compute("sum", "x") == pytest.approx(45.0)
        with coord.read("s2", "v") as snap:
            assert snap.compute("sum", "x") == pytest.approx(45.0)
        # The next write transaction publishes, surfacing the mutation.
        with coord.write("s3", "v"):
            pass
        with coord.read("s4", "v") as snap:
            assert snap.compute("sum", "x") == pytest.approx(54.0)

    def test_reader_does_not_block_writer(self):
        # The 8-analyst cliff fix: a held read pins a version but takes
        # no view lock, so writers proceed immediately — and the reader
        # keeps serving its pinned pre-write state.
        coord = TransactionCoordinator(build_dbms(), timeout_s=0.05)
        entered = threading.Event()
        proceed = threading.Event()
        outcome = {}

        def reader():
            with coord.read("reader", "v") as snap:
                entered.set()
                proceed.wait(5)
                outcome["reader_sum"] = snap.compute("sum", "x")

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        entered.wait(1)
        try:
            with coord.write("writer", "v") as session:
                session.update(col("x") == 0.0, {"x": 100.0})
            outcome["writer"] = "entered"
        except Exception as exc:
            outcome["writer"] = type(exc).__name__
        proceed.set()
        thread.join(5)
        assert outcome["writer"] == "entered"
        assert outcome["reader_sum"] == pytest.approx(45.0)
        # A fresh read sees the committed write.
        with coord.read("after", "v") as snap:
            assert snap.compute("sum", "x") == pytest.approx(145.0)


class TestWriteTransactions:
    def test_writes_serialize(self):
        coord = TransactionCoordinator(build_dbms())
        order = []

        def writer(sid, value):
            with coord.write(sid, "v") as session:
                order.append((sid, "in"))
                session.update(col("x") == 0.0, {"y": value})
                order.append((sid, "out"))

        threads = [
            threading.Thread(target=writer, args=(f"s{i}", float(i)), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        # Strict nesting: every "in" is immediately followed by its "out".
        for i in range(0, len(order), 2):
            assert order[i][0] == order[i + 1][0]
            assert (order[i][1], order[i + 1][1]) == ("in", "out")
        assert coord.dbms.view("v").version == 4


class TestGroupCommitInstall:
    def test_installed_on_durable_dbms(self, tmp_path):
        dbms = build_dbms(tmp_path)
        TransactionCoordinator(dbms)
        assert isinstance(dbms.durability.group_commit, GroupCommitter)

    def test_not_installed_without_durability(self):
        dbms = build_dbms()
        TransactionCoordinator(dbms)
        assert dbms.durability is None

    def test_existing_committer_respected(self, tmp_path):
        dbms = build_dbms(tmp_path)
        mine = GroupCommitter(dbms.durability.wal)
        dbms.durability.group_commit = mine
        TransactionCoordinator(dbms)
        assert dbms.durability.group_commit is mine

    def test_write_through_group_commit_is_durable(self, tmp_path):
        dbms = build_dbms(tmp_path)
        coord = TransactionCoordinator(dbms)
        with coord.write("s1", "v") as session:
            session.update(col("x") == 2.0, {"x": 20.0})
        frames = dbms.durability.wal.scan().records
        kinds = [frame["t"] for frame in frames]
        assert "begin" in kinds and "commit" in kinds
        # The session write's begin record carries the wire session id.
        stamped = [f for f in frames if f["t"] == "begin" and "sid" in f]
        assert [f["sid"] for f in stamped] == ["s1"]


class TestQuiesce:
    def test_quiesce_holds_registry_then_views(self):
        coord = TransactionCoordinator(build_dbms())
        with coord.quiesce("chk"):
            assert set(coord.locks.held_by("chk")) == {REGISTRY_RESOURCE, "v"}
        assert coord.locks.held_by("chk") == []

    def test_quiesce_excludes_writers(self):
        coord = TransactionCoordinator(build_dbms(), timeout_s=0.05)
        with coord.quiesce("chk"):
            with pytest.raises(Exception, match="timed out"):
                with coord.write("s1", "v"):
                    pass

    def test_checkpoint_writes_snapshot(self, tmp_path):
        dbms = build_dbms(tmp_path)
        coord = TransactionCoordinator(dbms)
        with coord.write("s1", "v") as session:
            session.update(col("x") == 1.0, {"x": 11.0})
        path = coord.checkpoint()
        assert path.exists()
        # All locks returned afterwards.
        assert coord.locks.held_by("__checkpoint__") == []
