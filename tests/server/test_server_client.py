"""Wire server + blocking client: ops, errors, admission control."""

import threading

import pytest

from repro.concurrency import ConcurrentTracer
from repro.core.dbms import StatisticalDBMS
from repro.core.errors import ServerError
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.server import AnalystServer, ServerClient, ServerThread
from repro.views.materialize import SourceNode, ViewDefinition


def build_dbms(tracer=None):
    dbms = StatisticalDBMS(tracer=tracer)
    schema = Schema([measure("x"), measure("y")])
    rows = [(float(i), float(i * 2)) for i in range(10)]
    dbms.load_raw(Relation("census", schema, rows))
    dbms.create_view(ViewDefinition("v", SourceNode("census")), analyst="alice")
    return dbms


@pytest.fixture
def running():
    """A served DBMS; yields (thread, tracer) with teardown."""
    tracer = ConcurrentTracer()
    server = AnalystServer(build_dbms(tracer), tracer=tracer, allow_debug=True)
    thread = ServerThread(server).start()
    yield thread, tracer
    thread.stop()


@pytest.fixture
def client(running):
    thread, _ = running
    with ServerClient(port=thread.port) as conn:
        conn.handshake("alice")
        yield conn


class TestBasicOps:
    def test_handshake_assigns_sid_and_lists_views(self, running):
        thread, _ = running
        with ServerClient(port=thread.port) as conn:
            result = conn.handshake("bob")
            assert result["sid"] == conn.sid
            assert result["analyst"] == "bob"
            assert "v" in result["views"]

    def test_sids_are_distinct(self, running):
        thread, _ = running
        with ServerClient(port=thread.port) as a, ServerClient(port=thread.port) as b:
            assert a.handshake("a")["sid"] != b.handshake("b")["sid"]

    def test_open_view_metadata(self, client):
        result = client.open_view("v")
        assert result == {
            "view": "v",
            "version": 0,
            "rows": 10,
            "attributes": ["x", "y"],
        }

    def test_query_mean(self, client):
        result = client.query("v", "mean", "x")
        assert result["value"] == pytest.approx(4.5)
        assert result["version"] == 0

    def test_query_pair(self, client):
        result = client.query("v", "pearson", attributes=["x", "y"])
        assert result["value"] == pytest.approx(1.0)

    def test_update_then_query(self, client):
        result = client.update(
            "v", {"x": 100.0}, where={"attribute": "x", "equals": 0.0}
        )
        assert result["version"] > 0
        assert client.query("v", "mean", "x")["value"] == pytest.approx(14.5)

    def test_undo_reverts(self, client):
        client.update("v", {"x": 100.0}, where={"attribute": "x", "equals": 0.0})
        assert client.undo("v")["undone"] == 1
        assert client.query("v", "mean", "x")["value"] == pytest.approx(4.5)

    def test_undo_past_history_is_noop(self, client):
        assert client.undo("v", count=5)["undone"] == 0

    def test_columns_snapshot(self, client):
        result = client.columns("v", ["x", "y"])
        assert result["columns"]["x"][:3] == [0.0, 1.0, 2.0]
        assert result["columns"]["y"][:3] == [0.0, 2.0, 4.0]

    def test_history_lists_operations(self, client):
        client.update("v", {"x": 1.5}, where={"attribute": "x", "equals": 1.0})
        ops = client.history("v")["operations"]
        assert len(ops) == 1
        assert ops[0]["attribute"] == "x"

    def test_publish_adopt_roundtrip(self, running):
        thread, _ = running
        with ServerClient(port=thread.port) as alice, ServerClient(
            port=thread.port
        ) as bob:
            alice.handshake("alice")
            bob.handshake("bob")
            published = alice.publish("v")
            assert published["publisher"] == "alice"
            adopted = bob.adopt("v", "bobs_copy")
            assert adopted == {"view": "bobs_copy", "rows": 10}

    def test_server_owns_two_executors(self, client):
        # Worker-path reads (cold query, bulk columns) and writes share
        # the one worker pool; handshake/stats/teardown use the inline one.
        client.query("v", "mean", "x")
        client.columns("v", ["x", "y"])
        client.update("v", {"y": 1.0})
        client.stats()
        pools = {
            thread.name.rsplit("_", 1)[0]
            for thread in threading.enumerate()
            if thread.name.startswith("repro-") and thread.name != "repro-server"
        }
        assert pools == {"repro-worker", "repro-inline"}

    def test_stats_exposes_counters(self, client):
        client.query("v", "mean", "x")
        stats = client.stats()
        assert stats["counters"]["server.request"] >= 1
        assert stats["counters"]["lock.grant"] >= 1
        assert "v" in stats["views"]
        filtered = client.stats(prefix="server.")
        assert all(k.startswith("server.") for k in filtered["counters"])


class TestErrors:
    def test_unknown_op(self, client):
        with pytest.raises(ServerError) as exc:
            client.call("frobnicate")
        assert exc.value.code == "unknown_op"

    def test_missing_view_maps_to_error_code(self, client):
        with pytest.raises(ServerError) as exc:
            client.query("nope", "mean", "x")
        assert exc.value.code in {"ViewError", "MetadataError"}

    @pytest.mark.parametrize(
        "op,params",
        [
            ("query", {"view": "v"}),  # no function
            ("query", {"view": "v", "function": "mean"}),  # no attribute(s)
            ("query", {"view": "v", "function": "mean", "attributes": ["x"]}),
            ("update", {"view": "v"}),  # no assignments
            ("update", {"view": "v", "assignments": {"x": 1.0}, "where": {}}),
            ("undo", {"view": "v", "count": "many"}),
            ("adopt", {"view": "v"}),  # no new_name
            ("columns", {"view": "v", "attributes": []}),
            ("query", {"view": "v", "function": 7, "attribute": "x"}),
            ("query", {"view": "v", "function": "mean", "attributes": "xy"}),
            ("query", {"view": "v", "function": "corr", "attributes": ["x", "y", "x"]}),
            ("query", {"function": "mean", "attribute": "x"}),  # no view
            ("history", {}),  # no view
        ],
    )
    def test_malformed_request_answers_error_frame(self, client, op, params):
        # A bad request must produce an error response, never a
        # connection teardown (which would release the session's locks).
        with pytest.raises(ServerError) as cold:
            client.call(op, **params)
        assert cold.value.code == "protocol"
        # The connection survives and keeps working.
        assert client.query("v", "mean", "x")["value"] == pytest.approx(4.5)
        # That query published the view and memoized its answer, so a
        # query is now probed on the event loop before it reaches a
        # worker: the same bad shape must answer the same error.
        with pytest.raises(ServerError) as warm:
            client.call(op, **params)
        assert (warm.value.code, str(warm.value)) == ("protocol", str(cold.value))

    def test_wrong_attribute_count_says_so(self, client):
        """A well-formed query of the wrong arity is the catalogue's error,
        in both directions — not "unknown function"."""
        with pytest.raises(ServerError) as exc:
            client.query("v", "pearson", "x")
        assert exc.value.code == "FunctionError"
        assert "function 'pearson' takes 2 attribute(s), got 1" in str(exc.value)
        with pytest.raises(ServerError) as exc:
            client.query("v", "mean", attributes=["x", "y"])
        assert exc.value.code == "FunctionError"
        assert "function 'mean' takes 1 attribute(s), got 2" in str(exc.value)
        # An unknown name still lists the known ones — every cached kind.
        with pytest.raises(ServerError) as exc:
            client.query("v", "mutual_information", attributes=["x", "y"])
        assert exc.value.code == "FunctionError"
        assert "'pearson'" in str(exc.value) and "'ols_model'" in str(exc.value)
        # Two-attribute catalogue rows other than correlations are served.
        table = client.query("v", "crosstab", attributes=["x", "y"])["value"]
        assert table[0] == [repr(float(i)) for i in range(10)]

    def test_non_numeric_timeout_is_protocol_error(self, client):
        with pytest.raises(ServerError) as exc:
            client.call("query", view="v", function="mean", attribute="x", timeout_s="soon")
        assert exc.value.code == "protocol"
        with pytest.raises(ServerError) as exc:
            client.call("query", view="v", function="mean", attribute="x", timeout_s=-1)
        assert exc.value.code == "protocol"

    def test_debug_disabled_by_default(self):
        server = AnalystServer(build_dbms())
        thread = ServerThread(server).start()
        try:
            with ServerClient(port=thread.port) as conn:
                conn.handshake("x")
                with pytest.raises(ServerError) as exc:
                    conn.call("debug_sleep", seconds=0.01)
                assert exc.value.code == "forbidden"
        finally:
            thread.stop()


class TestAdmission:
    def test_queue_full_rejects(self):
        tracer = ConcurrentTracer()
        server = AnalystServer(
            build_dbms(tracer),
            tracer=tracer,
            allow_debug=True,
            max_workers=1,
            max_inflight=1,
            max_queue=1,
        )
        thread = ServerThread(server).start()
        try:
            # Four concurrent one-second sleeps against 1 worker slot and
            # a queue of 1: at most two can be admitted (one in flight,
            # one queued), so at least two must bounce with "busy".
            outcomes = []
            latch = threading.Lock()

            def sleeper(index):
                with ServerClient(port=thread.port) as conn:
                    conn.handshake(f"sleeper{index}")
                    try:
                        conn.call("debug_sleep", seconds=1.0)
                        result = "ok"
                    except ServerError as exc:
                        result = exc.code
                    with latch:
                        outcomes.append(result)

            workers = [
                threading.Thread(target=sleeper, args=(i,), daemon=True)
                for i in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(15)
            assert outcomes.count("ok") >= 1
            assert outcomes.count("busy") >= 2
            assert set(outcomes) <= {"ok", "busy"}
        finally:
            thread.stop()

    def test_deadline_times_out(self, client):
        with pytest.raises(ServerError) as exc:
            client.call("debug_sleep", seconds=2.0, timeout_s=0.1)
        assert exc.value.code == "timeout"

    def test_timeout_does_not_free_the_worker_slot_early(self):
        # A timed-out request's thread keeps running; its inflight slot
        # must stay occupied until the thread actually finishes, so
        # max_inflight bounds real concurrent executions.
        server = AnalystServer(
            build_dbms(), allow_debug=True, max_workers=2, max_inflight=1
        )
        thread = ServerThread(server).start()
        try:
            import time

            with ServerClient(port=thread.port) as conn:
                conn.handshake("impatient")
                start = time.monotonic()
                with pytest.raises(ServerError) as exc:
                    conn.call("debug_sleep", seconds=0.6, timeout_s=0.1)
                assert exc.value.code == "timeout"
                # The follow-up must wait for the abandoned thread's slot.
                result = conn.call("debug_sleep", seconds=0.05)
                assert result["slept"] == pytest.approx(0.05)
                assert time.monotonic() - start >= 0.6
        finally:
            thread.stop()

    def test_locks_released_on_disconnect(self, running):
        thread, tracer = running
        with ServerClient(port=thread.port) as conn:
            conn.handshake("alice")
            conn.query("v", "mean", "x")
        # A second connection can immediately write: no lock leaked.
        with ServerClient(port=thread.port) as conn:
            conn.handshake("bob")
            result = conn.update(
                "v", {"x": 5.5}, where={"attribute": "x", "equals": 5.0}
            )
            assert result["version"] > 0
        assert tracer.counter_totals()["server.close"] >= 1
