"""Counters the instrumented subsystems charge to an injected tracer."""

from collections import Counter

from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.obs.tracer import NullTracer, Tracer
from repro.relational.expressions import col
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, measure
from repro.relational.types import DataType
from repro.relational.vectorized import VecProject, VecScan, VecSelect
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.views.view import ConcreteView


def make_session(tracer=None, n=50):
    schema = Schema([measure("x", DataType.FLOAT)])
    relation = Relation("v", schema, [(float(i),) for i in range(n)])
    view = ConcreteView("v", relation)
    return AnalystSession(ManagementDatabase(), view, analyst="p", tracer=tracer)


class TestStorageCounters:
    def test_pool_hits_misses_evictions(self):
        tracer = Tracer()
        pool = BufferPool(SimulatedDisk(block_size=256), capacity=4, tracer=tracer)
        heap = HeapFile(pool, [DataType.INT], name="h", tracer=tracer)
        heap.insert_many([(i,) for i in range(500)])
        tracer.reset()
        list(heap.scan())
        assert tracer.total("heap.pages_read") > 1
        assert tracer.total("heap.records") == 500
        assert tracer.total("pool.hit") + tracer.total("pool.miss") > 0
        # 500 ints never fit in a 4-page pool: the sweep must evict.
        assert tracer.total("pool.eviction") > 0

    def test_transposed_counters(self):
        tracer = Tracer()
        pool = BufferPool(SimulatedDisk(block_size=256), capacity=64, tracer=tracer)
        tf = TransposedFile(pool, [DataType.FLOAT, DataType.FLOAT], name="t", tracer=tracer)
        tf.append_rows([(float(i), float(-i)) for i in range(300)])
        tracer.reset()
        chunks = list(tf.scan_column_chunks([0], chunk_size=64))
        assert tracer.total("transposed.chunks") == len(chunks) > 0
        assert tracer.total("transposed.pages_read") > 0


class TestSummaryCounters:
    def test_hit_miss_refresh_per_function(self):
        tracer = Tracer()
        session = make_session(tracer)
        session.compute("mean", "x")  # miss
        session.compute("mean", "x")  # hit
        assert tracer.total("summary.miss.mean") == 1
        assert tracer.total("summary.hit.mean") == 1

    def test_stale_counter_on_update(self):
        tracer = Tracer()
        session = make_session(tracer)
        session.compute_pair("pearson", "x", "x")
        session.compute("trimmed_mean", "x")
        session.update_cells("x", [(0, 99.0)])
        assert tracer.total("summary.stale.pearson") == 1
        # One event, one name, whichever layer sent the entry stale — and
        # only on the fresh -> stale transition.
        assert tracer.total("summary.stale.trimmed_mean") == 1
        session.update_cells("x", [(1, 98.0)])
        assert tracer.total("summary.stale.pearson") == 1
        assert tracer.total("summary.stale.trimmed_mean") == 1


class TestPropagationSpans:
    def test_rule_counters_under_propagate_span(self):
        tracer = Tracer()
        session = make_session(tracer)
        session.compute("mean", "x")
        session.compute("median", "x")
        session.update_cells("x", [(1, 42.0)])
        propagate = tracer.find("propagate")
        assert propagate is not None
        assert propagate.attrs["attribute"] == "x"
        assert propagate.counters["entries_visited"] == 2
        assert propagate.counters["rule.mean.incremental"] == 1
        assert propagate.counters["incremental_updates"] == 2

    def test_rule_counters_have_one_shape_whatever_the_arity(self):
        tracer = Tracer()
        schema = Schema([measure(name) for name in ("y", "x1", "x2")])
        rows = [(2.0 * i + i % 3, float(i), float((3 * i) % 7)) for i in range(30)]
        view = ConcreteView("v", Relation("v", schema, rows))
        session = AnalystSession(ManagementDatabase(), view, tracer=tracer)
        session.compute("mean", "x1")
        session.compute_pair("pearson", "y", "x1")
        session.fit_model("y", ["x1", "x2"])
        session.update_cells("x1", [(4, 9.5)])
        counters = tracer.find("propagate").counters
        assert counters["rule.mean.incremental"] == 1
        assert counters["rule.ols_model.incremental"] == 1
        assert counters["rule.pearson.invalidate"] == 1
        assert not [name for name in counters if name.endswith(".rowwise")]
        assert counters["incremental_updates"] == 2 and counters["invalidations"] == 1

    def test_session_spans_nest(self):
        tracer = Tracer()
        session = make_session(tracer)
        session.compute("mean", "x")
        session.update_cells("x", [(0, 1.0)])
        update_span = tracer.find("update_cells")
        assert update_span is not None
        assert [child.name for child in update_span.children] == ["propagate"]

    def test_undo_propagates_one_batch_per_attribute(self):
        tracer = Tracer()
        session = make_session(tracer)
        session.compute("mean", "x")
        for i in range(5):
            session.update_cells("x", [(i, float(100 + i))])
        tracer.reset()
        session.undo(5)
        undo_span = tracer.find("undo")
        assert undo_span is not None
        # Five undone operations on one attribute coalesce into a single
        # propagation sweep (S5: batched inverse deltas).
        assert [child.name for child in undo_span.children] == ["propagate"]
        assert undo_span.children[0].counters["entries_visited"] == 1


class CountingNullTracer(NullTracer):
    """The disabled tracer, counting how often instrumented code calls it."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = Counter()

    def span(self, name, **attrs):
        self.calls[name] += 1
        return super().span(name, **attrs)

    def add(self, counter, value=1):
        self.calls[counter] += 1


SCAN_ROWS = 100_000
SCAN_COLUMNS = ["C1", "C7"]


def stored_scan_file(tracer):
    """A 10-column transposed file, flushed, behind a 64-page pool."""
    pool = BufferPool(SimulatedDisk(block_size=4096), capacity=64, tracer=tracer)
    storage = TransposedFile(pool, [DataType.FLOAT] * 10, tracer=tracer)
    storage.append_rows(
        [
            tuple(float((i * 7 + c * 13) % 1000) for c in range(10))
            for i in range(SCAN_ROWS)
        ]
    )
    pool.flush_all()
    schema = Schema([measure(f"C{c}") for c in range(10)])
    return StoredRelation("scan", schema, storage)


def q_of_m_scan(stored):
    """2 of 10 columns, filtered, through the vectorized engine."""
    return VecProject(
        VecSelect(VecScan(stored, columns=SCAN_COLUMNS), col("C1") > 250.0),
        SCAN_COLUMNS,
    ).rows()


class TestDisabledHookCount:
    """A disabled tracer costs one empty call per hook, so the scan's cost
    in hooks is the number of calls, bounded per page and per chunk."""

    #: Each page read charges ``transposed.pages_read`` plus one pool hit
    #: or miss and at most one eviction; each chunk charges one call.
    CALLS_PER_PAGE_OR_CHUNK = 3

    def test_a_q_of_m_scan_calls_the_hooks_per_page_not_per_row(self):
        tracer = CountingNullTracer()
        stored = stored_scan_file(tracer)
        tracer.calls.clear()  # drop the calls charged while loading
        rows = q_of_m_scan(stored)
        assert len(rows) == 74_900
        calls = sum(tracer.calls.values())
        pages, chunks = (
            tracer.calls["transposed.pages_read"],
            tracer.calls["transposed.chunks"],
        )
        assert pages > 0 and chunks > 0
        assert calls <= self.CALLS_PER_PAGE_OR_CHUNK * (pages + chunks)
        # ~1 400 calls for 200 000 values read: a hook in any per-row or
        # per-value loop would reach the hundreds of thousands.
        assert calls < SCAN_ROWS * len(SCAN_COLUMNS) / 100

    def test_an_enabled_tracer_records_the_page_and_chunk_breakdown(self):
        disabled = CountingNullTracer()
        unrecorded = stored_scan_file(disabled)
        disabled.calls.clear()
        q_of_m_scan(unrecorded)
        tracer = Tracer()
        stored = stored_scan_file(tracer)
        tracer.reset()
        with tracer.span("scan") as span:
            q_of_m_scan(stored)
        assert span.total("transposed.chunks") > 0
        assert span.total("transposed.pages_read") > 0
        assert span.total("pool.hit") + span.total("pool.miss") > 0
        # Both tracers see the same hooks: the disabled count is what an
        # enabled tracer records.
        assert span.counters == dict(disabled.calls)
