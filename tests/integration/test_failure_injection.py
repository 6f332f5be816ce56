"""Failure injection: resource exhaustion and misuse leave clean errors

and consistent state (the library never corrupts data on the error path)."""

import pytest

from repro.core.errors import (
    BufferPoolError,
    DiskError,
    StorageError,
    TapeError,
)
from repro.relational.types import DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool
from repro.storage.tape import TapeArchive
from repro.storage.transposed import TransposedFile


class TestDiskExhaustion:
    def test_heap_insert_fails_cleanly_when_disk_full(self):
        disk = SimulatedDisk(block_size=256, capacity_blocks=2)
        pool = BufferPool(disk, capacity=4)
        heap = HeapFile(pool, [DataType.INT])
        inserted = []
        with pytest.raises(DiskError, match="disk full"):
            for i in range(10_000):
                inserted.append(heap.insert((i,)))
        # Everything inserted before the failure is still readable.
        for i, rid in enumerate(inserted[: len(heap)]):
            assert heap.get(rid) == (i,)

    def test_transposed_append_fails_cleanly_when_disk_full(self):
        disk = SimulatedDisk(block_size=256, capacity_blocks=3)
        pool = BufferPool(disk, capacity=4)
        tf = TransposedFile(pool, [DataType.INT, DataType.INT])
        with pytest.raises(DiskError, match="disk full"):
            for i in range(10_000):
                tf.append_row((i, i))
        # The committed prefix scans consistently (columns may disagree in
        # length mid-failure; the shorter bound is consistent).
        first = list(tf.scan_column(0))
        assert first == list(range(len(first)))


class TestBufferPoolMisuse:
    def test_pinned_saturation_recovers_after_unpin(self):
        disk = SimulatedDisk(block_size=128)
        pool = BufferPool(disk, capacity=2)
        a, _ = pool.new_page()
        b, _ = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.new_page()
        pool.unpin(a, dirty=True)
        c, _ = pool.new_page()  # now succeeds
        pool.unpin(b)
        pool.unpin(c)
        pool.flush_all()

    def test_data_survives_error_path(self):
        disk = SimulatedDisk(block_size=256)
        pool = BufferPool(disk, capacity=2)
        heap = HeapFile(pool, [DataType.INT])
        rid = heap.insert((42,))
        with pytest.raises(BufferPoolError):
            pool.unpin(999_999)
        assert heap.get(rid) == (42,)


class TestTapeMisuse:
    def test_oversized_record_rejected_without_corruption(self):
        tape = TapeArchive(block_size=16)
        tape.write_dataset("good", b"x" * 32)
        with pytest.raises(TapeError):
            tape.write_dataset("bad", [b"y" * 64])
        # The earlier dataset remains fully readable.
        assert tape.read_dataset_bytes("good")[:32] == b"x" * 32

    def test_value_too_big_for_page(self):
        disk = SimulatedDisk(block_size=32)
        pool = BufferPool(disk, capacity=4)
        tf = TransposedFile(pool, [DataType.STR])
        with pytest.raises(StorageError, match="exceeds"):
            tf.append_row(("x" * 1000,))


class TestSessionErrorPaths:
    def test_failed_compute_leaves_cache_unpolluted(self):
        from repro.core.session import AnalystSession
        from repro.metadata.management import ManagementDatabase
        from repro.views.view import ConcreteView
        from repro.workloads.census import figure1_dataset

        session = AnalystSession(
            ManagementDatabase(), ConcreteView("v", figure1_dataset())
        )
        from repro.core.errors import FunctionError

        with pytest.raises(FunctionError):
            session.compute("median", "RACE")  # category attribute
        assert len(session.view.summary) == 0  # nothing cached for the failure

    def test_undo_on_empty_history_raises_and_preserves(self):
        from repro.core.errors import HistoryError
        from repro.core.session import AnalystSession
        from repro.metadata.management import ManagementDatabase
        from repro.views.view import ConcreteView
        from repro.workloads.census import figure1_dataset

        session = AnalystSession(
            ManagementDatabase(), ConcreteView("v", figure1_dataset())
        )
        mean_before = session.compute("mean", "AVE_SALARY")
        with pytest.raises(HistoryError):
            session.undo(1)
        assert session.compute("mean", "AVE_SALARY") == mean_before

