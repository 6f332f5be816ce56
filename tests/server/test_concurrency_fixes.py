"""Regression tests for the bugs the REPRO-C2xx analyzer found.

Each test pins one of the concrete fixes:

* REPRO-C205 — session teardown ran ``coordinator.release`` (which takes
  the coordinator's latches) directly on the event loop; it now runs on
  the inline executor.
* REPRO-C202 — ``checkpoint``/``quiesce`` acquired every lock with no
  deadline; they now accept ``timeout_s``, and the checkpoint handler
  passes the request's remaining deadline.
* REPRO-C204 — ``SummaryDatabase.lookup``/``mark_stale`` mutated shared
  stats outside the view latch; they now mutate under it.
"""

import threading
import time

import pytest

from repro.concurrency import TransactionCoordinator
from repro.core.errors import LockTimeoutError
from repro.server import AnalystServer, ServerClient, ServerThread
from repro.summary.summarydb import SummaryDatabase

from tests.server.test_coordinator import build_dbms


class TestReleaseOffEventLoop:
    """REPRO-C205: disconnect cleanup must not block the event loop."""

    def test_teardown_release_runs_on_inline_executor(self):
        server = AnalystServer(build_dbms())
        release_threads = []
        original = server.coordinator.release

        def recording_release(sid):
            release_threads.append(threading.current_thread().name)
            return original(sid)

        server.coordinator.release = recording_release
        thread = ServerThread(server).start()
        try:
            with ServerClient(port=thread.port) as conn:
                conn.handshake("alice")
                conn.open_view("v")
            # Teardown is asynchronous to the client's close(): wait for it
            # so stop() cannot race the executor hand-off.
            deadline = time.monotonic() + 5
            while not release_threads and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            thread.stop()
        assert release_threads, "disconnect never reached coordinator.release"
        assert all(
            name.startswith("repro-inline") for name in release_threads
        ), release_threads


class TestBoundedCheckpoint:
    """REPRO-C202: every lock wait on the checkpoint path has a deadline."""

    def test_checkpoint_times_out_against_a_held_view_lock(self):
        coord = TransactionCoordinator(build_dbms())
        coord.locks.acquire("blocker", "v")
        try:
            with pytest.raises(LockTimeoutError):
                coord.checkpoint("chk", timeout_s=0.05)
        finally:
            coord.locks.release_all("blocker")
        # The failed checkpoint must not leak its partial lock set.
        assert coord.locks.held_by("chk") == []

    def test_quiesce_forwards_the_timeout(self):
        coord = TransactionCoordinator(build_dbms())
        coord.locks.acquire("blocker", "v")
        try:
            with pytest.raises(LockTimeoutError):
                with coord.quiesce("q", timeout_s=0.05):
                    pass  # pragma: no cover - never quiesces
        finally:
            coord.locks.release_all("blocker")
        assert coord.locks.held_by("q") == []

    def test_checkpoint_succeeds_when_uncontended(self, tmp_path):
        coord = TransactionCoordinator(build_dbms(tmp_path))
        assert coord.checkpoint("chk", timeout_s=1.0) is not None
        assert coord.locks.held_by("chk") == []


class _RecordingLatch:
    """Counts acquisitions so tests can prove a section ran latched."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries = 0

    def __enter__(self):
        self._lock.acquire()
        self.entries += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestLatchedSummaryStats:
    """REPRO-C204: cache statistics only move under the view latch."""

    def test_lookup_counts_hits_and_misses_under_the_latch(self):
        db = SummaryDatabase("v", entries_per_page=4)
        latch = _RecordingLatch()
        db.install_latch(latch)
        assert db.lookup("mean", "x") is None
        db.insert("mean", "x", 1.0)
        entry = db.lookup("mean", "x")
        assert entry is not None and entry.hit_count == 1
        assert db.stats.misses == 1 and db.stats.hits == 1
        # miss + insert + hit each took the latch at least once.
        assert latch.entries >= 3

    def test_mark_stale_counts_under_the_latch(self):
        db = SummaryDatabase("v", entries_per_page=4)
        db.insert("mean", "x", 1.0)
        entry = db.lookup("mean", "x")
        latch = _RecordingLatch()
        db.install_latch(latch)
        before = latch.entries
        assert db.mark_stale(entry, pending=2)
        assert db.stats.invalidations == 1
        assert entry.pending_updates == 2
        assert latch.entries > before
        # Re-marking an already-stale entry is a latched no-op.
        assert not db.mark_stale(entry)
        assert db.stats.invalidations == 1
