"""Runtime :class:`LockOrderSanitizer` behaviour.

The centrepiece is the dynamic half of the inverted two-lock acceptance
test: the *same* ``Pair`` fixture that ``tests/lint/test_concurrency_lint.py``
flags statically (REPRO-C201) must also be caught at runtime, both as a
raw inversion and as a contradiction of the fixture's own static model.
"""

import threading

import pytest

from repro.concurrency import (
    LockManager,
    LockOrderSanitizer,
    SanitizedLatch,
    current_sanitizer,
    install_sanitizer,
    make_latch,
)
from repro.concurrency.sanitizer import classify_resource
from repro.lint.concurrency import LockSite, analyze_files

from tests.lint.test_concurrency_lint import INVERTED_PAIR_SOURCE


@pytest.fixture
def sanitizer():
    """An installed sanitizer, always uninstalled afterwards."""
    active = install_sanitizer(LockOrderSanitizer())
    try:
        yield active
    finally:
        install_sanitizer(None)


class Pair:
    """Runtime twin of the static fixture: two latches, both nest orders."""

    def __init__(self):
        self.a_latch = make_latch("Pair.a_latch")
        self.b_latch = make_latch("Pair.b_latch")

    def forward(self):
        with self.a_latch:
            with self.b_latch:
                return 1

    def backward(self):
        with self.b_latch:
            with self.a_latch:
                return 2


class TestInvertedPairFixture:
    def test_inversion_detected_dynamically(self, sanitizer):
        pair = Pair()
        pair.forward()
        pair.backward()
        assert sanitizer.inversions() == [
            ("latch:Pair.a_latch", "latch:Pair.b_latch")
        ]

    def test_runtime_contradicts_the_fixture_static_model(self, sanitizer):
        # The static model of the same source predicts both orders; a run
        # that exercises either one therefore contradicts the closure of
        # the other — the static and dynamic halves agree on the bug.
        model = analyze_files([("pair.py", "/fixtures/pair.py",
                                INVERTED_PAIR_SOURCE)])
        static_edges = model.lock_order_edges()
        assert ("latch:Pair.a_latch", "latch:Pair.b_latch") in static_edges
        assert ("latch:Pair.b_latch", "latch:Pair.a_latch") in static_edges

        Pair().forward()
        assert sanitizer.static_violations(static_edges) == [
            ("latch:Pair.a_latch", "latch:Pair.b_latch")
        ]

    def test_consistent_order_reports_nothing(self, sanitizer):
        pair = Pair()
        pair.forward()
        pair.forward()
        assert sanitizer.inversions() == []
        assert sanitizer.observed_edges() == {
            ("latch:Pair.a_latch", "latch:Pair.b_latch")
        }


class TestEdgeRecording:
    def test_reentrant_acquire_is_not_a_self_edge(self, sanitizer):
        sanitizer.note_acquire("latch:X", "latch:X")
        sanitizer.note_acquire("latch:X", "latch:X")
        sanitizer.note_release("latch:X")
        sanitizer.note_release("latch:X")
        assert sanitizer.observed_edges() == set()
        assert sanitizer.acquisitions == 2

    def test_distinct_resources_of_one_class_do_not_self_invert(
        self, sanitizer
    ):
        # quiesce acquires many view locks in sorted order; raw keys keep
        # them distinct, so lock:<view> never falsely inverts with itself.
        sanitizer.note_acquire("res:alpha", "lock:<view>")
        sanitizer.note_acquire("res:beta", "lock:<view>")
        sanitizer.note_release("res:beta")
        sanitizer.note_release("res:alpha")
        assert sanitizer.inversions() == []
        assert ("lock:<view>", "lock:<view>") in sanitizer.class_edges()

    def test_cross_thread_release_is_tolerated(self, sanitizer):
        worker_done = threading.Event()

        def worker():
            sanitizer.note_acquire("res:orphan", "lock:<view>")
            worker_done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert worker_done.is_set()
        # Teardown path: another thread releases what the worker held.
        sanitizer.note_release("res:orphan")  # must not raise or underflow
        sanitizer.note_acquire("res:other", "lock:<view>")
        assert sanitizer.observed_edges() == set()

    def test_release_between_acquires_breaks_the_edge(self, sanitizer):
        sanitizer.note_acquire("latch:A", "latch:A")
        sanitizer.note_release("latch:A")
        sanitizer.note_acquire("latch:B", "latch:B")
        assert sanitizer.observed_edges() == set()


class TestLockManagerIntegration:
    def test_manager_reports_with_classified_keys(self, sanitizer):
        locks = LockManager(timeout_s=1.0)
        locks.acquire("s1", "__registry__")
        locks.acquire("s1", "census")
        locks.release("s1", "census")
        locks.release("s1", "__registry__")
        assert sanitizer.observed_keys() == {
            "res:__registry__": "lock:__registry__",
            "res:census": "lock:<view>",
        }
        assert sanitizer.observed_edges() == {
            ("res:__registry__", "res:census")
        }
        assert sanitizer.class_edges() == {
            ("lock:__registry__", "lock:<view>")
        }

    def test_manager_picks_up_sanitizer_at_construction(self):
        # Constructed with no sanitizer installed: stays uninstrumented
        # even if one is installed later (zero-overhead default).
        locks = LockManager(timeout_s=1.0)
        active = install_sanitizer(LockOrderSanitizer())
        try:
            locks.acquire("s1", "census")
            locks.release("s1", "census")
            assert active.acquisitions == 0
        finally:
            install_sanitizer(None)

    def test_release_all_notifies_per_resource(self, sanitizer):
        locks = LockManager(timeout_s=1.0)
        locks.acquire("s1", "a")
        locks.acquire("s1", "b")
        assert locks.release_all("s1") == 2
        # Everything released: a fresh acquire starts a new hold stack.
        locks.acquire("s1", "c")
        assert all(
            edge[0] != "res:c" and edge[1] != "res:c"
            for edge in sanitizer.observed_edges()
        )

    def test_shared_context_manager_is_instrumented(self, sanitizer):
        # The scoped form reports to the sanitizer like a bare acquire.
        locks = LockManager(timeout_s=1.0)
        with locks.exclusive("s1", "census"):
            pass
        assert "res:census" in sanitizer.observed_keys()


class TestMakeLatch:
    def test_plain_mutex_without_sanitizer(self):
        assert current_sanitizer() is None
        latch = make_latch("Pair.a_latch")
        assert not isinstance(latch, SanitizedLatch)

    def test_plain_mutex_when_unnamed(self, sanitizer):
        assert not isinstance(make_latch(), SanitizedLatch)

    def test_sanitized_when_named_and_installed(self, sanitizer):
        latch = make_latch("Demo.latch")
        assert isinstance(latch, SanitizedLatch)
        assert latch.key == "latch:Demo.latch"
        with latch:
            assert latch.locked()
        assert not latch.locked()
        assert "latch:Demo.latch" in sanitizer.observed_keys()


class TestClassification:
    def test_reserved_resources_keep_identity(self):
        assert classify_resource("__registry__") == "lock:__registry__"
        assert classify_resource("__checkpoint__") == "lock:__checkpoint__"

    def test_views_collapse(self):
        assert classify_resource("census") == "lock:<view>"
        assert classify_resource("smokers_ok") == "lock:<view>"


class TestCoverage:
    def test_coverage_matches_by_file_and_function(self, sanitizer):
        locks = LockManager(timeout_s=1.0)
        with locks.exclusive("s1", "census"):
            pass
        exercised = LockSite(
            key="lock:<view>",
            kind="manager",
            path="src/repro/concurrency/locks.py",
            line=185,
            function="LockManager.exclusive",
            has_timeout=True,
            guarded=True,
        )
        untouched = LockSite(
            key="lock:<view>",
            kind="manager",
            path="src/repro/concurrency/transactions.py",
            line=1,
            function="TransactionCoordinator.quiesce",
            has_timeout=True,
            guarded=True,
        )
        hit, missed = sanitizer.coverage([exercised, untouched])
        assert hit == [exercised]
        assert missed == [untouched]
