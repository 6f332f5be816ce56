"""LockManager tests: grant rules, deadlock, timeout."""

import threading

import pytest

from repro.concurrency.locks import (
    DeadlockError,
    LockManager,
    LockTimeoutError,
)
from repro.core.errors import ConcurrencyError
from repro.obs.tracer import Tracer


class TestGrantRules:
    def test_exclusive_excludes_shared(self):
        # One mode: a held resource admits no second session at all.
        locks = LockManager()
        locks.acquire("a", "v")
        with pytest.raises(LockTimeoutError):
            locks.acquire("b", "v", timeout_s=0.05)
        assert locks.holder("v") == "a"

    def test_reentrant_same_mode(self):
        locks = LockManager()
        locks.acquire("a", "v")
        locks.acquire("a", "v")
        locks.release("a", "v")
        # Still held after one release: the count was two.
        assert locks.holder("v") == "a"
        locks.release("a", "v")
        assert locks.holder("v") is None

    def test_release_unheld_is_error(self):
        locks = LockManager()
        with pytest.raises(ConcurrencyError, match="does not hold"):
            locks.release("a", "v")

    def test_release_all_drops_every_resource(self):
        locks = LockManager()
        locks.acquire("a", "v1")
        locks.acquire("a", "v2")
        locks.acquire("a", "v2")
        assert locks.release_all("a") == 2
        assert locks.held_by("a") == []

    def test_context_managers(self):
        locks = LockManager()
        with locks.exclusive("a", "v"):
            assert locks.holder("v") == "a"
        assert locks.holder("v") is None


class TestDeadlock:
    def test_two_session_cycle_detected(self):
        locks = LockManager()
        locks.acquire("a", "v1")
        locks.acquire("b", "v2")
        blocked = threading.Event()
        results = {}

        def session_b():
            blocked.set()
            try:
                # b waits for v1 (held by a) -> edge b->a.
                locks.acquire("b", "v1", timeout_s=5)
                results["b"] = "acquired"
            except DeadlockError:
                results["b"] = "deadlock"
            finally:
                locks.release_all("b")

        thread = threading.Thread(target=session_b, daemon=True)
        thread.start()
        blocked.wait(1)
        # a waits for v2 (held by b) -> edge a->b closes the cycle; exactly
        # one side must be chosen as victim and the other must proceed.
        try:
            locks.acquire("a", "v2", timeout_s=5)
            results["a"] = "acquired"
        except DeadlockError as exc:
            results["a"] = "deadlock"
            assert "a" in str(exc) and "b" in str(exc)
        finally:
            locks.release_all("a")
        thread.join(5)
        assert sorted(results.values()) == ["acquired", "deadlock"]

    def test_victim_keeps_existing_locks(self):
        locks = LockManager()
        locks.acquire("a", "v1")
        locks.acquire("b", "v2")
        blocked = threading.Event()

        def session_b():
            blocked.set()
            try:
                locks.acquire("b", "v1", timeout_s=5)
            except DeadlockError:
                pass

        thread = threading.Thread(target=session_b, daemon=True)
        thread.start()
        blocked.wait(1)
        try:
            locks.acquire("a", "v2", timeout_s=5)
        except DeadlockError:
            # The victim still holds what it held before the doomed request.
            assert locks.held_by("a") == ["v1"]
        locks.release_all("a")
        thread.join(5)
        locks.release_all("b")


class TestTimeoutAndCounters:
    def test_default_timeout_applies(self):
        locks = LockManager(timeout_s=0.05)
        locks.acquire("a", "v")
        with pytest.raises(LockTimeoutError, match="v"):
            locks.acquire("b", "v")

    def test_counters_emitted(self):
        tracer = Tracer()
        locks = LockManager(timeout_s=0.05, tracer=tracer)
        locks.acquire("a", "v")
        with pytest.raises(LockTimeoutError):
            locks.acquire("b", "v")
        totals = tracer.counter_totals()
        assert totals["lock.grant"] == 1
        assert totals["lock.wait"] == 1
        assert totals["lock.timeout"] == 1
