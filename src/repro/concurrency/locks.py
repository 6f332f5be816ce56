"""Per-resource exclusive locks with deadlock detection and timeouts.

The paper's architecture is multi-analyst by construction — "we envision
several concrete views over a single raw database.  Each view is private to
a single user" (SS3.2) — but private *views* still share the Management
Database, published histories, and (in this reproduction) the per-view
Summary Database a wire server hands to many connections.  The
:class:`LockManager` is the single piece of code allowed to arbitrate that
sharing: every other module acquires locks through it (lint rule
REPRO-A109 forbids raw ``threading.Lock`` / ``asyncio.Lock`` construction
outside ``repro.concurrency`` and ``repro.server``).

Design:

* **Resources are names** (view names, plus reserved names like the
  registry), not objects — the manager never imports the things it guards.
* **One mode.**  A resource has at most one holding session; everybody
  else waits.  Readers do not come here at all — they pin a published
  MVCC version (:mod:`repro.concurrency.mvcc`) — so the holders are
  writers, registry mutations, quiescing checkpoints and the one-time
  chain bootstrap.  Same-session re-acquisition is reentrant (a count).
* **Deadlock detection** runs on the wait-for graph at every blocking
  acquisition: an edge runs from each waiting session to the holder of
  the resource it wants (and, transitively, through holders that are
  themselves waiting).  A request that would close a cycle raises
  :class:`~repro.core.errors.DeadlockError` immediately — the requester is
  the victim and keeps everything it already held.
* **Timeouts.**  Every acquisition carries a deadline (default from the
  manager); expiry raises :class:`~repro.core.errors.LockTimeoutError`.

Counter names (charged to the injected tracer): ``lock.grant``,
``lock.wait``, ``lock.deadlock``, ``lock.timeout``, ``lock.wait_s``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.concurrency.sanitizer import (
    LockOrderSanitizer,
    classify_resource,
    current_sanitizer,
)
from repro.core.errors import ConcurrencyError, DeadlockError, LockTimeoutError
from repro.obs.tracer import NULL_TRACER, AbstractTracer


class LockManager:
    """Exclusive locks over named resources, for analyst sessions.

    Parameters
    ----------
    timeout_s:
        Default acquisition timeout; ``acquire`` may override per call.
    tracer:
        Counter sink (``lock.*``).  Injected, never constructed here
        (REPRO-A107 discipline applies to this module too).
    sanitizer:
        Optional :class:`~repro.concurrency.sanitizer.LockOrderSanitizer`
        notified on every grant/release.  Defaults to whatever
        :func:`~repro.concurrency.sanitizer.current_sanitizer` says at
        construction time — ``None`` in production, so the per-grant cost
        is a single branch.
    """

    def __init__(
        self,
        timeout_s: float = 10.0,
        tracer: AbstractTracer | None = None,
        sanitizer: LockOrderSanitizer | None = None,
    ) -> None:
        self.timeout_s = timeout_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._sanitizer = sanitizer if sanitizer is not None else current_sanitizer()
        self._mutex = threading.Lock()
        self._granted = threading.Condition(self._mutex)
        #: resource -> (holding session, reentrant count); absent when free.
        self._locks: dict[str, tuple[str, int]] = {}
        #: session -> resource it is currently blocked on.
        self._waits: dict[str, str] = {}

    # -- acquisition -------------------------------------------------------

    def acquire(
        self, session: str, resource: str, timeout_s: float | None = None
    ) -> None:
        """Block until ``session`` holds ``resource``.

        Raises :class:`DeadlockError` when granting would require waiting
        on a cycle and :class:`LockTimeoutError` on deadline expiry.
        """
        deadline = time.monotonic() + (
            self.timeout_s if timeout_s is None else timeout_s
        )
        waited = False
        start = time.monotonic()
        with self._granted:
            while True:
                # Re-read every iteration: release() drops a resource's
                # entry when its holder leaves, so a woken waiter must
                # decide on the table as it is now.
                holder, count = self._locks.get(resource, (session, 0))
                if holder == session:
                    self._locks[resource] = (session, count + 1)
                    self._waits.pop(session, None)
                    self.tracer.add("lock.grant")
                    if waited:
                        self.tracer.add("lock.wait_s", time.monotonic() - start)
                    break  # notify the sanitizer outside the mutex
                if not waited:
                    waited = True
                    self.tracer.add("lock.wait")
                self._waits[session] = resource
                victim_cycle = self._find_cycle(session)
                if victim_cycle:
                    self._waits.pop(session, None)
                    self._granted.notify_all()
                    self.tracer.add("lock.deadlock")
                    raise DeadlockError(
                        f"session {session!r} waiting on {resource!r} closes "
                        f"a wait-for cycle: {' -> '.join(victim_cycle)}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._granted.wait(remaining):
                    self._waits.pop(session, None)
                    self._granted.notify_all()
                    self.tracer.add("lock.timeout")
                    raise LockTimeoutError(
                        f"session {session!r} timed out waiting for the "
                        f"lock on {resource!r} (held by {holder!r})"
                    )
        if self._sanitizer is not None:
            self._sanitizer.note_acquire(
                f"res:{resource}", classify_resource(resource)
            )

    def release(self, session: str, resource: str) -> None:
        """Release one level of ``session``'s hold on ``resource``."""
        with self._granted:
            holder, count = self._locks.get(resource, (None, 0))
            if holder != session:
                raise ConcurrencyError(
                    f"session {session!r} does not hold {resource!r}"
                )
            if count > 1:
                self._locks[resource] = (session, count - 1)
            else:
                del self._locks[resource]
            self._granted.notify_all()
        if self._sanitizer is not None:
            self._sanitizer.note_release(f"res:{resource}")

    def release_all(self, session: str) -> int:
        """Drop every lock ``session`` holds (connection teardown).

        Returns the number of resources released.  Also clears any wait
        registration the session left behind (a thread killed mid-wait).
        """
        with self._granted:
            self._waits.pop(session, None)
            dropped = [
                resource
                for resource, (holder, _) in self._locks.items()
                if holder == session
            ]
            for resource in dropped:
                del self._locks[resource]
            if dropped:
                self._granted.notify_all()
        if self._sanitizer is not None:
            # Usually a foreign-thread teardown; note_release tolerates
            # releasing keys this thread never acquired.
            for resource in dropped:
                self._sanitizer.note_release(f"res:{resource}")
        return len(dropped)

    @contextmanager
    def exclusive(
        self, session: str, resource: str, timeout_s: float | None = None
    ) -> Iterator[None]:
        """``with locks.exclusive(sid, view):`` — scoped lock."""
        self.acquire(session, resource, timeout_s)
        try:
            yield
        finally:
            self.release(session, resource)

    # -- introspection -----------------------------------------------------

    def holder(self, resource: str) -> str | None:
        """The session currently holding ``resource`` (None when free)."""
        with self._mutex:
            held = self._locks.get(resource)
            return held[0] if held else None

    def held_by(self, session: str) -> list[str]:
        """Resources ``session`` currently holds, sorted."""
        with self._mutex:
            return sorted(
                resource
                for resource, (holder, _) in self._locks.items()
                if holder == session
            )

    def __repr__(self) -> str:
        with self._mutex:
            return (
                f"LockManager({len(self._locks)} locked resource(s), "
                f"{len(self._waits)} waiter(s))"
            )

    # -- internals (call with self._mutex held) ----------------------------

    def _find_cycle(self, start: str) -> list[str]:
        """A wait-for cycle through ``start``, or [] when none exists.

        Each waiting session points at the holder of the resource it
        wants, so the wait-for graph is a chain: follow it until it ends
        (no cycle), returns to ``start`` (the cycle, named for the error
        message), or loops among other sessions (not ours to break).
        """
        path = [start]
        session = start
        while True:
            resource = self._waits.get(session)
            held = self._locks.get(resource) if resource is not None else None
            if held is None:
                return []
            session = held[0]
            if session == start:
                return path + [start]
            if session in path:
                return []
            path.append(session)
