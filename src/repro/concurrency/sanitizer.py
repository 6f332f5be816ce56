"""Runtime lock-order sanitizer: the dynamic half of the C2xx analysis.

The static analyzer (:mod:`repro.lint.concurrency`) predicts a lock-order
graph from source; this module *observes* the real one.  A
:class:`LockOrderSanitizer`, once installed, is notified by the
:class:`~repro.concurrency.locks.LockManager` and by every named
:func:`~repro.concurrency.tracing.make_latch` latch on each successful
acquisition and release.  It keeps per-thread hold stacks (reentrancy
counted, never double-edged) and accumulates:

* **raw edges** — ``resource A was held by this thread when it acquired
  resource B``, at real resource granularity (``res:census``,
  ``latch:SummaryDatabase.latch``);
* **class edges** — the same edges normalized to the static analyzer's
  key space (every concrete view collapses to ``lock:<view>``), so the
  two graphs can be compared;
* **coverage frames** — ``(file basename, function name)`` pairs from the
  acquisition stacks, matched against the static model's
  :meth:`~repro.lint.concurrency.ConcurrencyModel.instrumented_sites`.

Reports:

* :meth:`LockOrderSanitizer.inversions` — raw edge pairs observed in
  *both* directions: a real deadlock candidate even if no deadlock fired
  during the run.
* :meth:`LockOrderSanitizer.static_violations` — observed class edges
  whose reverse is reachable in the static graph's transitive closure:
  runtime behaviour contradicting the predicted order.
* :meth:`LockOrderSanitizer.coverage` — which statically-extracted
  acquisition sites the run actually exercised.

Zero-overhead default (REPRO-A107 discipline): nothing is installed
unless a test calls :func:`install_sanitizer`; the lock manager's only
cost is then one ``is None`` branch per acquisition, and ``make_latch``
keeps returning plain mutexes.  Install *before* constructing the server
stack — latches consult :func:`current_sanitizer` at construction time.

Cross-thread releases (``release_all`` from a teardown executor against
locks a worker thread acquired) are tolerated: a release of a key this
thread does not hold is a no-op for the hold stack, so stacks never
underflow — at worst a killed thread's stale hold stops generating edges
when its thread dies.
"""

from __future__ import annotations

import sys
import threading
from types import TracebackType
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (lint model)
    from repro.lint.concurrency import LockSite

#: Frames never useful for site coverage: the notification plumbing itself.
_PLUMBING_FILES = frozenset({"sanitizer.py"})

#: How deep an acquisition stack is walked for coverage frames.
_STACK_DEPTH = 20


def classify_resource(resource: str) -> str:
    """A lock-manager resource name as a static-analyzer class key.

    Reserved resources (``__registry__``-style dunder names) keep their
    identity; every concrete view name collapses to ``lock:<view>``,
    matching how the static analyzer keys dynamically-named resources.
    """
    if resource.startswith("__") and resource.endswith("__"):
        return f"lock:{resource}"
    return "lock:<view>"


class LockOrderSanitizer:
    """Records actual lock acquisition order and stacks, per thread."""

    def __init__(self) -> None:
        self._latch = threading.Lock()  # guards the shared aggregates
        self._local = threading.local()
        #: raw edge -> corresponding class edge
        self._edges: dict[tuple[str, str], tuple[str, str]] = {}
        #: raw key -> class key, for every key ever acquired
        self._keys: dict[str, str] = {}
        #: (file basename, function name) pairs seen in acquisition stacks
        self._frames: set[tuple[str, str]] = set()
        self.acquisitions = 0

    # -- notification hooks (hot path) -------------------------------------

    def note_acquire(self, raw_key: str, class_key: str) -> None:
        """One successful acquisition by the current thread."""
        held, counts = self._thread_state()
        frames = self._capture_frames()
        with self._latch:
            self.acquisitions += 1
            self._keys.setdefault(raw_key, class_key)
            self._frames.update(frames)
            if counts.get(raw_key, 0) == 0:
                # First (non-reentrant) acquisition: every distinct key
                # already held orders before this one.
                for prior in held:
                    if prior != raw_key:
                        self._edges.setdefault(
                            (prior, raw_key),
                            (self._keys.get(prior, prior), class_key),
                        )
        if counts.get(raw_key, 0) == 0:
            held.append(raw_key)
        counts[raw_key] = counts.get(raw_key, 0) + 1

    def note_release(self, raw_key: str) -> None:
        """One release by the current thread; foreign keys are ignored."""
        held, counts = self._thread_state()
        count = counts.get(raw_key, 0)
        if count == 0:
            return  # released by another thread (release_all teardown)
        if count == 1:
            del counts[raw_key]
            # Remove the most recent occurrence; hold stacks are small.
            for i in range(len(held) - 1, -1, -1):
                if held[i] == raw_key:
                    del held[i]
                    break
        else:
            counts[raw_key] = count - 1

    def _thread_state(self) -> tuple[list[str], dict[str, int]]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = []
            self._local.held = held
            self._local.counts = {}
        return held, self._local.counts

    def _capture_frames(self) -> list[tuple[str, str]]:
        frames: list[tuple[str, str]] = []
        frame = sys._getframe(2)  # skip note_acquire + its caller shim
        depth = 0
        while frame is not None and depth < _STACK_DEPTH:
            code = frame.f_code
            basename = code.co_filename.rsplit("/", 1)[-1]
            if basename not in _PLUMBING_FILES:
                frames.append((basename, code.co_name))
            frame = frame.f_back
            depth += 1
        return frames

    # -- reports (cold path) ------------------------------------------------

    def observed_edges(self) -> set[tuple[str, str]]:
        """Raw resource-granularity order edges seen this run."""
        with self._latch:
            return set(self._edges)

    def class_edges(self) -> set[tuple[str, str]]:
        """Observed edges in the static analyzer's key space."""
        with self._latch:
            return set(self._edges.values())

    def observed_keys(self) -> dict[str, str]:
        """Every raw key acquired at least once, with its class key."""
        with self._latch:
            return dict(self._keys)

    def inversions(self) -> list[tuple[str, str]]:
        """Raw edges observed in both directions (deadlock candidates).

        Each inverted pair is reported once, ordered lexicographically.
        """
        edges = self.observed_edges()
        return sorted(
            (a, b) for (a, b) in edges if a < b and (b, a) in edges
        )

    def static_violations(
        self, static_edges: Iterable[tuple[str, str]]
    ) -> list[tuple[str, str]]:
        """Observed class edges whose reverse the static graph implies.

        An observed ``A -> B`` violates the static model when ``B`` can
        reach ``A`` through static edges — runtime took an order the
        analysis proved (transitively) to run the other way.  Same-class
        self-edges are excluded: the static model sanctions them only
        under an explicit total order, which raw-edge :meth:`inversions`
        checks at real resource granularity instead.
        """
        # Imported here so importing repro.concurrency never loads the linter.
        from repro.lint.concurrency import transitive_closure

        closure = transitive_closure(static_edges)
        violations = []
        for a, b in sorted(self.class_edges()):
            if a != b and (b, a) in closure:
                violations.append((a, b))
        return violations

    def coverage(
        self, sites: Iterable["LockSite"]
    ) -> tuple[list["LockSite"], list["LockSite"]]:
        """Split static sites into (exercised, unexercised) by this run.

        A site counts as exercised when any acquisition stack passed
        through its file and function — line-exact matching would be
        defeated by decorators and contextmanager rewrapping.
        """
        with self._latch:
            frames = set(self._frames)
        hit: list[LockSite] = []
        missed: list[LockSite] = []
        for site in sites:
            basename = site.path.replace("\\", "/").rsplit("/", 1)[-1]
            function = site.function.rsplit(".", 1)[-1]
            if (basename, function) in frames:
                hit.append(site)
            else:
                missed.append(site)
        return hit, missed


class SanitizedLatch:
    """A named mutex that reports its acquisitions to a sanitizer.

    Drop-in for the plain :class:`threading.Lock` handed out by
    :func:`~repro.concurrency.tracing.make_latch`: supports both the
    context-manager protocol and explicit ``acquire``/``release``.
    """

    __slots__ = ("name", "_lock", "_sanitizer")

    def __init__(self, name: str, sanitizer: LockOrderSanitizer) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._sanitizer = sanitizer

    @property
    def key(self) -> str:
        return f"latch:{self.name}"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._sanitizer.note_acquire(self.key, self.key)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._sanitizer.note_release(self.key)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "SanitizedLatch":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLatch({self.name!r})"


_ACTIVE: LockOrderSanitizer | None = None


def install_sanitizer(
    sanitizer: LockOrderSanitizer | None,
) -> LockOrderSanitizer | None:
    """Make ``sanitizer`` the process-wide active one (``None`` uninstalls).

    Install *before* constructing lock managers and latches: both consult
    :func:`current_sanitizer` at construction time, so the no-sanitizer
    default stays zero-overhead.
    """
    global _ACTIVE
    _ACTIVE = sanitizer
    return sanitizer


def current_sanitizer() -> LockOrderSanitizer | None:
    """The installed sanitizer, or ``None`` (the production default)."""
    return _ACTIVE
