"""Tracing spans and counters for the hot paths (``repro.obs``).

The ROADMAP's north star is a system that stays debuggable under heavy
traffic; in-RDBMS analytics engines get there by making every cache hit,
page read, and rule application *attributable* to the operation that caused
it.  A :class:`Tracer` records a tree of timed :class:`Span` regions, each
carrying named counters; subsystems (buffer pool, transposed/heap files,
the update propagator, the Summary Database) receive the tracer by
injection and charge their counters to whichever span is currently open.

Disabled tracing must cost nothing measurable on a scan-heavy path, so
every instrumented constructor defaults to the shared :data:`NULL_TRACER`
singleton whose ``span``/``add`` are empty methods on ``__slots__``
classes — no allocation, no string formatting (call sites guard f-string
counter names behind ``tracer.enabled``).  Lint rule REPRO-A107 enforces
the injection discipline: hot-path modules never construct a
:class:`Tracer` themselves.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.core.errors import ObsError


class Span:
    """One timed region with counters and nested children.

    Spans are context managers::

        with tracer.span("propagate", attribute="INCOME") as span:
            span.add("entries_visited", 3)

    Timing accumulates across re-entries of the same span object, so a
    span can also be used as a reusable stopwatch.
    """

    __slots__ = (
        "name", "attrs", "counters", "children", "elapsed_s",
        "_tracer", "_start", "_linked",
    )

    def __init__(self, name: str, tracer: "Tracer", attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.elapsed_s = 0.0
        self._tracer = tracer
        self._start = 0.0
        self._linked = False

    def add(self, counter: str, value: float = 1) -> None:
        """Bump one of this span's counters."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed_s += time.perf_counter() - self._start
        self._tracer._exit(self)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, counter: str) -> float:
        """Sum of one counter over this span and all descendants."""
        return sum(span.counters.get(counter, 0) for span in self.walk())

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of this span and its descendants."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "elapsed_s": self.elapsed_s,
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.elapsed_s * 1e3:.2f}ms, "
            f"{len(self.counters)} counters, {len(self.children)} children)"
        )


class AbstractTracer:
    """The tracer protocol: what instrumented code may rely on.

    Hot paths only ever call :meth:`span` and :meth:`add` (and read
    :attr:`enabled` before building counter-name strings), so both the
    recording :class:`Tracer` and the no-op :class:`NullTracer` satisfy it.
    """

    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> Any:
        """Open (on ``with``-entry) a named child span."""
        raise NotImplementedError

    def add(self, counter: str, value: float = 1) -> None:
        """Charge a counter to the innermost open span (or the tracer)."""
        raise NotImplementedError


class Tracer(AbstractTracer):
    """A recording tracer: nested spans plus tracer-level counters.

    Construct one at the *edge* of the system (a session, the DBMS facade,
    a benchmark, a test) and inject it; see :data:`NULL_TRACER` for the
    disabled default.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; entering it (``with``) links it under the cursor."""
        return Span(name, self, attrs)

    def _current_stack(self) -> list[Span]:
        """The open-span stack spans link/charge against.

        A single list here — :class:`Tracer` assumes one thread of
        execution.  :class:`repro.concurrency.tracing.ConcurrentTracer`
        overrides this with a per-thread stack so worker-pool requests each
        build their own span chains without cross-talk.
        """
        return self._stack

    def add(self, counter: str, value: float = 1) -> None:
        """Charge the innermost open span, or the tracer itself if none."""
        stack = self._current_stack()
        if stack:
            stack[-1].add(counter, value)
        else:
            self.counters[counter] = self.counters.get(counter, 0) + value

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        stack = self._current_stack()
        return stack[-1] if stack else None

    def _enter(self, span: Span) -> None:
        stack = self._current_stack()
        if not span._linked:
            # A reused span (stopwatch style) links into the tree once, at
            # its first entry; later entries only accumulate time.
            if stack:
                stack[-1].children.append(span)
            else:
                self._link_root(span)
            span._linked = True
        stack.append(span)

    def _link_root(self, span: Span) -> None:
        """Attach a span with no open parent as a new root."""
        self.roots.append(span)

    def _exit(self, span: Span) -> None:
        stack = self._current_stack()
        if not stack or stack[-1] is not span:
            raise ObsError(
                f"span {span.name!r} exited out of order "
                f"(open: {[s.name for s in stack]})"
            )
        stack.pop()

    # -- inspection --------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every recorded span, preorder across roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """First recorded span with the given name, preorder."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def total(self, counter: str) -> float:
        """One counter summed over every span plus the tracer level."""
        return self.counters.get(counter, 0) + sum(
            span.counters.get(counter, 0) for span in self.walk()
        )

    def counter_totals(self, prefix: str = "") -> dict[str, float]:
        """Every counter (matching ``prefix``) summed over spans + tracer.

        The wire server's ``stats`` operation and the concurrency tests
        use this to report ``server.*`` / ``lock.*`` / ``wal.*`` counters
        without walking the span forest themselves.
        """
        totals: dict[str, float] = {}
        for name, value in self.counters.items():
            if name.startswith(prefix):
                totals[name] = totals.get(name, 0) + value
        for span in self.walk():
            for name, value in span.counters.items():
                if name.startswith(prefix):
                    totals[name] = totals.get(name, 0) + value
        return dict(sorted(totals.items()))

    def reset(self) -> None:
        """Drop all recorded spans and counters (open spans must be closed)."""
        if self._current_stack():
            raise ObsError(
                "cannot reset with open spans: "
                f"{[s.name for s in self._current_stack()]}"
            )
        self.roots = []
        self.counters = {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump: tracer counters plus the span forest."""
        return {
            "counters": dict(self.counters),
            "spans": [root.to_dict() for root in self.roots],
        }


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    def add(self, counter: str, value: float = 1) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(AbstractTracer):
    """The disabled tracer: every operation is a constant-time no-op.

    Instrumented constructors default to the shared :data:`NULL_TRACER`
    instance so uninstrumented callers pay only an attribute lookup and an
    empty call per hook, and hooks sit per page and per chunk, never per
    row: ``tests/obs/test_instrumentation.py`` counts the calls on a scan.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add(self, counter: str, value: float = 1) -> None:
        return None


#: Shared disabled tracer; the default for every instrumented constructor.
NULL_TRACER = NullTracer()
