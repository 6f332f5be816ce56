"""In-memory span recording around the program's public callables.

Used only by a ``--trace 1`` run.  The benchmark wraps named functions and
methods of the ``repro`` packages *from here* (no program file changes), in
the process where the layer runs; each call records one span

    [id, name, start_ns, end_ns, parent_id, request]

on a per-thread stack, so a span's parent is whichever wrapped call was
open on the same thread.  ``request`` ties the spans of one served request
together across threads (and across the wire: the clock is
``time.monotonic_ns``, which is system-wide on Linux, so client and server
spans share one timeline).  Spans stay in memory and are written out when
the run ends.

A span's layer is the prefix of its name (``views.apply_update`` belongs to
``views``).  A span's *self time* is its duration minus the part of that
interval its child spans cover; a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

LAYERS = (
    "server", "concurrency", "core", "summary", "incremental", "views",
    "relational", "storage", "durability", "workspace", "metadata", "stats",
)

now = time.monotonic_ns


class Recorder:
    """Collects spans and ad-hoc counts for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Any = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[5]
        span = [next(self._ids), name, 0, 0, parent[0] if parent else None, request]
        stack.append(span)
        span[2] = now()
        return span

    def end(self, span: list) -> None:
        span[3] = now()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name: str, request: Any = None) -> "_SpanContext":
        """A ``with`` block recorded as one span (benchmark call sites)."""
        return _SpanContext(self, name, request)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[list, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` is a class or a module.  For a module-level function every
        already-imported ``repro`` module that bound the same function by
        name (``from x import f``) is patched too.  ``request`` extracts the
        request id from the call's arguments; ``after(span, args, result)``
        runs once the call returned (to set the request id from a result, or
        to take counts where the work happens).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        target = original.__func__ if is_static else original
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(name, request(args, kwargs) if request else None)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__wrapped__ = target  # type: ignore[attr-defined]
        replacement: Any = staticmethod(wrapper) if is_static else wrapper
        setattr(owner, attr, replacement)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module is owner or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, alias, wrapper)

    def wrap_context(self, owner: type, attr: str, name: str) -> None:
        """Wrap a method that returns a context manager: the span covers
        ``__enter__`` through ``__exit__``."""
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _ManagedSpan(recorder, name, original(*args, **kwargs))

        wrapper.__name__ = attr
        setattr(owner, attr, wrapper)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_request", "_span")

    def __init__(self, recorder: Recorder, name: str, request: Any) -> None:
        self._recorder = recorder
        self._name = name
        self._request = request

    def __enter__(self) -> list:
        self._span = self._recorder.begin(self._name, self._request)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._recorder.end(self._span)


class _ManagedSpan:
    __slots__ = ("_recorder", "_name", "_inner", "_span")

    def __init__(self, recorder: Recorder, name: str, inner: Any) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __enter__(self) -> Any:
        self._span = self._recorder.begin(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc: Any) -> Any:
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.end(self._span)


class NullRecorder:
    """What an untraced run uses at the benchmark's own call sites."""

    class _Null:
        __slots__ = ()

        def __enter__(self) -> None:
            return None

        def __exit__(self, *exc: Any) -> None:
            return None

    _NULL = _Null()

    def span(self, name: str, request: Any = None) -> "_Null":
        return self._NULL


# -- arithmetic ---------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Iterable[list]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus what its children cover)."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _, start, end, _, _ in spans
    }


def adopt_orphans(spans: list[list], roots: dict[Any, int]) -> None:
    """Attach every parentless span that carries a request id to that
    request's root span (``roots``: request -> span id), in place."""
    root_ids = set(roots.values())
    for span in spans:
        if span[4] is None and span[0] not in root_ids and span[5] in roots:
            span[4] = roots[span[5]]


def by_name(spans: Iterable[list], selfs: dict[int, int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms, self ms."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for sid, name, start, end, _, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += selfs[sid] / 1e6
    return dict(table)


def layer_self_ms(names: dict[str, dict[str, float]]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in names.items():
        layer = layer_of(name)
        if layer in totals:
            totals[layer] += row["self_ms"]
    return totals
