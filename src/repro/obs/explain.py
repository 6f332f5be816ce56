"""EXPLAIN ANALYZE: per-operator row counts and wall time for a plan.

:func:`instrument` walks an already-built operator pipeline (row or
vectorized — the planner's output shape is fixed, so children live in the
``child``/``left``/``right`` attributes) and splices a counting/timing
proxy in front of every operator.  Running the instrumented plan to
completion then yields an :class:`OpStats` tree mirroring the plan, with
*inclusive* wall time per operator (an operator's time contains its
inputs', as in every SQL EXPLAIN ANALYZE).

The proxies intercept both execution protocols: ``__iter__`` for the row
engine and ``chunks()`` for the vectorized one, so the same walker covers
both; leaves that feed data through neither protocol (``VecScan`` pulling
column chunks off storage, ``IndexScan`` probing rows positionally) are
their own measurement points.  An operator's detail is taken again once it
has run, so it can say what running showed: a ``VecScan`` names the vector
kind each column arrived as, a ``HashJoin`` its build rows and probe key's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Attributes through which planner-built operators reference their inputs.
_CHILD_ATTRS = ("child", "left", "right")


@dataclass
class OpStats:
    """Measured execution of one operator in an instrumented plan."""

    label: str
    detail: str = ""
    rows: int = 0
    chunks: int = 0
    elapsed_s: float = 0.0
    children: list["OpStats"] = field(default_factory=list)

    def walk(self) -> Iterator["OpStats"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, label: str) -> "OpStats | None":
        """First node with the given operator label, preorder."""
        for node in self.walk():
            if node.label == label:
                return node
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (same shape as a tracer span dump)."""
        counters: dict[str, float] = {"rows": self.rows}
        if self.chunks:
            counters["chunks"] = self.chunks
        return {
            "name": self.label,
            "attrs": {"detail": self.detail} if self.detail else {},
            "elapsed_s": self.elapsed_s,
            "counters": counters,
            "children": [child.to_dict() for child in self.children],
        }


class _Probe:
    """Counting/timing proxy spliced between an operator and its consumer.

    Forwards the plan-node protocol (``schema``, ``__iter__``, ``chunks``)
    to the wrapped operator while attributing each ``next()`` to the
    operator's :class:`OpStats` node.  Only a chunk operator's probe has
    ``chunks``, so a consumer can ask the probe whether its input has them.
    """

    def __init__(self, inner: Any, node: OpStats) -> None:
        self._inner = inner
        self._node = node
        self.schema = inner.schema
        if hasattr(inner, "chunks"):
            self.chunks = self._chunks

    def __iter__(self) -> Iterator[Any]:
        node = self._node
        source = iter(self._inner)
        while True:
            start = time.perf_counter()
            try:
                row = next(source)
            except StopIteration:
                node.elapsed_s += time.perf_counter() - start
                node.detail = _describe(self._inner)[1]
                return
            node.elapsed_s += time.perf_counter() - start
            node.rows += 1
            yield row

    def _chunks(self) -> Iterator[Any]:
        node = self._node
        source = self._inner.chunks()
        while True:
            start = time.perf_counter()
            try:
                chunk = next(source)
            except StopIteration:
                node.elapsed_s += time.perf_counter() - start
                node.detail = _describe(self._inner)[1]
                return
            node.elapsed_s += time.perf_counter() - start
            node.chunks += 1
            node.rows += chunk.length
            if node.chunks == 1:
                node.detail = _describe(self._inner)[1]
            yield chunk

    def rows(self) -> list[tuple[Any, ...]]:
        return list(iter(self))


def _is_plan_node(obj: Any) -> bool:
    # Every operator and relation exposes a schema; expressions, storage
    # files, and scalars do not.
    return hasattr(obj, "schema") and (
        hasattr(obj, "__iter__") or hasattr(obj, "chunks")
    )


def _describe(op: Any) -> tuple[str, str]:
    label = type(op).__name__
    details: list[str] = []
    name = getattr(op, "name", None)
    if isinstance(name, str):
        details.append(name)
    source = getattr(op, "source", None)
    if source is not None and isinstance(getattr(source, "name", None), str):
        details.append(f"source={source.name}")
    if label == "VecScan":
        details.append(f"columns={list(op.schema.names)}")
        if op.kinds is not None:
            # object: the column left the array path (a STR column, or an
            # in-memory relation's list slices).
            pairs = ", ".join(f"{n}:{k}" for n, k in zip(op.schema.names, op.kinds))
            details.append(f"vectors=[{pairs}]")
    keys = getattr(op, "keys", None)
    if keys:
        details.append(f"keys={list(keys)}")
    n = getattr(op, "n", None)
    if isinstance(n, int):
        details.append(f"n={n}")
    fetched = getattr(op, "rows_fetched", None)
    if isinstance(fetched, int):
        details.append(f"index_rows={fetched}")
    build = getattr(op, "build_rows", None)
    if isinstance(build, int):
        details.append(f"build_rows={build}, probe_key={op.probe_kind}")
    return label, ", ".join(d for d in details if d)


def instrument(op: Any) -> tuple[Any, OpStats]:
    """Wrap every operator of a plan in probes; returns (root, stats tree).

    The returned root exposes the same execution protocol as the plan it
    wraps; after it is run to exhaustion the stats tree holds per-operator
    rows (and chunks, on the vectorized path) and inclusive wall time.
    """
    label, detail = _describe(op)
    node = OpStats(label, detail)
    for attr in _CHILD_ATTRS:
        child = getattr(op, attr, None)
        if child is None or not _is_plan_node(child):
            continue
        wrapped, child_node = instrument(child)
        setattr(op, attr, wrapped)
        node.children.append(child_node)
    return _Probe(op, node), node


def uses_vectorized(op: Any) -> bool:
    """Whether the (instrumented or raw) plan runs on the vectorized engine.

    The engine of a plan is the engine of the operator under its Sort and
    Limit: a chunk operator (a hash join too) is the vectorized engine, and
    the row engine's selection, projection or group-by is not.
    """
    from repro.relational.operators import Limit, Sort
    from repro.relational.vectorized import VectorOperator

    inner = op._inner if isinstance(op, _Probe) else op
    if isinstance(inner, (Sort, Limit)):
        return uses_vectorized(inner.child)
    return isinstance(inner, VectorOperator)


def render(root: OpStats, engine: str, total_rows: int) -> str:
    """The annotated operator tree, one line per operator."""
    lines = [f"EXPLAIN ANALYZE ({engine} engine)"]
    labels: list[tuple[str, OpStats]] = []

    def collect(node: OpStats, depth: int) -> None:
        text = "  " * depth + node.label
        if node.detail:
            text += f" [{node.detail}]"
        labels.append((text, node))
        for child in node.children:
            collect(child, depth + 1)

    collect(root, 0)
    width = max(len(text) for text, _ in labels)
    for text, node in labels:
        stats = f"rows={node.rows}"
        if node.chunks:
            stats += f"  chunks={node.chunks}"
        stats += f"  time={node.elapsed_s * 1e3:.3f}ms"
        lines.append(f"{text.ljust(width)}  {stats}")
    lines.append(f"({total_rows} rows)")
    return "\n".join(lines)


@dataclass
class ExplainResult:
    """What :func:`repro.relational.planner.explain_analyze` returns."""

    engine: str
    root: OpStats
    relation: Any

    def render(self) -> str:
        """The annotated operator tree with the output row count."""
        return render(self.root, self.engine, len(self.relation))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable span-shaped dump of the measured plan."""
        return {"engine": self.engine, "plan": self.root.to_dict()}
