"""Vectorized columnar execution: operators over fixed-size column chunks.

The paper names transposed files "the best all-around storage structure for
statistical data sets" (SS2.6) because statistical operations touch q of m
columns.  The row engine in :mod:`repro.relational.operators` forfeits that
advantage at execution time: it reconstructs full row tuples and evaluates
bound expressions one row at a time.  The operators here keep data columnar
end to end — a :class:`ColumnChunk` carries one value buffer plus a
parallel NA mask per attribute — and evaluate expressions with the
chunk-at-a-time kernels that :meth:`Expr.bind_columns` compiles once per
pipeline (never ``Expr.bind`` inside a chunk loop; lint REPRO-A106 enforces
this).

Sources feed chunks through ``scan_column_chunks``: a transposed file
serves them straight from the q requested page chains (the other m - q
columns are never read), and an in-memory relation slices its row list.
:func:`as_chunk_pipeline` is the planner's hook — it lifts any
chunk-capable source into this engine and returns ``None`` for sources
(heap files) that must stay on the row engine.  The hash join
(:class:`~repro.relational.operators.HashJoin`) is a chunk operator too.

Every operator still exposes ``.schema`` and row iteration, so vectorized
segments compose freely with the row operators (Sort, Limit) and with
:class:`~repro.relational.relation.Relation.from_operator`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.relational.aggregates import (
    Aggregate,
    AggregateSpec,
    group_by_schema,
    spec_aggregate,
    spec_inputs,
)
from repro.relational.schema import Schema
from repro.relational.types import ColumnVector

#: Default number of rows per column chunk.
CHUNK_SIZE = 1024

#: What a compiled chunk kernel looks like: ``ColumnChunk -> ColumnVector``.
ChunkFn = Callable[["ColumnChunk"], "ColumnVector"]


class ColumnChunk:
    """A fixed-size batch of rows in columnar form."""

    __slots__ = ("schema", "columns", "length")

    def __init__(self, schema: Schema, columns: Sequence[ColumnVector], length: int) -> None:
        self.schema = schema
        self.columns = list(columns)
        self.length = length

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Reconstruct row tuples (the hand-off to row operators)."""
        if not self.columns:
            return iter(() for _ in range(self.length))
        return zip(*(column.to_list() for column in self.columns))

    def compress(self, keep: Sequence[Any]) -> "ColumnChunk":
        """Rows where ``keep`` is truthy (a selection's boolean mask).

        A bool array selects by boolean indexing; a list of flags, what an
        object kernel returns, by the positions of its true entries.
        """
        if isinstance(keep, np.ndarray):
            length = int(np.count_nonzero(keep))
            index: Any = keep
        else:
            index = [i for i, flag in enumerate(keep) if flag]
            length = len(index)
        if length == self.length:
            return self
        return ColumnChunk(
            self.schema, [column.take(index) for column in self.columns], length
        )

    def __repr__(self) -> str:
        return f"ColumnChunk({self.length} rows, {self.schema!r})"


def chunks_from_rows(
    schema: Schema,
    rows: Iterable[Sequence[Any]],
    chunk_size: int = CHUNK_SIZE,
) -> Iterator[ColumnChunk]:
    """Batch a row stream into column chunks (for row-engine interop)."""
    width = len(schema)
    block: list[Sequence[Any]] = []
    for row in rows:
        block.append(row)
        if len(block) >= chunk_size:
            yield _chunk_from_block(schema, block, width)
            block = []
    if block:
        yield _chunk_from_block(schema, block, width)


def _chunk_from_block(
    schema: Schema, block: list[Sequence[Any]], width: int
) -> ColumnChunk:
    columns = [
        ColumnVector.from_values([row[i] for row in block]) for i in range(width)
    ]
    return ColumnChunk(schema, columns, len(block))


class VectorOperator:
    """Base class for chunk-producing operators.

    Subclasses implement :meth:`chunks`; row iteration and ``rows()`` come
    for free, so a vectorized segment drops into any place a row operator
    fits (Sort, Limit, ``Relation.from_operator``).
    """

    schema: Schema

    def chunks(self) -> Iterator[ColumnChunk]:
        """Produce the operator's output as column chunks."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        for chunk in self.chunks():
            yield from chunk.iter_rows()

    def rows(self) -> list[tuple[Any, ...]]:
        """Evaluate the pipeline into a list of row tuples."""
        return list(iter(self))


class VecScan(VectorOperator):
    """Chunk source over a chunk-capable relation, pruned to ``columns``.

    On a transposed backing this is the q-of-m scan the paper promises:
    only the named columns' page chains are read, and no row is ever
    reconstructed.
    """

    def __init__(
        self,
        source: Any,
        columns: Sequence[str] | None = None,
        chunk_size: int = CHUNK_SIZE,
    ) -> None:
        if chunk_size <= 0:
            raise QueryError(f"chunk_size must be positive, got {chunk_size}")
        self.source = source
        source_schema: Schema = source.schema
        names = list(columns) if columns is not None else source_schema.names
        if not names:
            names = source_schema.names[:1]
        self.schema = source_schema.project(names)
        self._indexes = [source_schema.index_of(n) for n in names]
        self.chunk_size = chunk_size
        #: Each column's vector kind, once a chunk has shown it (EXPLAIN
        #: prints it: ``object`` is off the array path).
        self.kinds: list[str] | None = None

    def chunks(self) -> Iterator[ColumnChunk]:
        for raw_columns in self.source.scan_column_chunks(
            self._indexes, self.chunk_size
        ):
            # Stored columns arrive as vectors; in-memory ones as list slices.
            columns = [
                raw if isinstance(raw, ColumnVector) else ColumnVector.from_values(raw)
                for raw in raw_columns
            ]
            if self.kinds is None:
                self.kinds = [column.kind for column in columns]
            yield ColumnChunk(self.schema, columns, len(columns[0]))


def needed_columns(
    schema: Schema,
    where: Any,
    keys: Sequence[str],
    specs: Sequence[AggregateSpec],
    items: Sequence[Any] = (),
) -> list[str]:
    """Source columns a query touches, in schema order: the q of q-of-m.

    A pruned scan never reads the other m - q columns off a transposed
    backing.  A name ``schema`` lacks raises here, at plan time and against
    the real schema, not later from inside a scan that was pruned without
    it.  ``items`` are projection items (names or ``(alias, Expr)`` pairs).
    """
    used: set[str] = set(keys)
    if where is not None:
        used |= where.columns()
    for spec in specs:
        used.update(name for name in (spec.attr, spec.weight) if name)
    for item in items:
        used |= {item} if isinstance(item, str) else item[1].columns()
    for name in sorted(used):
        schema.index_of(name)  # validate
    return [name for name in schema.names if name in used]


class VecSelect(VectorOperator):
    """Selection: the predicate compiles once to a boolean-mask kernel."""

    def __init__(self, child: Any, predicate: Any) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self._mask_fn: ChunkFn = predicate.bind_columns(self.schema)

    def chunks(self) -> Iterator[ColumnChunk]:
        mask_fn = self._mask_fn
        for chunk in self.child.chunks():
            kept = chunk.compress(mask_fn(chunk).truth())
            if kept.length:
                yield kept


class VecProject(VectorOperator):
    """Projection / computed columns over chunks.

    ``items`` follows :class:`~repro.relational.operators.Project`: plain
    attribute names, or ``(alias, Expr)`` / ``(Attribute, Expr)`` pairs for
    computed columns.  Expression items compile once to chunk kernels.
    """

    def __init__(self, child: Any, items: Sequence[Any]) -> None:
        from repro.relational.operators import project_schema

        self.child = child
        in_schema: Schema = child.schema
        # The row operator's output schema; only the per-chunk kernels differ.
        self.schema = project_schema(in_schema, items)
        self._fns: list[ChunkFn] = []
        for item in items:
            if isinstance(item, str):
                index = in_schema.index_of(item)
                self._fns.append(_column_picker(index))
            else:
                _, expr = item
                self._fns.append(expr.bind_columns(in_schema))

    def chunks(self) -> Iterator[ColumnChunk]:
        fns = self._fns
        schema = self.schema
        for chunk in self.child.chunks():
            yield ColumnChunk(schema, [fn(chunk) for fn in fns], chunk.length)


def _column_picker(index: int) -> ChunkFn:
    return lambda chunk: chunk.columns[index]


@dataclass
class _Group:
    """One group of a grouped aggregation while it is folded."""

    first_row: int  # position of the group's first selected row
    size: int  # selected rows (count(*) numerator)
    states: list[_ExactState | None]  # one per spec (None where the size serves it)


def fold_groups(
    source: VectorOperator, keys: Sequence[str], specs: Sequence[AggregateSpec]
) -> dict[tuple[Any, ...], _Group]:
    """The grouping loop: a map from group key to one exact state per spec.

    Buckets each chunk's row positions per group, then gives every state
    one ``fold`` per (group, chunk) of what its aggregate consumes — a
    :class:`ColumnVector` slice, or (value, weight) pairs — so method
    dispatches number groups x specs per chunk, not rows x specs.  Groups
    come back in first-seen order; ``first_row`` counts positions across
    ``source``'s chunks.
    """
    schema = source.schema
    key_idx = [schema.index_of(k) for k in keys]
    input_idx = [[schema.index_of(n) for n in spec_inputs(spec)] for spec in specs]
    groups: dict[tuple[Any, ...], _Group] = {}
    base = 0
    for chunk in source.chunks():
        columns = chunk.columns
        # Per spec, what its aggregate consumes of each row: a value, or a tuple.
        inputs = [
            columns[idx[0]]
            if len(idx) == 1
            else list(zip(*(columns[i].to_list() for i in idx)))
            for idx in input_idx
        ]
        for key, rows in _buckets(chunk, [columns[i] for i in key_idx]):
            group = groups.get(key)
            if group is None:
                states = [_exact_state(spec) for spec in specs]
                groups[key] = group = _Group(base + int(rows[0]), 0, states)
            group.size += len(rows)
            for state, consumed in zip(group.states, inputs):
                if state is not None:
                    state.fold(
                        consumed.take(rows)
                        if isinstance(consumed, ColumnVector)
                        else [consumed[r] for r in rows]
                    )
        base += chunk.length
    # _buckets hands a chunk's new groups over in key order, not first-seen.
    return dict(sorted(groups.items(), key=lambda item: item[1].first_row))


def _buckets(
    chunk: ColumnChunk, key_columns: list[ColumnVector]
) -> Iterable[tuple[tuple[Any, ...], Any]]:
    """(group key, ascending positions of its rows) per group of a chunk.

    One NA-free typed key column buckets with one stable argsort: each run
    of equal keys in sorted order is a group, its positions still
    ascending.  Other keys go a row at a time through a dict.  Keys are
    Python values either way, and keys equal under ``==`` (``0.0`` and
    ``-0.0``) fall in one group, as in the row engine's dict.
    """
    if len(key_columns) > 1 or any(not c.typed or c.mask is not None for c in key_columns):
        listed = [column.to_list() for column in key_columns]
        buckets: defaultdict[tuple[Any, ...], list[int]] = defaultdict(list)
        for r, key in enumerate(zip(*listed)):
            buckets[key].append(r)
        return buckets.items()
    if not chunk.length:
        return []
    if not key_columns:
        return [((), np.arange(chunk.length))]
    values = key_columns[0].data
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    firsts = ordered[np.concatenate(([0], cuts))].tolist()
    return zip([(key,) for key in firsts], np.split(order, cuts))


class _ExactState:
    """A fold state that keeps what it is fed and reduces it in one batch.

    ``value`` is the row engine's computation over every value the group
    saw, in scan order, so its result bit for bit: the aggregate's array
    evaluator when the values are one typed vector, else its batch
    evaluator over the list view.
    """

    __slots__ = ("aggregate", "parts")

    def __init__(self, aggregate: Aggregate) -> None:
        self.aggregate = aggregate
        self.parts: list[Any] = []

    def fold(self, values: Any) -> None:
        self.parts.append(values)

    @property
    def value(self) -> Any:
        found = self.aggregate
        if found.arity == 2:
            return found.evaluate([pair for part in self.parts for pair in part])
        vector = ColumnVector.concat(self.parts)
        if vector.typed and found.vector is not None:
            data = vector.data if vector.mask is None else vector.data[~vector.mask]
            return found.vector(data)
        return found.evaluate(vector.to_list())


def _exact_state(spec: AggregateSpec) -> _ExactState | None:
    found = spec_aggregate(spec)
    return _ExactState(found) if found.arity else None


class VecGroupBy(VectorOperator):
    """Group-by over chunks with the row engine's exact aggregate semantics.

    :func:`fold_groups` with an exact state per (group, spec); results match
    :class:`~repro.relational.aggregates.GroupBy` bit for bit.  Output is
    one chunk of group rows (group counts are small relative to input
    rows).
    """

    def __init__(self, child: Any, keys: Sequence[str], specs: Sequence[AggregateSpec]) -> None:
        self.child = child
        self.schema = group_by_schema(child.schema, keys, specs)
        self.keys = list(keys)
        self.specs = list(specs)

    def chunks(self) -> Iterator[ColumnChunk]:
        groups = fold_groups(self.child, self.keys, self.specs)
        if not self.keys and not groups:
            # The grand-total row over an empty input (SQL's, the row engine's).
            groups[()] = _Group(0, 0, [_exact_state(spec) for spec in self.specs])
        out_rows = [
            (*key, *(group.size if s is None else s.value for s in group.states))
            for key, group in groups.items()
        ]
        yield _chunk_from_block(self.schema, out_rows, len(self.schema))


def supports_column_chunks(source: Any) -> bool:
    """Whether ``source`` can feed the vectorized engine directly."""
    probe = getattr(source, "supports_column_chunks", None)
    if probe is None:
        return False
    supported = probe() if callable(probe) else probe
    return bool(supported) and hasattr(source, "scan_column_chunks")


def as_chunk_pipeline(
    source: Any,
    columns: Sequence[str] | None = None,
    chunk_size: int = CHUNK_SIZE,
) -> VectorOperator | None:
    """Lift ``source`` into the chunk engine, or ``None`` to stay row-wise.

    An existing :class:`VectorOperator` passes through (``columns`` is then
    ignored — pruning happened at its scan); a chunk-capable relation gets
    a :class:`VecScan` over the named columns.  Anything else — a
    heap-backed relation, a row operator — returns ``None`` and the caller
    falls back to the row engine.
    """
    if isinstance(source, VectorOperator):
        return source
    if supports_column_chunks(source):
        return VecScan(source, columns=columns, chunk_size=chunk_size)
    return None


__all__ = [
    "CHUNK_SIZE",
    "ColumnChunk",
    "ColumnVector",
    "VecGroupBy",
    "VecProject",
    "VecScan",
    "VecSelect",
    "VectorOperator",
    "as_chunk_pipeline",
    "chunks_from_rows",
    "fold_groups",
    "needed_columns",
    "supports_column_chunks",
]
