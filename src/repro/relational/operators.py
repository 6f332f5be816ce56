"""Relational operators over flat files.

These are "the traditional relational operations which create and transform
tables" that the paper requires for materializing views (SS2.3): selection,
projection (with computed columns), the join the statistical packages of the
day lacked (SS2.4), sorting, duplicate elimination, union, and renaming.

Operators are composable iterators: each exposes ``.schema`` and yields row
tuples, so pipelines evaluate lazily and can sit directly on stored
relations with I/O accounting.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.relational.expressions import Expr
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import NA, ColumnVector, DataType, is_na
from repro.relational.vectorized import (
    ColumnChunk,
    VectorOperator,
    as_chunk_pipeline,
    chunks_from_rows,
)


class Operator:
    """Base class for relational operator iterators."""

    schema: Schema

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        raise NotImplementedError

    def rows(self) -> list[tuple[Any, ...]]:
        """Evaluate the pipeline into a list."""
        return list(iter(self))


class Select(Operator):
    """Rows satisfying a predicate."""

    def __init__(self, child: Any, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        test = self.predicate.bind(self.schema)
        for row in self.child:
            if test(row):
                yield row


def project_schema(
    in_schema: Schema, items: Sequence[str | tuple[str | Attribute, Expr]]
) -> Schema:
    """Output schema of a projection (shared with the vectorized operator)."""
    attributes: list[Attribute] = []
    for item in items:
        if isinstance(item, str):
            attributes.append(in_schema.attribute(item))
        elif isinstance(item[0], Attribute):
            attributes.append(item[0])
        else:
            attributes.append(Attribute(item[0], DataType.FLOAT, AttributeRole.DERIVED))
    return Schema(attributes)


class Project(Operator):
    """A subset (or computation) of columns.

    ``items`` may be plain attribute names or ``(alias, Expr)`` pairs for
    computed columns; computed columns get FLOAT/DERIVED attributes unless
    an :class:`Attribute` is supplied instead of an alias string.
    """

    def __init__(self, child: Any, items: Sequence[str | tuple[str | Attribute, Expr]]) -> None:
        self.child = child
        in_schema: Schema = child.schema
        self.schema = project_schema(in_schema, items)
        self._fns: list[Any] = [
            _picker(in_schema.index_of(item))
            if isinstance(item, str)
            else item[1].bind(in_schema)
            for item in items
        ]

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        fns = self._fns
        for row in self.child:
            yield tuple(fn(row) for fn in fns)


def _picker(index: int) -> Any:
    return lambda row: row[index]


class Rename(Operator):
    """Rename columns via a mapping."""

    def __init__(self, child: Any, mapping: dict[str, str]) -> None:
        self.child = child
        self.schema = child.schema.rename(mapping)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.child)


class NestedLoopJoin(Operator):
    """Theta join via nested loops (the general baseline)."""

    def __init__(self, left: Any, right: Any, predicate: Expr) -> None:
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)
        self.predicate = predicate

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        test = self.predicate.bind(self.schema)
        right_rows = list(self.right)
        for lrow in self.left:
            for rrow in right_rows:
                combined = lrow + rrow
                if test(combined):
                    yield combined


class HashJoin(VectorOperator):
    """Equi-join via hashing; NA keys never match.

    ``how`` may be "inner" or "left"; a left join pads unmatched left rows
    with NA — used to decode code-book values where some codes are missing.

    The build (right) side is read once into column vectors and a table
    from key to positions.  Each probe chunk looks its keys up once per
    distinct value (``np.unique`` on a typed NA-free key, else the list
    view; Python ``==`` decides, ``1 == 1.0``) and takes both sides' columns
    at the matches: probe order, then each probe row's matches in build order.
    """

    def __init__(
        self,
        left: Any,
        right: Any,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        how: str = "inner",
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise QueryError("join requires equal, non-empty key lists")
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.how = how
        self.schema = left.schema.concat(right.schema)
        #: What a run showed, for EXPLAIN (``object`` is off the array path).
        self.build_rows: int | None = None
        self.probe_kind: str | None = None

    def chunks(self) -> Iterator[ColumnChunk]:
        build, table = self._build()
        # A left join's unmatched rows take the NA row ending the build side.
        miss = np.array([self.build_rows] if self.how == "left" else [], np.intp)
        left = self.left
        key_idx = [left.schema.index_of(k) for k in self.left_keys]
        probe = left if hasattr(left, "chunks") else as_chunk_pipeline(left)
        for chunk in probe.chunks() if probe else chunks_from_rows(left.schema, left):
            keys = [chunk.columns[i] for i in key_idx]
            self.probe_kind = self.probe_kind or ",".join(k.kind for k in keys)
            if len(keys) == 1 and keys[0].typed and keys[0].mask is None:
                values, inverse = np.unique(keys[0].data, return_inverse=True)
                distinct: list[tuple] = [(v,) for v in values.tolist()]
            else:
                at: dict[tuple, int] = {}
                listed = zip(*(k.to_list() for k in keys))
                inverse = np.array([at.setdefault(r, len(at)) for r in listed], np.intp)
                distinct = list(at)
            found = [table.get(key, miss) for key in distinct]
            counts = np.array([len(f) for f in found], np.intp)
            flat = np.concatenate(found) if found else miss
            # Where each probe row's matches start in ``flat``, and how many.
            starts, per_row = (np.cumsum(counts) - counts)[inverse], counts[inverse]
            total = int(per_row.sum())
            if total:
                lpos = np.repeat(np.arange(chunk.length), per_row)
                runs = np.repeat(starts - (np.cumsum(per_row) - per_row), per_row)
                rpos = flat[runs + np.arange(total)]
                lcols = [column.take(lpos) for column in chunk.columns]
                rcols = [column.take(rpos) for column in build]
                yield ColumnChunk(self.schema, lcols + rcols, total)

    def _build(self) -> tuple[list[ColumnVector], dict[tuple, np.ndarray]]:
        """The build side's columns (a left join's end in an NA row), key table."""
        rows = list(self.right)
        self.build_rows = len(rows)
        key_idx = [self.right.schema.index_of(k) for k in self.right_keys]
        positions: dict[tuple, list[int]] = {}
        for pos, row in enumerate(rows):
            key = tuple(row[i] for i in key_idx)
            if not any(is_na(v) for v in key):
                positions.setdefault(key, []).append(pos)
        if self.how == "left":
            rows.append((NA,) * len(self.right.schema))
        width = range(len(self.right.schema))
        columns = [ColumnVector.from_values([r[i] for r in rows]) for i in width]
        return columns, {k: np.array(p, np.intp) for k, p in positions.items()}


class SortMergeJoin(Operator):
    """Equi-join via sorting both inputs on the key."""

    def __init__(
        self,
        left: Any,
        right: Any,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise QueryError("join requires equal, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.schema = left.schema.concat(right.schema)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        lidx = [self.left.schema.index_of(k) for k in self.left_keys]
        ridx = [self.right.schema.index_of(k) for k in self.right_keys]

        def key_ok(row: tuple, idx: list[int]) -> bool:
            return not any(is_na(row[i]) for i in idx)

        lrows = sorted(
            (r for r in self.left if key_ok(r, lidx)),
            key=lambda r: tuple(r[i] for i in lidx),
        )
        rrows = sorted(
            (r for r in self.right if key_ok(r, ridx)),
            key=lambda r: tuple(r[i] for i in ridx),
        )
        i = j = 0
        while i < len(lrows) and j < len(rrows):
            lkey = tuple(lrows[i][k] for k in lidx)
            rkey = tuple(rrows[j][k] for k in ridx)
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                j_end = j
                while j_end < len(rrows) and tuple(rrows[j_end][k] for k in ridx) == rkey:
                    j_end += 1
                i_run = i
                while i_run < len(lrows) and tuple(lrows[i_run][k] for k in lidx) == lkey:
                    for jj in range(j, j_end):
                        yield lrows[i_run] + rrows[jj]
                    i_run += 1
                i = i_run
                j = j_end


class Sort(Operator):
    """Order rows by one or more attributes; NA sorts last."""

    def __init__(self, child: Any, keys: Sequence[str], descending: bool = False) -> None:
        if not keys:
            raise QueryError("sort requires at least one key")
        self.child = child
        self.schema = child.schema
        self.keys = list(keys)
        self.descending = descending

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        idx = [self.schema.index_of(k) for k in self.keys]

        def sort_key(row: tuple) -> tuple:
            return tuple(
                (is_na(row[i]), None if is_na(row[i]) else row[i]) for i in idx
            )

        # NA-last under ascending; under descending, reverse non-NA order but
        # keep NA last by sorting twice (stable).
        rows = sorted(self.child, key=sort_key)
        if self.descending:
            na_rows = [r for r in rows if any(is_na(r[i]) for i in idx)]
            ok_rows = [r for r in rows if not any(is_na(r[i]) for i in idx)]
            rows = list(reversed(ok_rows)) + na_rows
        yield from rows


class Distinct(Operator):
    """Duplicate elimination."""

    def __init__(self, child: Any) -> None:
        self.child = child
        self.schema = child.schema

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        seen: set = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                yield row


class Union(Operator):
    """Bag union of union-compatible inputs."""

    def __init__(self, left: Any, right: Any) -> None:
        if left.schema.types != right.schema.types:
            raise QueryError(
                "union requires identical attribute types: "
                f"{left.schema!r} vs {right.schema!r}"
            )
        self.left = left
        self.right = right
        self.schema = left.schema

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        yield from self.left
        yield from self.right


class Limit(Operator):
    """At most ``n`` rows."""

    def __init__(self, child: Any, n: int) -> None:
        if n < 0:
            raise QueryError(f"limit must be non-negative, got {n}")
        self.child = child
        self.schema = child.schema
        self.n = n

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        count = 0
        for row in self.child:
            if count >= self.n:
                return
            yield row
            count += 1
