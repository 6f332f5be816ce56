"""Relations: the flat-file data sets of the paper's data model.

A :class:`Relation` is an in-memory flat file (schema + rows).  A
:class:`StoredRelation` has the same interface but keeps its rows in a
storage structure (heap file or transposed file), so iterating it performs
accounted I/O.  Relational operators accept anything exposing ``.schema``
and row iteration, so the two interoperate freely.

Every change to a :class:`Relation`'s rows is one of its methods, so it
owns the bookkeeping that must follow each one: its attribute indexes
(:meth:`~Relation.index_on` — SS2.3's auxiliary structures, built on first
use and exact ever after) and the per-attribute write epochs that tell the
MVCC publish path which columns changed.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import SchemaError, StorageError
from repro.relational.index import AttributeIndex
from repro.relational.schema import Attribute, Schema
from repro.relational.types import NA, DataType, is_na
from repro.storage.heapfile import HeapFile
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile

#: Storage structures that serve positional rows and column-chunk scans.
#: A sharded file presents the same surface as a plain transposed file
#: (global row numbering, interleaved scans), so everything below treats
#: the two identically.
ColumnarFile = TransposedFile | ShardedTransposedFile
_COLUMNAR = (TransposedFile, ShardedTransposedFile)


class Relation:
    """An in-memory flat file: a schema and a list of row tuples."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] | None = None,
        validate: bool = False,
    ) -> None:
        self.name = name
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        #: The live indexes by attribute; :meth:`index_on` gets or builds one.
        self.indexes: dict[str, AttributeIndex] = {}
        #: Cell writes seen per attribute (absent = never written).
        self.epochs: dict[str, int] = {}
        if rows is not None:
            for row in rows:
                if validate:
                    schema.validate_row(row)
                self._rows.append(tuple(row))

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def row(self, index: int) -> tuple[Any, ...]:
        """The row at position ``index``."""
        return self._rows[index]

    def insert(self, row: Sequence[Any], validate: bool = True) -> int:
        """Append a row; returns its position."""
        if validate:
            self.schema.validate_row(row)
        position = len(self._rows)
        self._rows.append(tuple(row))
        for attr in list(self.indexes):
            self._reindex(attr, position, NA, row[self.schema.index_of(attr)])
        return position

    def set_value(self, row: int, attr: str, value: Any) -> Any:
        """Point-update one cell; returns the old value."""
        index = self.schema.index_of(attr)
        old = self._rows[row][index]
        items = list(self._rows[row])
        items[index] = value
        self._rows[row] = tuple(items)
        self.epochs[attr] = self.epochs.get(attr, 0) + 1
        if self.indexes:
            self._reindex(attr, row, old, value)
        return old

    def delete_row(self, index: int) -> tuple[Any, ...]:
        """Remove and return the row at ``index``; later rows move up, so

        the indexes are dropped (and rebuilt on next use), not renumbered."""
        self.indexes.clear()
        return self._rows.pop(index)

    def append_column(self, attribute: Attribute, values: Sequence[Any]) -> None:
        """Add ``attribute`` as the last column, one value per row; row

        positions and the other columns, hence the indexes, are untouched."""
        rows = [row + (value,) for row, value in zip(self._rows, values, strict=True)]
        self.schema = self.schema.extend(attribute)
        self._rows = rows
        self.epochs[attribute.name] = 1

    # -- indexes -------------------------------------------------------------

    def index_on(self, attr: str) -> AttributeIndex:
        """The maintained index on ``attr``, built (one pass) on first use."""
        index = self.indexes.get(attr)
        if index is None:
            index = self.indexes[attr] = AttributeIndex(attr, self.column(attr))
        return index

    def _reindex(self, attr: str, row: int, old: Any, new: Any) -> None:
        """Carry a cell's change from ``old`` (NA: a new row) to ``new`` into

        ``attr``'s index, if it has one."""
        index = self.indexes.get(attr)
        if index is None:
            return
        try:
            index.discard(row, old)
            index.add(row, new)
        except TypeError:  # an unhashable cell: no longer indexable
            del self.indexes[attr]

    # -- column access ---------------------------------------------------------

    def column(self, name: str) -> list[Any]:
        """All values of one attribute, in row order (NA included)."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def supports_column_chunks(self) -> bool:
        """In-memory rows can always be served column-wise."""
        return True

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[list[Any]]]:
        """Stream the selected columns as fixed-size chunks of value lists.

        The feed for the vectorized engine; each yielded item holds one
        value list per requested column, all of the same length.
        """
        if not indexes:
            raise StorageError("scan_column_chunks requires at least one column")
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        rows = self._rows
        for start in range(0, len(rows), chunk_size):
            block = rows[start : start + chunk_size]
            yield [[row[i] for row in block] for i in indexes]

    def column_array(self, name: str) -> np.ndarray:
        """One numeric column as a float array with NA mapped to NaN."""
        attr = self.schema.attribute(name)
        if not (attr.dtype.is_numeric or attr.dtype is DataType.CATEGORY):
            raise SchemaError(f"attribute {name!r} is not numeric")
        index = self.schema.index_of(name)
        return np.array(
            [float("nan") if is_na(row[index]) else float(row[index]) for row in self._rows],
            dtype=float,
        )

    # -- conversion --------------------------------------------------------------

    def materialize(self) -> "Relation":
        """Self (already in memory)."""
        return self

    def copy(self, name: str | None = None) -> "Relation":
        """A deep-enough copy (rows are immutable tuples)."""
        return Relation(name or self.name, self.schema, self._rows)

    @classmethod
    def from_operator(cls, name: str, op: "RelationLike") -> "Relation":
        """Materialize any schema+rows source into an in-memory relation."""
        return cls(name, op.schema, iter(op))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} rows, {self.schema!r})"

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width rendering of the first ``limit`` rows."""
        names = self.schema.names
        rows = [[_fmt(v) for v in row] for row in self._rows[:limit]]
        widths = [
            max(len(name), *(len(r[i]) for r in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "  ".join("-" * w for w in widths)
        body = "\n".join(
            "  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows
        )
        more = f"\n... ({len(self) - limit} more rows)" if len(self) > limit else ""
        return f"{header}\n{sep}\n{body}{more}"


def _fmt(value: Any) -> str:
    if is_na(value):
        return "NA"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class StoredRelation:
    """A relation whose rows live in a heap or transposed file.

    Iteration and column access go through the storage structure and are
    charged I/O; :meth:`column` on a transposed backing reads only that
    column's pages.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        storage: HeapFile | ColumnarFile,
    ) -> None:
        if list(storage.types) != schema.types:
            raise StorageError(
                f"storage types {list(storage.types)} do not match schema "
                f"types {schema.types}"
            )
        self.name = name
        self.schema = schema
        self.storage = storage

    @classmethod
    def load(
        cls,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]],
        storage: HeapFile | ColumnarFile,
    ) -> "StoredRelation":
        """Bulk-load rows into ``storage`` and wrap the result."""
        if isinstance(storage, _COLUMNAR):
            storage.append_rows(list(rows))
        else:
            for row in rows:
                storage.insert(row)
        return cls(name, schema, storage)

    def __len__(self) -> int:
        return len(self.storage)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        if isinstance(self.storage, _COLUMNAR):
            yield from self.storage.scan_rows()
        else:
            for _, values in self.storage.scan():
                yield values

    def column(self, name: str) -> list[Any]:
        """One attribute's values; on a transposed backing this reads only

        that column's pages (the SS2.6 advantage)."""
        index = self.schema.index_of(name)
        if isinstance(self.storage, _COLUMNAR):
            return list(self.storage.scan_column(index))
        return [row[index] for row in self]

    def columns(self, names: Sequence[str]) -> Iterator[tuple[Any, ...]]:
        """Several attributes zipped row-wise."""
        indexes = [self.schema.index_of(n) for n in names]
        if isinstance(self.storage, _COLUMNAR):
            yield from self.storage.scan_columns(indexes)
        else:
            for row in self:
                yield tuple(row[i] for i in indexes)

    def supports_column_chunks(self) -> bool:
        """Only a transposed backing can feed columns without building rows."""
        return isinstance(self.storage, _COLUMNAR)

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[list[Any]]]:
        """Stream the selected columns as chunks straight off the page chains.

        Transposed backing only: the q requested columns are decoded page by
        page and rechunked, the other m − q columns are never read, and no
        row tuple is ever built (SS2.6's q-of-m advantage, preserved through
        execution).
        """
        if not isinstance(self.storage, _COLUMNAR):
            raise StorageError("column-chunk scans need a transposed backing")
        yield from self.storage.scan_column_chunks(indexes, chunk_size)

    def get_row(self, row: int) -> tuple[Any, ...]:
        """One whole row — the informational query."""
        if isinstance(self.storage, _COLUMNAR):
            return self.storage.get_row(row)
        raise StorageError(
            "positional row access requires a transposed backing; heap "
            "files address rows by RID"
        )

    def set_value(self, row: int, attr: str, value: Any) -> Any:
        """Point-update one cell (transposed backing only); returns old value."""
        index = self.schema.index_of(attr)
        if not isinstance(self.storage, _COLUMNAR):
            raise StorageError("point updates by position need a transposed backing")
        old = self.storage.get_value(row, index)
        self.storage.set_value(row, index, value)
        return old

    def materialize(self) -> Relation:
        """Copy into an in-memory :class:`Relation`."""
        return Relation(self.name, self.schema, iter(self))

    def __repr__(self) -> str:
        kind = type(self.storage).__name__
        return f"StoredRelation({self.name!r}, {len(self)} rows, {kind})"


RelationLike = Relation | StoredRelation
