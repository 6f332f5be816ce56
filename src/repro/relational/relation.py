"""Relations: the flat-file data sets of the paper's data model.

A :class:`Relation` is an in-memory flat file stored transposed (schema +
one value list per attribute, SS2.6's verdict applied to memory).  A
:class:`StoredRelation` has the same interface but keeps its rows in a
storage structure (heap file or transposed file), so iterating it performs
accounted I/O.  Relational operators accept anything exposing ``.schema``
and row iteration, so the two interoperate freely.

A :class:`Relation`'s row count is fixed at construction: its one cell
write is :meth:`~Relation.set_value`, and :meth:`~Relation.append_column`
adds a derived vector beside the others.  So it owns the bookkeeping that
must follow each write: its attribute indexes (:meth:`~Relation.index_on`
— SS2.3's auxiliary structures, built on first use and exact ever after)
and the per-attribute write epochs that tell the MVCC publish path and the
checkpoint which columns changed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import SchemaError, StorageError
from repro.relational.index import AttributeIndex
from repro.relational.schema import Attribute, Schema
from repro.relational.types import ColumnVector, DataType, is_na
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
    """An in-memory flat file stored transposed: one value list per attribute.

    Row access zips the vectors; column access, publication and the
    vectorized engine's chunk scans copy or slice one vector at C speed.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] | None = None,
        validate: bool = False,
    ) -> None:
        rows = [] if rows is None else list(rows)
        if validate:
            for row in rows:
                schema.validate_row(row)
        # A ragged row is refused even unvalidated: it would misalign every column
        # after it.  Census and copies allocate nothing per row, unlike zip(*rows).
        widths = set(map(len, rows))
        if widths - {len(schema)} or (rows and not len(schema)):  # rows need a column
            raise SchemaError(f"rows of {sorted(widths)} fields, schema has {len(schema)}")
        self.name = name
        self.schema = schema
        self._columns = [list(map(itemgetter(i), rows)) for i in range(len(schema))]
        #: The live indexes by attribute; :meth:`index_on` gets or builds one.
        self.indexes: dict[str, AttributeIndex] = {}
        #: Cell writes per attribute (absent = none).
        self.epochs: dict[str, int] = {}

    @classmethod
    def from_columns(
        cls, name: str, schema: Schema, columns: Sequence[Sequence[Any]]
    ) -> "Relation":
        """A relation over one value sequence per attribute, in schema order."""
        if len(columns) != len(schema):
            raise SchemaError(f"{len(columns)} columns for {len(schema)} attributes")
        relation = cls(name, schema)
        relation._columns = [list(values) for values in columns]
        if len({len(values) for values in relation._columns}) > 1:
            try:  # zip's error names the first column of another length
                list(zip(*relation._columns, strict=True))
            except ValueError as exc:
                raise SchemaError(f"columns of unequal length: {exc}") from exc
        return relation

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return zip(*self._columns)

    def row(self, index: int) -> tuple[Any, ...]:
        """The row at position ``index``."""
        return tuple([values[index] for values in self._columns])

    def set_value(self, row: int, attr: str, value: Any) -> Any:
        """Point-update one cell; returns the old value."""
        values = self._columns[self.schema.index_of(attr)]
        old = values[row]
        values[row] = value
        self.epochs[attr] = self.epochs.get(attr, 0) + 1
        if self.indexes:
            self._reindex(attr, row, old, value)
        return old

    def append_column(self, attribute: Attribute, values: Sequence[Any]) -> None:
        """Add ``attribute`` as the last column, one value per row; row

        positions and the other columns, hence the indexes, are untouched."""
        vector = list(values)
        if len(vector) != len(self):
            raise ValueError(f"{len(vector)} values for {len(self)} rows")
        self.schema = self.schema.extend(attribute)
        self._columns.append(vector)
        self.epochs[attribute.name] = 1

    # -- indexes -------------------------------------------------------------

    def index_on(self, attr: str) -> AttributeIndex:
        """The maintained index on ``attr``, built (one pass) on first use."""
        index = self.indexes.get(attr)
        if index is None:
            values = self._columns[self.schema.index_of(attr)]
            index = self.indexes[attr] = AttributeIndex(attr, values)
        return index

    def _reindex(self, attr: str, row: int, old: Any, new: Any) -> None:
        """Carry a cell's change from ``old`` to ``new`` into ``attr``'s

        index, if it has one."""
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
        """All values of one attribute, in row order (NA included): a copy."""
        return self._columns[self.schema.index_of(name)][:]

    def frozen_column(self, name: str) -> tuple[Any, ...]:
        """An immutable copy of one attribute's values, in one C-level copy."""
        return tuple(self._columns[self.schema.index_of(name)])

    def supports_column_chunks(self) -> bool:
        """In-memory rows can always be served column-wise."""
        return True

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[list[Any]]]:
        """Stream the selected columns as fixed-size chunks of value lists.

        The feed for the vectorized engine; each yielded item holds one
        value list per requested column (a slice of its vector), all of the
        same length.
        """
        if not indexes:
            raise StorageError("scan_column_chunks requires at least one column")
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        vectors = [self._columns[i] for i in indexes]
        for start in range(0, len(self), chunk_size):
            yield [values[start : start + chunk_size] for values in vectors]

    def column_array(self, name: str) -> np.ndarray:
        """One numeric column as a float array with NA mapped to NaN."""
        attr = self.schema.attribute(name)
        if not (attr.dtype.is_numeric or attr.dtype is DataType.CATEGORY):
            raise SchemaError(f"attribute {name!r} is not numeric")
        values = self._columns[self.schema.index_of(name)]
        return np.array(
            [float("nan") if is_na(value) else float(value) for value in values],
            dtype=float,
        )

    # -- conversion --------------------------------------------------------------

    def materialize(self) -> "Relation":
        """Self (already in memory)."""
        return self

    def copy(self, name: str | None = None) -> "Relation":
        """An independent copy: each vector copied, the cells shared."""
        return Relation.from_columns(name or self.name, self.schema, self._columns)

    @classmethod
    def from_operator(cls, name: str, op: "RelationLike") -> "Relation":
        """Materialize any schema+rows source into an in-memory relation."""
        return op.copy(name) if isinstance(op, Relation) else cls(name, op.schema, iter(op))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} rows, {self.schema!r})"

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width rendering of the first ``limit`` rows."""
        names = self.schema.names
        rows = [[_fmt(v) for v in self.row(i)] for i in range(min(limit, len(self)))]
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
    ) -> Iterator[list[ColumnVector]]:
        """Stream the selected columns as chunks straight off the page chains.

        Transposed backing only: the q requested columns are decoded page by
        page into typed arrays and rechunked, the other m − q columns are
        never read, and no row tuple is ever built (SS2.6's q-of-m
        advantage, preserved through execution).
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
