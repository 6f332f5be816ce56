"""Transposed (fully column-wise) files.

The paper (SS2.6, following RAPID and ALDS/SDB) identifies transposed files
as "the best all-around storage structure for statistical data sets": a
statistical operation touching q of m columns reads only those q columns'
pages, while higher software keeps a flat-file view.  The cost is the
"informational" query — reconstructing one whole row touches one page per
column.

Each column is stored as its own chain of pages.  A page holds a uint16
value count followed by the values, either plainly serialized or
RLE-compressed (``compress="rle"``).  Per-column page metadata (first row
and row count per page) lets point lookups find the right page without
scanning the chain, though a compressed page must still be decoded as a
unit — the positional misalignment penalty the paper mentions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import PageError, StorageError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.types import ColumnVector, DataType, is_na
from repro.storage import compression as comp
from repro.storage.pager import BufferPool

_COUNT = struct.Struct("<H")
_MAX_PAGE_VALUES = 0xFFFF


@dataclass
class _ColumnPage:
    page_no: int
    first_row: int
    count: int


@dataclass
class _Fill:
    """A slice of an append that lands on one page.

    ``fresh`` fills start a new page; the first fill of an append may top up
    the open one.  In RLE mode ``runs`` is the page's run list once filled.
    """

    start: int
    stop: int
    fresh: bool
    runs: list[tuple[object, int]]


class _Column:
    """One attribute's chain of value pages."""

    def __init__(
        self,
        pool: BufferPool,
        dtype: DataType,
        compress: str | None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        if compress not in (None, "rle"):
            raise StorageError(f"unsupported compression {compress!r}")
        self.pool = pool
        self.dtype = dtype
        self.compress = compress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pages: list[_ColumnPage] = []
        self.row_count = 0
        # State of the open (last) page, kept in memory to make appends
        # incremental; it mirrors what is on the page.
        self._open_page_no: int | None = None
        self._open_used = 0  # bytes of the page in use, count header included
        self._open_runs: list[tuple[object, int]] = []  # rle mode
        # Last decoded page, memoized: consecutive point probes of the same
        # page (the informational query walking a row range, or an RLE
        # column probed value by value) skip re-decoding the whole page.
        self._memo_page_no = -1
        self._memo_values: ColumnVector | None = None

    # -- append ------------------------------------------------------------

    def plan(self, values: Sequence[object]) -> list[_Fill]:
        """Split an append over pages by the greedy fill; writes nothing.

        A value goes on the open page while its bytes fit (in RLE mode a
        value equal to the last run's head costs none), else it starts a
        page — the rule a value-at-a-time append follows, so the layout
        does not depend on how an append was batched.
        """
        rle = self.compress == "rle"
        block_size = self.pool.disk.block_size
        header = _COUNT.size + (comp.RLE_COUNT_SIZE if rle else 0)
        sizes = comp.encoded_sizes(values, self.dtype)
        has_page = bool(self.pages)
        used = self._open_used
        count = self.pages[-1].count if has_page else 0
        runs = list(self._open_runs)
        fills: list[_Fill] = []
        start = 0
        fresh = False
        for i, value in enumerate(values):
            if rle:
                extends = bool(runs) and runs[-1][0] == value
                need = 0 if extends else sizes[i] + comp.RLE_COUNT_SIZE
            else:
                need = sizes[i]
            if not has_page or used + need > block_size or count >= _MAX_PAGE_VALUES:
                if rle:
                    extends = False
                    need = sizes[i] + comp.RLE_COUNT_SIZE
                if header + need > block_size:
                    raise StorageError(
                        f"a single value of {sizes[i]} bytes exceeds the "
                        f"{block_size}-byte page"
                    )
                if i > start:
                    fills.append(_Fill(start, i, fresh, runs))
                start, fresh, has_page = i, True, True
                used, count, runs = header, 0, []
            used += need
            count += 1
            if rle:
                if extends:
                    runs[-1] = (runs[-1][0], runs[-1][1] + 1)
                else:
                    runs.append((value, 1))
        if len(values) > start:
            fills.append(_Fill(start, len(values), fresh, runs))
        return fills

    def write(self, fill: _Fill, values: Sequence[object]) -> None:
        """Put one planned fill of ``values`` on its page."""
        if fill.fresh:
            self._start_page()
        assert self._open_page_no is not None
        meta = self.pages[-1]
        if self.compress == "rle":
            at = _COUNT.size
            body = comp.rle_encode_runs(fill.runs, self.dtype)
            self._open_runs = fill.runs
        else:
            at = self._open_used
            body = comp.encode_values(values[fill.start : fill.stop], self.dtype)
        page = self.pool.fetch_page(self._open_page_no)
        try:
            page[at : at + len(body)] = body
            meta.count += fill.stop - fill.start
            _COUNT.pack_into(page, 0, meta.count)
        finally:
            self.pool.unpin(self._open_page_no, dirty=True)
        self._open_used = at + len(body)
        self.row_count += fill.stop - fill.start
        if self._memo_page_no == self._open_page_no:
            self._invalidate_memo()

    def _start_page(self) -> None:
        page_no, page = self.pool.new_page()
        _COUNT.pack_into(page, 0, 0)
        self.pool.unpin(page_no, dirty=True)
        self.pages.append(_ColumnPage(page_no, self.row_count, 0))
        self._open_page_no = page_no
        self._open_used = _COUNT.size
        self._open_runs = []

    # -- read --------------------------------------------------------------

    def scan(self) -> Iterator[object]:
        for meta in self.pages:
            yield from self._read_page(meta)

    def scan_pages(self) -> Iterator[ColumnVector]:
        """Stream the column page by page, each as a decoded vector.

        Callers must treat the yielded vectors as read-only: they may be the
        memoized decode shared with point lookups.
        """
        for meta in self.pages:
            yield self._read_page(meta)

    def get(self, row: int) -> object:
        meta = self._page_for_row(row)
        return self._read_page(meta).item(row - meta.first_row)

    def set(self, row: int, value: object) -> None:
        meta = self._page_for_row(row)
        decoded = self._read_page(meta)
        at = row - meta.first_row
        if decoded.typed and self.compress is None and not is_na(value):
            if decoded.mask is None or not decoded.mask[at]:
                self._patch(meta, decoded, at, value)
                return
        # A copy: the decode may be the memoized one, and a rewrite that
        # does not fit must leave it as the page still is.
        values = list(decoded)
        values[at] = value
        if self.compress == "rle":
            body = comp.rle_encode_bytes(values, self.dtype)
        else:
            body = comp.encode_values(values, self.dtype)
        encoded = _COUNT.pack(meta.count) + body
        if len(encoded) > self.pool.disk.block_size:
            raise StorageError(
                "updated page no longer fits; transposed files do not "
                "support growing in-place updates of variable-width values"
            )
        page = self.pool.fetch_page(meta.page_no)
        try:
            page[: len(encoded)] = encoded
            page[len(encoded) :] = bytes(len(page) - len(encoded))
        finally:
            self.pool.unpin(meta.page_no, dirty=True)
        if meta is self.pages[-1]:
            # Refresh open-page state to mirror the rewrite.
            self._open_used = len(encoded)
            if self.compress == "rle":
                self._open_runs = comp.rle_runs(values)
        self._invalidate_memo()

    def _patch(self, meta: _ColumnPage, decoded: ColumnVector, at: int, value: object) -> None:
        """Overwrite value ``at`` of a plain fixed-width page in place.

        A value replacing a value keeps the record's size, so the bytes
        before and after it stay where they are: the record starts after
        ``at`` earlier records, of which the NA ones are one byte long.
        """
        record = comp._encode_value(value, self.dtype)
        missing = 0 if decoded.mask is None else int(np.count_nonzero(decoded.mask[:at]))
        offset = _COUNT.size + at * len(record) - missing * (len(record) - 1)
        page = self.pool.fetch_page(meta.page_no)
        try:
            page[offset : offset + len(record)] = record
        finally:
            self.pool.unpin(meta.page_no, dirty=True)
        self._invalidate_memo()

    # -- internals ----------------------------------------------------------

    def _page_for_row(self, row: int) -> _ColumnPage:
        if not 0 <= row < self.row_count:
            raise PageError(f"row {row} out of range (column has {self.row_count})")
        lo, hi = 0, len(self.pages) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            meta = self.pages[mid]
            if row < meta.first_row:
                hi = mid - 1
            elif row >= meta.first_row + meta.count:
                lo = mid + 1
            else:
                return meta
        return self.pages[lo]

    def _invalidate_memo(self) -> None:
        self._memo_page_no = -1
        self._memo_values = None

    def _read_page(self, meta: _ColumnPage) -> ColumnVector:
        if meta.page_no == self._memo_page_no and self._memo_values is not None:
            return self._memo_values
        self.tracer.add("transposed.pages_read")
        page = self.pool.fetch_page(meta.page_no)
        try:
            # Decoded out of the pinned frame: the codec copies it once.
            (count,) = _COUNT.unpack_from(page, 0)
            if count != meta.count:
                raise PageError(
                    f"page {meta.page_no} holds {count} values, "
                    f"metadata says {meta.count}"
                )
            body = memoryview(page)[_COUNT.size :]
            try:
                if self.compress == "rle":
                    values = comp.rle_decode_column(body, self.dtype, count)
                else:
                    values = comp.decode_column(body, self.dtype, count)
            except PageError as exc:
                raise PageError(f"page {meta.page_no} is damaged: {exc}") from None
        finally:
            self.pool.unpin(meta.page_no)
        if values.typed:
            # Shared with every reader of the memo: nobody writes into it.
            values.data.flags.writeable = False
        self._memo_page_no = meta.page_no
        self._memo_values = values
        return values


class ColumnCursor:
    """One column's page chain read forward, any number of values at a time."""

    __slots__ = ("_pages", "_page", "_at")

    def __init__(self, column: _Column) -> None:
        self._pages = column.scan_pages()
        self._page: ColumnVector | None = None
        self._at = 0

    def take(self, n: int) -> ColumnVector:
        """The next ``n`` values; fewer only where the chain ends."""
        pieces: list[ColumnVector] = []
        while n:
            page = self._page
            if page is None or self._at == len(page):
                page = self._page = next(self._pages, None)
                self._at = 0
                if page is None:
                    break
            piece = page.slice(self._at, self._at + n)
            self._at += len(piece)
            n -= len(piece)
            pieces.append(piece)
        return ColumnVector.concat(pieces)


class TransposedFile:
    """A data set stored column-wise, one page chain per attribute."""

    def __init__(
        self,
        pool: BufferPool,
        types: Sequence[DataType],
        name: str = "transposed",
        compress: str | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.pool = pool
        self.name = name
        self.types = tuple(types)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._columns = [
            _Column(pool, dtype, compress, tracer=self.tracer) for dtype in self.types
        ]
        self._row_count = 0

    def __len__(self) -> int:
        return self._row_count

    @property
    def column_count(self) -> int:
        """Number of attributes."""
        return len(self._columns)

    @property
    def page_count(self) -> int:
        """Total pages across all columns."""
        return sum(len(col.pages) for col in self._columns)

    def column_page_count(self, index: int) -> int:
        """Pages in one column's chain."""
        return len(self._columns[index].pages)

    # -- mutation ----------------------------------------------------------

    def append_row(self, values: Sequence[object]) -> int:
        """Append one row (a value to every column); return its row number.

        A batch of one: the planning is per call, so a loader with more
        than a few rows should hand them to :meth:`append_rows` together.
        """
        self.append_rows([values])
        return self._row_count - 1

    def append_rows(self, rows: Sequence[Sequence[object]]) -> None:
        """Append many rows, a column at a time.

        Each column's values are split over its pages and encoded a page at
        a time.  Pages are allocated in the order a row-at-a-time append
        reaches them (by first row, then column), so the device image is
        the same however the rows were batched.
        """
        for values in rows:
            if len(values) != len(self._columns):
                raise StorageError(
                    f"row has {len(values)} fields, file has {len(self._columns)} columns"
                )
        by_column = list(zip(*rows))
        fills = [
            (fill.start, index, fill)
            for index, values in enumerate(by_column)
            for fill in self._columns[index].plan(values)
        ]
        fills.sort(key=itemgetter(0, 1))
        for _, index, fill in fills:
            self._columns[index].write(fill, by_column[index])
        self._row_count += len(rows)

    def set_value(self, row: int, column: int, value: object) -> None:
        """Point-update one cell (touches only that column's page)."""
        self._columns[column].set(row, value)

    # -- access ------------------------------------------------------------

    def scan_column(self, index: int) -> Iterator[object]:
        """Stream one column — reads only that column's pages (SS2.6)."""
        yield from self._columns[index].scan()

    def scan_columns(self, indexes: Sequence[int]) -> Iterator[tuple[object, ...]]:
        """Stream several columns zipped row-wise."""
        iters = [self._columns[i].scan() for i in indexes]
        yield from zip(*iters)

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[ColumnVector]]:
        """Stream fixed-size column chunks straight off the page chains.

        Each yielded item is one :class:`ColumnVector` per requested column,
        all of the same length (``chunk_size``, except possibly the final
        chunk): typed arrays sliced out of the decoded pages for fixed-width
        columns.  Only the requested columns' pages are read — the q-of-m
        access pattern of SS2.6 — and no row tuples are ever built; this is
        the feed the vectorized execution engine consumes.
        """
        if not indexes:
            raise StorageError("scan_column_chunks requires at least one column")
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        cursors = [self.cursor(i) for i in indexes]
        produced = 0
        while produced < self._row_count:
            take = min(chunk_size, self._row_count - produced)
            out: list[ColumnVector] = []
            for column, cursor in zip(indexes, cursors):
                vector = cursor.take(take)
                if len(vector) < take:
                    have = produced + len(vector)
                    raise StorageError(
                        f"column {column} page chain exhausted after "
                        f"{have} of {self._row_count} rows "
                        f"({self._row_count - have} missing)"
                    )
                out.append(vector)
            self.tracer.add("transposed.chunks")
            yield out
            produced += take

    def cursor(self, index: int) -> "ColumnCursor":
        """A forward reader of one column's page chain."""
        return ColumnCursor(self._columns[index])

    def get_value(self, row: int, column: int) -> object:
        """Point-read one cell."""
        return self._columns[column].get(row)

    def get_row(self, row: int) -> tuple[object, ...]:
        """Reconstruct one whole row — the 'informational' query that costs

        one page access per column (SS2.6)."""
        return tuple(col.get(row) for col in self._columns)

    def scan_rows(self) -> Iterator[tuple[object, ...]]:
        """Stream whole rows (reads every column chain once)."""
        iters = [col.scan() for col in self._columns]
        yield from zip(*iters)
