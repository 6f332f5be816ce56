"""Horizontally sharded transposed files.

A :class:`ShardedTransposedFile` partitions one logical transposed view
across N shard files, each on its own :class:`SimulatedDisk` behind its own
:class:`BufferPool` — the multi-spindle layout.  Queries read it in global
row order through :meth:`ShardedTransposedFile.scan_column_chunks`, the
same chunk feed a plain :class:`TransposedFile` gives the vectorized
engine, so a sharded table answers exactly as one file does.

Placement is round-robin modulo: global row ``r`` lives on shard ``r % N``
at local position ``r // N``.  The :class:`ShardRouter` is the single
authority for that arithmetic, so point access and the interleaved scans
cannot drift apart.  Round-robin keeps shards balanced to within one row
under append-only growth.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import StorageError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.types import ColumnVector, DataType
from repro.storage.disk import DEFAULT_BLOCK_SIZE, SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile


class ShardRouter:
    """Round-robin modulo placement of global rows onto shards."""

    __slots__ = ("shards",)

    def __init__(self, shards: int) -> None:
        if shards <= 0:
            raise StorageError(f"shard count must be positive, got {shards}")
        self.shards = shards

    def shard_of(self, row: int) -> int:
        """Which shard owns global row ``row``."""
        return row % self.shards

    def local_row(self, row: int) -> int:
        """The owning shard's local position of global row ``row``."""
        return row // self.shards


class ShardedTransposedFile:
    """One logical transposed file partitioned across N shard files.

    Duck-typed to :class:`TransposedFile`'s read/write surface (``__len__``,
    ``append_row``, ``set_value``, ``get_value``, ``scan_column_chunks``,
    ...) so :class:`repro.relational.relation.StoredRelation` and
    :class:`repro.views.view.ConcreteView` can sit on either without
    branching.  Scans interleave the shard chains back into global row
    order through the router.
    """

    def __init__(
        self,
        types: Sequence[DataType],
        shards: int = 4,
        name: str = "sharded",
        compress: str | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        pool_capacity: int = 64,
        policy: str = "lru",
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.router = ShardRouter(shards)
        self.name = name
        self.types = tuple(types)
        self.compress = compress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._files = [
            TransposedFile(
                BufferPool(
                    SimulatedDisk(block_size=block_size),
                    capacity=pool_capacity,
                    policy=policy,
                    tracer=self.tracer,
                ),
                self.types,
                name=f"{name}.shard{index}",
                compress=compress,
                tracer=self.tracer,
            )
            for index in range(shards)
        ]
        self._row_count = 0

    def __len__(self) -> int:
        return self._row_count

    @property
    def column_count(self) -> int:
        """Number of attributes."""
        return len(self.types)

    @property
    def page_count(self) -> int:
        """Total pages across all shards and columns."""
        return sum(file.page_count for file in self._files)

    # -- mutation ------------------------------------------------------------

    def append_row(self, values: Sequence[object]) -> int:
        """Append one row to its round-robin shard; return the global row."""
        self.append_rows([values])
        return self._row_count - 1

    def append_rows(self, rows: Sequence[Sequence[object]]) -> None:
        """Append many rows: each shard takes its stride of them in bulk."""
        # Checked for the whole batch first: a shard refusing its part after
        # another has written would leave the shards misaligned for good.
        for values in rows:
            if len(values) != len(self.types):
                raise StorageError(
                    f"row has {len(values)} fields, file has {len(self.types)} columns"
                )
        shards = self.router.shards
        for shard, file in enumerate(self._files):
            # The first of ``rows`` this shard owns, then every Nth after it.
            first = (shard - self._row_count) % shards
            part = rows[first::shards]
            if part:
                file.append_rows(part)
        self._row_count += len(rows)

    def set_value(self, row: int, column: int, value: object) -> None:
        """Point-update one cell on its owning shard."""
        self._check_row(row)
        self._files[self.router.shard_of(row)].set_value(
            self.router.local_row(row), column, value
        )

    # -- access (global row order) -------------------------------------------

    def get_value(self, row: int, column: int) -> object:
        """Point-read one cell."""
        self._check_row(row)
        return self._files[self.router.shard_of(row)].get_value(
            self.router.local_row(row), column
        )

    def get_row(self, row: int) -> tuple[object, ...]:
        """Reconstruct one whole row (one page access per column, SS2.6)."""
        self._check_row(row)
        return self._files[self.router.shard_of(row)].get_row(
            self.router.local_row(row)
        )

    def scan_column(self, index: int) -> Iterator[object]:
        """Stream one column in global row order (round-robin interleave)."""
        yield from self._merge(file.scan_column(index) for file in self._files)

    def scan_columns(self, indexes: Sequence[int]) -> Iterator[tuple[object, ...]]:
        """Stream several columns zipped row-wise, global order."""
        iters = [self.scan_column(i) for i in indexes]
        yield from zip(*iters)

    def scan_rows(self) -> Iterator[tuple[object, ...]]:
        """Stream whole rows in global order."""
        yield from self._merge(file.scan_rows() for file in self._files)

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[ColumnVector]]:
        """Global-order column chunks, interleaved from the shard chains.

        Same contract as :meth:`TransposedFile.scan_column_chunks`, so the
        vectorized engine reads a sharded table as it reads one file.  A
        chunk's rows on one shard are every Nth row of it, so each shard's
        run goes in with one strided assignment.
        """
        if not indexes:
            raise StorageError("scan_column_chunks requires at least one column")
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        shards = self.router.shards
        cursors = [[file.cursor(i) for file in self._files] for i in indexes]
        produced = 0
        while produced < self._row_count:
            take = min(chunk_size, self._row_count - produced)
            out: list[ColumnVector] = []
            for column, per_shard in zip(indexes, cursors):
                # Chunk offset ``at`` holds global row produced + at, which
                # lives on shard (produced + at) % N.
                runs = [
                    per_shard[(produced + at) % shards].take(len(range(at, take, shards)))
                    for at in range(min(shards, take))
                ]
                short = take - sum(len(run) for run in runs)
                if short:
                    raise StorageError(
                        f"column {column} shard chains exhausted {short} rows early"
                    )
                out.append(_interleave(runs, take))
            self.tracer.add("sharded.chunks")
            yield out
            produced += take

    # -- internals -----------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._row_count:
            raise StorageError(
                f"row {row} out of range (file has {self._row_count})"
            )

    def _merge(self, per_shard: Iterable[Iterator[object]]) -> Iterator[object]:
        """Round-robin the shard streams back into global row order."""
        iters = list(per_shard)
        n = len(iters)
        for row in range(self._row_count):
            stream = iters[row % n]
            value = next(stream, _EXHAUSTED)
            if value is _EXHAUSTED:
                raise StorageError(
                    f"shard {row % n} stream exhausted at global row {row} "
                    f"of {self._row_count}"
                )
            yield value


_EXHAUSTED = object()


def _interleave(runs: Sequence[ColumnVector], length: int) -> ColumnVector:
    """One vector whose offsets ``at``, ``at + N``, ... hold ``runs[at]``."""
    step = len(runs)
    masked = any(run.mask is not None for run in runs)
    if runs[0].typed:
        data: Any = np.empty(length, runs[0].data.dtype)
        mask: Any = np.zeros(length, bool) if masked else None
    else:
        data = [None] * length
        mask = [False] * length if masked else None
    for at, run in enumerate(runs):
        data[at::step] = run.data
        if run.mask is not None:
            mask[at::step] = run.mask
    return ColumnVector(data, mask)
