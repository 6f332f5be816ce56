"""Scatter-gather execution over sharded transposed files (ROADMAP item 2).

The coordinator side of the sharded path: a :class:`ShardExecutor` fans one
aggregate query out across the shards of a
:class:`~repro.storage.sharded.ShardedTransposedFile` — each shard scanned
by :func:`repro.relational.shardworker.run_partial`, either in-process
(serial fallback) or in that shard's dedicated single-worker
``ProcessPoolExecutor`` (real cores, not GIL-bound threads) — and
:class:`ShardedGroupBy` merges the per-group partial states through the
incremental layer's ``merge_partial()`` protocol on gather.

Why the results match the single-stream engine: the partial states the
aggregate table names (:data:`repro.relational.aggregates.AGGREGATES`) are
partition-order independent — power sums, counters, extremes,
(numerator, denominator) pairs — so the merged totals are the same no
matter how rows were split across shards, and a shard ships a few scalars
per group and aggregate (a sketch for median and count_distinct).  Group
output order is restored by tagging each group with the *global* row
number of its first selected row (the router's inverse mapping) and
sorting the merged groups on the minimum tag: exactly the first-seen
order VecGroupBy produces.

Shard affinity: each shard owns one single-worker process pool, and the
shard's file is shipped (pickled) to that worker once, cached under a
version counter — subsequent queries ship only the request spec.  The pools
for a storage object are cached here, keyed weakly so dropping the storage
tears the workers down (a ``weakref.finalize`` shuts the pools).
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Iterator, Sequence

from repro.core.errors import QueryError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.aggregates import (
    AggregateSpec,
    group_by_schema,
    is_mergeable,
    make_partial,
)
from repro.relational.expressions import Expr
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema
from repro.relational.shardworker import (
    ShardRequest,
    install_shard,
    run_installed,
    run_partial,
)
from repro.relational.vectorized import (
    CHUNK_SIZE,
    ColumnChunk,
    GroupPartial,
    VectorOperator,
    chunks_from_rows,
    group_rows,
    needed_columns,
)
from repro.storage.sharded import ShardedTransposedFile

_MODES = ("auto", "serial", "process")


class ShardExecutor:
    """Runs shard requests against one sharded file, serial or per-process.

    ``mode="auto"`` picks processes only when they can help: more than one
    shard *and* more than one core.  ``"serial"`` always runs in-process
    (no pickling, useful under instrumentation); ``"process"`` forces the
    pools even on one core (the tests use it to exercise the shipping
    path).
    """

    def __init__(
        self,
        storage: ShardedTransposedFile,
        mode: str = "auto",
        tracer: AbstractTracer | None = None,
    ) -> None:
        if mode not in _MODES:
            raise QueryError(f"unknown shard mode {mode!r}; choose from {_MODES}")
        # A weak reference: executors are cached per storage object, and a
        # strong reference here would keep the storage (and its worker
        # pools) alive forever through the cache.
        self._storage_ref = weakref.ref(storage)
        self.mode = mode
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._token = f"shard-{id(storage):x}"
        self._pools: dict[int, ProcessPoolExecutor] = {}
        self._installed: dict[int, int] = {}
        weakref.finalize(storage, _shutdown_pools, self._pools)

    @property
    def storage(self) -> ShardedTransposedFile:
        storage = self._storage_ref()
        if storage is None:
            raise QueryError("the sharded storage this executor served was dropped")
        return storage

    @property
    def resolved_mode(self) -> str:
        """The mode actually used: auto resolves against shards and cores."""
        if self.mode != "auto":
            return self.mode
        multi = self.storage.shard_count > 1 and (os.cpu_count() or 1) > 1
        return "process" if multi else "serial"

    def run(
        self,
        schema: Schema,
        columns: Sequence[str],
        where: Expr | None,
        keys: Sequence[str],
        specs: Sequence[AggregateSpec],
        chunk_size: int = CHUNK_SIZE,
        tracer: AbstractTracer | None = None,
    ) -> list[list[GroupPartial]]:
        """Scatter one request to every shard; per-shard partials, in order."""
        storage = self.storage
        tracer = tracer if tracer is not None else self.tracer
        shards = storage.shard_count
        requests = [
            ShardRequest(
                shard=shard,
                shards=shards,
                schema=schema,
                columns=tuple(columns),
                where=where,
                keys=tuple(keys),
                specs=tuple(specs),
                chunk_size=chunk_size,
            )
            for shard in range(shards)
        ]
        mode = self.resolved_mode
        with tracer.span("shard.scatter_gather", shards=shards, mode=mode):
            if mode == "process":
                return self._run_process(storage, requests, tracer)
            return self._run_serial(storage, requests, tracer)

    def _run_serial(
        self,
        storage: ShardedTransposedFile,
        requests: list[ShardRequest],
        tracer: AbstractTracer,
    ) -> list[list[GroupPartial]]:
        results: list[list[GroupPartial]] = []
        for request in requests:
            tracer.add("shard.scatter")
            with tracer.span("shard.scan", shard=request.shard, mode="serial"):
                partials = run_partial(storage.shard_file(request.shard), request)
            tracer.add("shard.gather", len(partials))
            results.append(partials)
        return results

    def _run_process(
        self,
        storage: ShardedTransposedFile,
        requests: list[ShardRequest],
        tracer: AbstractTracer,
    ) -> list[list[GroupPartial]]:
        futures: list[Future[list[GroupPartial]]] = []
        for request in requests:
            shard = request.shard
            pool = self._pools.get(shard)
            if pool is None:
                # One single-worker pool per shard: the same process serves
                # every request for its shard, so the installed payload
                # survives across queries (shard affinity).
                self._pools[shard] = pool = ProcessPoolExecutor(max_workers=1)
            version = storage.shard_version(shard)
            if self._installed.get(shard) != version:
                pool.submit(
                    install_shard, self._token, version, storage.shard_file(shard)
                ).result()
                self._installed[shard] = version
            tracer.add("shard.scatter")
            futures.append(pool.submit(run_installed, self._token, version, request))
        results: list[list[GroupPartial]] = []
        for request, future in zip(requests, futures):
            with tracer.span("shard.scan", shard=request.shard, mode="process"):
                partials = future.result()
            tracer.add("shard.gather", len(partials))
            results.append(partials)
        return results

    def close(self) -> None:
        """Shut down the worker pools (idempotent)."""
        _shutdown_pools(self._pools)
        self._installed.clear()


def _shutdown_pools(pools: dict[int, ProcessPoolExecutor]) -> None:
    for pool in pools.values():
        pool.shutdown(wait=False, cancel_futures=True)
    pools.clear()


#: Executor cache: one per (storage, mode).  Keyed weakly — executors hold
#: only a weak reference back, so dropping the storage frees everything.
_EXECUTORS: "weakref.WeakKeyDictionary[ShardedTransposedFile, dict[str, ShardExecutor]]"
_EXECUTORS = weakref.WeakKeyDictionary()


def get_executor(
    storage: ShardedTransposedFile,
    mode: str = "auto",
    tracer: AbstractTracer | None = None,
) -> ShardExecutor:
    """The cached executor for ``storage`` and ``mode`` (created on first use)."""
    per_storage = _EXECUTORS.setdefault(storage, {})
    executor = per_storage.get(mode)
    if executor is None:
        per_storage[mode] = executor = ShardExecutor(storage, mode=mode, tracer=tracer)
    return executor


def is_sharded_source(source: Any) -> bool:
    """Whether ``source`` is a relation over sharded transposed storage."""
    return isinstance(source, StoredRelation) and isinstance(
        source.storage, ShardedTransposedFile
    )


def gather_rows(
    per_shard: Sequence[Sequence[GroupPartial]],
    keys: Sequence[str],
    specs: Sequence[AggregateSpec],
) -> list[tuple[Any, ...]]:
    """Merge per-shard group partials into final output rows.

    Groups merge by key through ``merge_partial``; output order is
    ascending minimum global first-row, which reproduces the single-stream
    engine's first-seen order.  The rows are finalized as VecGroupBy's are
    (:func:`~repro.relational.vectorized.group_rows`), the empty-input
    grand-total row included.
    """
    merged: dict[tuple[Any, ...], GroupPartial] = {}
    for shard_result in per_shard:
        for partial in shard_result:
            group = merged.get(partial.key)
            if group is None:
                states = [make_partial(spec) for spec in specs]
                merged[partial.key] = group = GroupPartial(
                    partial.key, partial.first_row, 0, states
                )
            group.first_row = min(group.first_row, partial.first_row)
            group.size += partial.size
            for state, shipped in zip(group.states, partial.states):
                if state is not None:
                    state.merge_partial(shipped)
    return group_rows(merged, keys, specs, make_partial)


class ShardedGroupBy(VectorOperator):
    """Group-by/aggregate over a sharded source, executed scatter-gather.

    A plan leaf (like :class:`~repro.relational.vectorized.VecScan`): the
    selection predicate is pushed into the per-shard scans, so no separate
    VecSelect appears above it.  Output is one chunk of merged group rows.
    """

    def __init__(
        self,
        source: StoredRelation,
        keys: Sequence[str],
        specs: Sequence[AggregateSpec],
        where: Expr | None = None,
        chunk_size: int = CHUNK_SIZE,
        executor: ShardExecutor | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        if not is_sharded_source(source):
            raise QueryError("ShardedGroupBy requires sharded transposed storage")
        unmergeable = sorted(
            {spec.func for spec in specs if not is_mergeable(spec.func)}
        )
        if unmergeable:
            raise QueryError(
                f"aggregates {unmergeable} have no mergeable partial form; "
                "use the single-stream engine"
            )
        self.schema = group_by_schema(source.schema, keys, specs)
        self.source = source
        self.keys = list(keys)
        self.specs = list(specs)
        self.where = where
        self.chunk_size = chunk_size
        # None (the planner's default) defers to the executor's tracer, so
        # a tracer injected via get_executor() still sees planner-built
        # scatter-gather plans.
        self.tracer = tracer
        self.executor = executor if executor is not None else get_executor(source.storage)
        self._columns = needed_columns(source.schema, where, keys, specs)

    def chunks(self) -> Iterator[ColumnChunk]:
        per_shard = self.executor.run(
            schema=self.source.schema,
            columns=self._columns,
            where=self.where,
            keys=self.keys,
            specs=self.specs,
            chunk_size=self.chunk_size,
            tracer=self.tracer,
        )
        rows = gather_rows(per_shard, self.keys, self.specs)
        yield from chunks_from_rows(self.schema, rows, max(len(rows), 1))


__all__ = [
    "ShardExecutor",
    "ShardedGroupBy",
    "gather_rows",
    "get_executor",
    "is_mergeable",
    "is_sharded_source",
]
