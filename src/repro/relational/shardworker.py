"""Worker-side shard execution: scan one shard, return partial aggregates.

This module is the only code that runs inside shard worker processes.  A
worker receives its shard's :class:`~repro.storage.transposed.TransposedFile`
once (installed into a module-global cache, re-shipped only when the shard's
version changes) and then serves :class:`ShardRequest` specs: scan the
pruned columns chunk-at-a-time, apply the selection mask, and accumulate
*partial* aggregate states per group through the incremental layer's
``partial_state()`` protocol — the exact differencing math, not a second
aggregation path.  The coordinator merges the partials
(:mod:`repro.relational.sharded`).

Workers are read-only by construction: lint rule REPRO-A110 forbids this
module from importing the view/summary layers (``repro.views``,
``repro.summary``, ``repro.concurrency``) or calling their write APIs
(``set_value``/``mirror_cell``/``append_row``/...).  All mutation and all
cross-shard state lives in the coordinating process.

Requests ship :class:`~repro.relational.expressions.Expr` trees, not
compiled kernels — closures do not pickle, so each worker compiles
``bind_columns`` locally, once per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.errors import QueryError, StorageError
from repro.incremental.aggregates import (
    IncrementalCount,
    IncrementalMinMax,
    IncrementalWeightedMean,
)
from repro.incremental.differencing import DEFINITIONS, AlgebraicForm, IncrementalComputation
from repro.incremental.sketches import HyperLogLog, TDigest
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import Expr
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema
from repro.relational.types import quantile_fraction
from repro.relational.vectorized import CHUNK_SIZE, VecScan
from repro.storage.transposed import TransposedFile

#: Aggregate functions with mergeable per-shard partial states.  The
#: power-sum/counter/minmax families merge losslessly; ``median``,
#: ``quantile_NN``, and ``count_distinct`` — which need the full sorted
#: multiset / a cross-shard set union and used to fall back to the
#: single-stream path — merge through t-digest and HyperLogLog sketch
#: partials within their documented epsilon (exact at small scale: unit
#: centroids / sparse mode).
MERGEABLE_FUNCS = frozenset(
    {
        "count",
        "count_star",
        "sum",
        "avg",
        "mean",
        "min",
        "max",
        "var",
        "std",
        "weighted_avg",
        "median",
        "count_distinct",
    }
)


def is_mergeable(func: str) -> bool:
    """Whether an aggregate has a mergeable partial form (incl. quantile_NN)."""
    return func in MERGEABLE_FUNCS or quantile_fraction(func) is not None


#: Functions answered by the group's row count alone (no partial object).
_SIZE_FUNCS = frozenset({"count_star"})

#: Functions computed over power sums so the merged result is independent
#: of how rows were partitioned (exact for integer-valued data).
_ALGEBRAIC_FUNCS = frozenset({"sum", "avg", "mean", "var", "std"})


def make_partial(spec: AggregateSpec) -> IncrementalComputation | None:
    """A fresh mergeable computation for one aggregate spec.

    Returns ``None`` for specs served by the group size (``count(*)``).
    Both the workers (accumulate) and the coordinator (merge) build their
    states through this single factory, so the two sides cannot disagree
    about a function's partial representation.
    """
    func = spec.func
    if func in _SIZE_FUNCS or (func == "count" and spec.attr is None):
        return None
    if func == "count":
        return IncrementalCount()
    if func in _ALGEBRAIC_FUNCS:
        return AlgebraicForm(DEFINITIONS[func])
    if func in ("min", "max"):
        return IncrementalMinMax()
    if func == "weighted_avg":
        return IncrementalWeightedMean()
    if quantile_fraction(func) is not None:
        return TDigest()
    if func == "count_distinct":
        # Workers only insert, so no values provider is needed; seeded
        # hashing keeps process-mode workers in agreement.
        return HyperLogLog()
    raise QueryError(f"aggregate {func!r} has no mergeable partial form")


@dataclass(frozen=True)
class ShardRequest:
    """One scatter-gather query, as shipped to a shard worker.

    Everything here is picklable plain data; ``where`` is an uncompiled
    expression tree.  ``shard``/``shards`` let the worker translate its
    local row positions back to global row numbers (round-robin placement:
    global = local * shards + shard), which the coordinator uses to restore
    first-seen group order.
    """

    shard: int
    shards: int
    schema: Schema
    columns: tuple[str, ...]
    where: Expr | None
    keys: tuple[str, ...]
    specs: tuple[AggregateSpec, ...]
    chunk_size: int = CHUNK_SIZE


@dataclass
class GroupPartial:
    """One group's accumulated state on one shard."""

    key: tuple[Any, ...]
    first_row: int  # global row number of the group's first selected row
    size: int  # selected rows (count(*) numerator)
    states: list[Any]  # one partial_state() per spec (None for size funcs)


def run_partial(file: TransposedFile, request: ShardRequest) -> list[GroupPartial]:
    """Scan one shard and return per-group partial aggregate states."""
    relation = StoredRelation(f"shard{request.shard}", request.schema, file)
    scan = VecScan(relation, columns=list(request.columns), chunk_size=request.chunk_size)
    mask_fn = request.where.bind_columns(scan.schema) if request.where is not None else None
    key_idx = [scan.schema.index_of(k) for k in request.keys]
    col_idx = [
        scan.schema.index_of(spec.attr) if spec.attr is not None else None
        for spec in request.specs
    ]
    weight_idx = [
        scan.schema.index_of(spec.weight) if spec.weight else None
        for spec in request.specs
    ]
    comps: dict[tuple[Any, ...], list[IncrementalComputation | None]] = {}
    groups: dict[tuple[Any, ...], GroupPartial] = {}
    single_key = len(key_idx) == 1
    base = 0
    for chunk in scan.chunks():
        mask = mask_fn(chunk).data if mask_fn is not None else None
        key_columns = [chunk.columns[i].to_list() for i in key_idx]
        data_columns = [
            None if i is None else chunk.columns[i].to_list() for i in col_idx
        ]
        weight_columns = [
            None if i is None else chunk.columns[i].to_list() for i in weight_idx
        ]
        # Bucket the chunk's selected row positions per group first, then
        # feed each computation one fold() per (group, chunk) — batching
        # turns len(rows) * len(specs) method dispatches into len(groups)
        # * len(specs), which is what keeps the shards=1 serial path at
        # parity with the single-stream vectorized engine.
        buckets: dict[tuple[Any, ...], list[int]] = {}
        first_key_column = key_columns[0] if single_key else None
        for r in range(chunk.length):
            if mask is not None and not mask[r]:
                continue
            key = (
                (first_key_column[r],)
                if first_key_column is not None
                else tuple(column[r] for column in key_columns)
            )
            rows = buckets.get(key)
            if rows is None:
                buckets[key] = rows = []
                if key not in groups:
                    global_row = (base + r) * request.shards + request.shard
                    groups[key] = GroupPartial(
                        key, global_row, 0, [None] * len(request.specs)
                    )
                    comps[key] = [make_partial(spec) for spec in request.specs]
            rows.append(r)
        for key, rows in buckets.items():
            groups[key].size += len(rows)
            for position, comp in enumerate(comps[key]):
                if comp is None:
                    continue
                column = data_columns[position]
                assert column is not None
                weights = weight_columns[position]
                if weights is not None:
                    comp.fold([(column[r], weights[r]) for r in rows])
                else:
                    comp.fold([column[r] for r in rows])
        base += chunk.length
    for key, group in groups.items():
        group.states = [
            None if comp is None else comp.partial_state() for comp in comps[key]
        ]
    return list(groups.values())


# -- process-side payload cache ---------------------------------------------
#
# Each shard gets its own single-worker process pool, so this module-global
# cache inside that process holds exactly one entry per payload token.  The
# coordinator re-ships a shard file only when its version counter moved.

_INSTALLED: dict[str, tuple[int, TransposedFile]] = {}


def install_shard(token: str, version: int, file: TransposedFile) -> int:
    """Install (or replace) a shard payload in this worker process."""
    _INSTALLED[token] = (version, file)
    return version


def run_installed(token: str, version: int, request: ShardRequest) -> list[GroupPartial]:
    """Serve a request against a previously installed shard payload."""
    entry = _INSTALLED.get(token)
    if entry is None or entry[0] != version:
        have = "nothing" if entry is None else f"version {entry[0]}"
        raise StorageError(
            f"shard payload {token!r} at version {version} not installed "
            f"(worker holds {have})"
        )
    return run_partial(entry[1], request)
