"""Worker-side shard execution: scan one shard, return partial aggregates.

This module is the only code that runs inside shard worker processes.  A
worker receives its shard's :class:`~repro.storage.transposed.TransposedFile`
once (installed into a module-global cache, re-shipped only when the shard's
version changes) and then serves :class:`ShardRequest` specs: scan the
pruned columns chunk-at-a-time and run the vectorized engine's grouping
loop (:func:`~repro.relational.vectorized.fold_groups`) with the aggregate
table's *partial* states — the exact differencing math, not a second
aggregation path.  The coordinator merges their ``partial_state()``
snapshots (:mod:`repro.relational.sharded`).

Workers are read-only by construction: lint rule REPRO-A110 forbids this
module, and the one hosting the loop, from importing the view/summary
layers (``repro.views``, ``repro.summary``, ``repro.concurrency``) or
calling their write APIs (``set_value``/``append_row``/``mark_stale``/...).
All mutation and all cross-shard state lives in the coordinating process.

Requests ship :class:`~repro.relational.expressions.Expr` trees, not
compiled kernels — closures do not pickle, so each worker compiles
``bind_columns`` locally, once per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import StorageError
from repro.relational.aggregates import AggregateSpec, make_partial
from repro.relational.expressions import Expr
from repro.relational.relation import StoredRelation
from repro.relational.schema import Schema
from repro.relational.vectorized import CHUNK_SIZE, GroupPartial, VecScan, fold_groups
from repro.storage.transposed import TransposedFile


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


def run_partial(file: TransposedFile, request: ShardRequest) -> list[GroupPartial]:
    """Scan one shard and return per-group partial aggregate states."""
    relation = StoredRelation(f"shard{request.shard}", request.schema, file)
    scan = VecScan(relation, columns=list(request.columns), chunk_size=request.chunk_size)
    groups = fold_groups(
        scan,
        request.keys,
        request.specs,
        make_partial,
        request.where.bind_columns(scan.schema) if request.where is not None else None,
    )
    for group in groups.values():
        # Round-robin placement: global row = local position * shards + shard.
        group.first_row = group.first_row * request.shards + request.shard
        group.states = [None if s is None else s.partial_state() for s in group.states]
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
