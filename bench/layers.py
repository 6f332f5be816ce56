"""Which public callables of which ``repro`` package a traced run wraps.

``install(recorder)`` is called once per traced process (the bench process
and the server child), before any DBMS object is built: some callables are
captured by value when the function registry is constructed.
"""

from __future__ import annotations

import importlib
from typing import Any

from spans import Recorder

#: (path, span name) for plain functions and methods.
PLAIN = [
    # concurrency: MVCC publication and pins, group commit, quiesced checkpoint.
    ("repro.concurrency.mvcc:VersionChain.pin", "concurrency.pin"),
    ("repro.concurrency.mvcc:VersionChain.unpin", "concurrency.pin"),
    ("repro.concurrency.groupcommit:GroupCommitter.stage", "concurrency.commit_stage"),
    ("repro.concurrency.groupcommit:GroupCommitter.wait", "concurrency.commit_wait"),
    ("repro.concurrency.transactions:TransactionCoordinator.checkpoint", "concurrency.checkpoint"),
    # core: the session verbs and propagation.
    ("repro.core.session:AnalystSession.update", "core.update"),
    ("repro.core.session:AnalystSession.update_cells", "core.update"),
    ("repro.core.session:AnalystSession.undo", "core.undo"),
    ("repro.core.session:AnalystSession.compute", "core.compute"),
    ("repro.concurrency.mvcc:SnapshotReader.compute", "core.snapshot_compute"),
    ("repro.core.propagation:UpdatePropagator.propagate", "core.propagate"),
    # summary
    ("repro.summary.summarydb:SummaryDatabase.lookup", "summary.lookup"),
    ("repro.summary.summarydb:SummaryDatabase.insert", "summary.insert"),
    ("repro.summary.summarydb:SummaryDatabase.refresh", "summary.refresh"),
    ("repro.summary.summarydb:SummaryDatabase.mark_stale", "summary.mark_stale"),
    ("repro.summary.summarydb:SummaryDatabase.snapshot_fresh", "summary.snapshot"),
    # views
    ("repro.views.updates:update_rows", "views.update_rows"),
    ("repro.views.materialize:materialize", "views.materialize"),
    ("repro.views.history:UpdateHistory.undo_last", "views.undo_last"),
    # relational (execution is spanned where the benchmark iterates a plan)
    ("repro.relational.sql:parse", "relational.parse"),
    ("repro.relational.planner:plan", "relational.plan"),
    # storage
    ("repro.storage.pager:BufferPool.fetch_page", "storage.fetch"),
    ("repro.storage.pager:BufferPool.unpin", "storage.fetch"),
    ("repro.storage.pager:BufferPool.flush_all", "storage.flush"),
    ("repro.storage.transposed:TransposedFile.set_value", "storage.set_value"),
    # durability
    ("repro.durability.wal:WriteAheadLog.append_many", "durability.wal_append"),
    ("repro.durability.wal:WriteAheadLog.sync", "durability.fsync"),
    ("repro.durability.wal:WriteAheadLog.scan", "durability.wal_scan"),
    ("repro.durability.wal:WriteAheadLog.truncate", "durability.wal_truncate"),
    ("repro.durability.checkpoint:Checkpointer.load", "durability.checkpoint_load"),
    ("repro.durability.manager:DurabilityManager.log_operations", "durability.log"),
    ("repro.durability.manager:DurabilityManager.log_undo", "durability.log"),
    ("repro.durability.manager:DurabilityManager.log_view_created", "durability.log"),
    # workspace
    ("repro.workspace.manifest:read_manifest", "workspace.manifest_read"),
    ("repro.workspace.manifest:write_manifest", "workspace.manifest_write"),
    ("repro.workspace.index:WorkspaceIndex.rebuild", "workspace.index_rebuild"),
    ("repro.workspace.space:Workspace.find", "workspace.find"),
    ("repro.workspace.space:Workspace.recover_all", "workspace.recover_all"),
    ("repro.workspace.space:Workspace.open_many", "workspace.open_many"),
    ("repro.workspace.space:Workspace.checkpoint_all", "workspace.checkpoint_all"),
    ("repro.workspace.space:Workspace.refresh_manifest", "workspace.refresh_manifest"),
    ("repro.workspace.space:ManagedView.checkpoint", "workspace.checkpoint"),
]

METADATA_CODEC = (
    "management_to_dict", "management_from_dict", "history_to_dict",
    "history_from_dict", "operation_to_dict", "operation_from_dict",
    "definition_to_dict", "definition_from_dict",
)

STATS_FUNCTIONS = (
    "vmin", "vmax", "vsum", "mean", "variance", "std", "median", "quantile",
    "na_count", "unique_count", "mode",
)

INCREMENTAL_MODULES = (
    "repro.incremental.aggregates", "repro.incremental.differencing",
    "repro.incremental.order_stats", "repro.incremental.histogram",
    "repro.incremental.sketches", "repro.stats.models", "repro.metadata.functions",
)

_READ_OPS = ("query", "columns", "history")


def _resolve(path: str) -> tuple[Any, str]:
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(rec: Recorder) -> None:
    for path, name in PLAIN:
        owner, attr = _resolve(path)
        rec.wrap(owner, attr, name)

    persistence = importlib.import_module("repro.metadata.persistence")
    for fn in METADATA_CODEC:
        rec.wrap(persistence, fn, "metadata.codec")
    descriptive = importlib.import_module("repro.stats.descriptive")
    for fn in STATS_FUNCTIONS:
        rec.wrap(descriptive, fn, "stats.compute")

    for module in INCREMENTAL_MODULES:
        importlib.import_module(module)
    differencing = importlib.import_module("repro.incremental.differencing")
    base = differencing.IncrementalComputation
    for cls in [base, *_subclasses(base)]:
        for attr, name in (
            ("apply_batch", "incremental.apply"),
            ("on_update", "incremental.apply"),
            ("initialize", "incremental.initialize"),
        ):
            if attr in cls.__dict__:
                rec.wrap(cls, attr, name)

    # -- hooks that carry a request id or take a count ----------------------
    # server: the wire codec (both ends) and the two ways a request executes.
    protocol = importlib.import_module("repro.server.protocol")
    rec.wrap(
        protocol, "decode_payload", "server.codec.decode",
        after=lambda span, args, message: span.__setitem__(5, message.get("id")),
    )
    rec.wrap(
        protocol, "encode_frame", "server.codec.encode",
        request=lambda args, kwargs: args[0].get("id"),
    )

    server = importlib.import_module("repro.server.server").AnalystServer

    def inline_after(span: list, args: tuple, response: Any) -> None:
        rec.count("server.queries")
        if response is not None:
            rec.count("server.inline_hits")

    rec.wrap(
        server, "_serve_read_inline", "server.read_inline",
        request=lambda args, kwargs: args[2].get("id"), after=inline_after,
    )

    def execute_after(span: list, args: tuple, response: Any) -> None:
        op = args[3].get("op")
        rec.count("server.replica_ops" if op in _READ_OPS else "server.worker_ops")

    rec.wrap(
        server, "_execute", "server.execute",
        request=lambda args, kwargs: args[3].get("id"), after=execute_after,
    )

    transactions = importlib.import_module("repro.concurrency.transactions")
    rec.wrap_context(transactions.TransactionCoordinator, "write", "concurrency.write")
    rec.wrap_context(transactions.TransactionCoordinator, "read", "concurrency.read")

    mvcc = importlib.import_module("repro.concurrency.mvcc")
    rec.wrap(
        mvcc.VersionChain, "publish_version", "concurrency.publish",
        after=lambda span, args, version: rec.gauge_max(
            "concurrency.live_versions_max", len(args[0].live())
        ),
    )

    updates = importlib.import_module("repro.views.updates")

    def apply_after(span: list, args: tuple, deltas: Any) -> None:
        rec.count("views.rows_examined", len(args[0]))
        rec.count("views.rows_changed", sum(delta.size for delta in deltas.values()))

    rec.wrap(updates, "apply_update", "views.apply_update", after=apply_after)

    checkpoint = importlib.import_module("repro.durability.checkpoint")
    rec.wrap(
        checkpoint.Checkpointer, "write", "durability.checkpoint_write",
        after=lambda span, args, path: rec.count(
            "durability.checkpoint_bytes", path.stat().st_size
        ),
    )

    recovery = importlib.import_module("repro.durability.recovery")

    def recover_after(span: list, args: tuple, result: Any) -> None:
        report = result[1]
        rec.count(
            "durability.replayed_ops", report.operations_replayed + report.undos_replayed
        )

    rec.wrap(recovery, "recover", "durability.recover", after=recover_after)
