"""Concurrency control for multi-analyst operation (``repro.concurrency``).

The paper's architecture is multi-analyst by construction (SS2.3, SS3.2):
several private concrete views share one Management Database, published
edit histories, and — behind the wire server — one process.  This package
is the only place in the codebase allowed to *construct* locks (lint rule
REPRO-A109); everything else either acquires them through the
:class:`LockManager` or holds an injected latch.

Layers:

* :mod:`repro.concurrency.locks` — per-resource exclusive locks (writers,
  registry mutations, checkpoints) with wait-for-graph deadlock detection
  and acquisition timeouts.
* :mod:`repro.concurrency.mvcc` — multi-version concurrency control:
  per-view :class:`VersionChain` of immutable published
  :class:`ViewVersion` records (copy-on-write column chunks, frozen
  summary snapshots) and the lock-free :class:`SnapshotReader`.
* :mod:`repro.concurrency.transactions` — the
  :class:`TransactionCoordinator`: lock-free MVCC snapshot reads (pinned
  published versions), per-view serialized writes that publish at exit,
  quiesced checkpoints.
* :mod:`repro.concurrency.groupcommit` — :class:`GroupCommitter`, batching
  concurrent sessions' WAL transactions into one fsync.
* :mod:`repro.concurrency.tracing` — :class:`ConcurrentTracer` (per-thread
  span stacks) and the latch factory for structures like the Summary
  Database.
* :mod:`repro.concurrency.sanitizer` — :class:`LockOrderSanitizer`, the
  runtime half of the ``REPRO-C2xx`` concurrency analysis: records actual
  acquisition order/stacks and cross-checks them against the static
  lock-order graph.
"""

from repro.concurrency.groupcommit import GroupCommitter
from repro.concurrency.locks import LockManager
from repro.concurrency.mvcc import SnapshotReader, VersionChain, ViewVersion
from repro.concurrency.sanitizer import (
    LockOrderSanitizer,
    SanitizedLatch,
    current_sanitizer,
    install_sanitizer,
)
from repro.concurrency.tracing import ConcurrentTracer, make_latch
from repro.concurrency.transactions import TransactionCoordinator

__all__ = [
    "ConcurrentTracer",
    "GroupCommitter",
    "LockManager",
    "LockOrderSanitizer",
    "SanitizedLatch",
    "SnapshotReader",
    "TransactionCoordinator",
    "VersionChain",
    "ViewVersion",
    "current_sanitizer",
    "install_sanitizer",
    "make_latch",
]
