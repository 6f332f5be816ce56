"""Crash-safe durability: write-ahead logging, checkpoints, and recovery.

The paper's Management Database is the system's institutional memory — view
definitions, per-view update histories (undo, sharing of "clean" data,
SS2.3/SS3.2), rules, code books.  This package keeps that memory, and the
Summary Databases maintained from it, consistent across process death:

* :class:`~repro.durability.wal.WriteAheadLog` — framed, CRC32-checksummed
  records with explicit begin/op/commit markers and fsync points;
* :class:`~repro.durability.checkpoint.Checkpointer` — atomic
  temp-file-plus-rename snapshots that truncate the log;
* :func:`~repro.durability.recovery.recover` — checkpoint load + committed
  replay through the update propagator (summary entries rebuilt
  *incrementally* from the log);
* :class:`~repro.durability.faults.FaultInjector` — the deterministic
  fault-injection harness behind the crash-point sweep tests.

Lint rule REPRO-A108 keeps every WAL/checkpoint file access inside this
package: the framing, checksum, and fsync discipline is the durability
contract, and ad-hoc ``open()`` calls would bypass it.
"""

from repro.durability.checkpoint import Checkpointer
from repro.durability.faults import (
    NO_FAULTS,
    FaultInjector,
    FaultPlan,
    FaultyFile,
)
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryReport, recover
from repro.durability.wal import WalScan, WriteAheadLog

__all__ = [
    "Checkpointer",
    "DurabilityManager",
    "FaultInjector",
    "FaultPlan",
    "FaultyFile",
    "NO_FAULTS",
    "RecoveryReport",
    "WalScan",
    "WriteAheadLog",
    "recover",
]
