"""Bridges from the benchmark's plain generated data to ``repro`` objects,
and the fsync ledger both served workloads use for their crash check."""

from __future__ import annotations

import os
import struct
import time
from pathlib import Path

import env

env.require_repro()

from repro.durability.faults import FaultInjector  # noqa: E402
from repro.durability.manager import WAL_NAME  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.schema import Attribute, AttributeRole, Schema  # noqa: E402
from repro.relational.types import NA, DataType  # noqa: E402


def people_schema() -> Schema:
    return Schema(
        [
            Attribute("PERSON_ID", DataType.INT, AttributeRole.CATEGORY),
            Attribute("AGE", DataType.INT, AttributeRole.MEASURE),
            Attribute("INCOME", DataType.FLOAT, AttributeRole.MEASURE),
            Attribute("HOURS_WORKED", DataType.FLOAT, AttributeRole.MEASURE),
        ]
    )


def with_na(rows: list[tuple]) -> list[tuple]:
    """Generated rows use ``None`` for a missing value; the program uses NA."""
    return [tuple(NA if value is None else value for value in row) for row in rows]


def people_relation(name: str, rows: list[tuple]) -> Relation:
    return Relation(name, people_schema(), with_na(rows))


class FsyncLedger(FaultInjector):
    """The flush policy of every durable workload, and the crash ledger.

    It injects no fault.  The program fsyncs on every commit batch; each of
    those calls is counted and flushed to the OS, and the thread yields (as
    it would while a device worked), but the device itself is not waited
    for: this sandbox's fsync swung between 0.13 ms and 2.2 ms within a
    minute, which would drown every write metric, and a CPU sandbox's flush
    latency is not a device's anyway.  What a flush costs is reported as
    counts: fsyncs per write and log bytes per write.

    Each byte written to ``log.wal`` is counted, and the WAL length each
    fsync covered is recorded in a sidecar file.  Killing a process leaves
    the OS cache intact, so a crash check has to discard unflushed bytes
    itself: after SIGKILL the parent cuts ``log.wal`` back to the recorded
    length before it runs recovery.
    """

    def __init__(self, ledger_path: Path | None = None) -> None:
        super().__init__()
        self._fd = (
            os.open(ledger_path, os.O_CREAT | os.O_WRONLY, 0o644) if ledger_path else None
        )
        self.wal_fsyncs = 0
        self.wal_bytes = 0

    def write(self, handle, data: bytes) -> None:  # type: ignore[no-untyped-def]
        super().write(handle, data)
        if str(getattr(handle, "name", "")).endswith(WAL_NAME):
            self.wal_bytes += len(data)

    def fsync(self, handle) -> None:  # type: ignore[no-untyped-def]
        self.fsyncs += 1
        handle.flush()
        time.sleep(0)
        if str(getattr(handle, "name", "")).endswith(WAL_NAME):
            self.wal_fsyncs += 1
            if self._fd is not None:
                length = os.fstat(handle.fileno()).st_size
                os.pwrite(self._fd, struct.pack("<Q", length), 0)

    def fsync_directory(self, path) -> None:  # type: ignore[no-untyped-def]
        self.fsyncs += 1
        time.sleep(0)

    def adopt(self, durability) -> None:  # type: ignore[no-untyped-def]
        """Route an already-built durability manager's flushes through this
        ledger (``Workspace.open`` builds managers with a default injector)."""
        durability.faults = durability.wal.faults = durability.checkpointer.faults = self


def cut_wal_to_ledger(directory: Path, ledger_path: Path) -> None:
    """Truncate ``log.wal`` to the last fsynced length."""
    data = ledger_path.read_bytes() if ledger_path.exists() else b""
    fsynced = struct.unpack("<Q", data)[0] if len(data) == 8 else 0
    wal = directory / WAL_NAME
    size = wal.stat().st_size if wal.exists() else 0
    if size > fsynced:
        with open(wal, "r+b") as handle:
            handle.truncate(fsynced)
