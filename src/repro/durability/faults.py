"""Deterministic fault injection for the durability layer.

The recovery protocol is only trustworthy if it survives a crash at *every*
I/O point, not just the ones a hand-written test happens to hit.  A
:class:`FaultPlan` names one I/O operation by ordinal — "die on the 7th
write", "die on the 2nd fsync", "die on the 1st rename" — and a
:class:`FaultInjector` counts every write, fsync, file open, and
:func:`os.replace` the WAL and checkpointer perform, raising
:class:`~repro.core.errors.InjectedFault` when the planned operation
arrives.  ``torn`` mode writes only a prefix of the buffer before dying, so
the log ends in a half-written frame exactly as a real power cut leaves it.

Opens and renames matter as much as writes: the checkpoint protocol's
commit point is an ``os.replace``, and the WAL is truncated by a
truncating ``open``.  A sweep that cannot die *between* those two steps
(checkpoint durable, log not yet truncated) would never exercise the
replay-idempotence guards, so both are first-class fault points.

Because the counters are global to the injector, a crash-point sweep is a
loop: run the same workload with ``FaultPlan(fail_on_write=k)`` for every
``k`` in the schedule, recover, and check the invariants (see
``tests/durability/test_crash_sweep.py``).  The same plan can also target
the simulated block device (:class:`~repro.storage.disk.SimulatedDisk`
accepts an injector), so storage-level write paths get the same treatment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.core.errors import DurabilityError, InjectedFault

#: Fault modes: ``raise`` dies before the doomed write reaches the file;
#: ``torn`` writes a prefix of the buffer first (a half-written frame).
FAULT_MODES = ("raise", "torn")


@dataclass(frozen=True)
class FaultPlan:
    """Which I/O operation dies, counted from 1 across the injector's life.

    Parameters
    ----------
    fail_on_write:
        Die on the Nth file write (``None`` = never).
    fail_on_fsync:
        Die on the Nth fsync — file or directory (``None`` = never).
    fail_on_open:
        Die on the Nth file open, *before* the file is touched, so a
        fault at a truncating open leaves the old contents intact
        (``None`` = never).
    fail_on_replace:
        Die on the Nth :func:`os.replace`, before the rename happens
        (``None`` = never).
    fail_on_block_write:
        Die on the Nth simulated-disk block write (``None`` = never).
    mode:
        ``"raise"`` dies cleanly before the write; ``"torn"`` writes the
        first half of the buffer, then dies (fsync/open/replace faults
        always raise).
    """

    fail_on_write: int | None = None
    fail_on_fsync: int | None = None
    fail_on_open: int | None = None
    fail_on_replace: int | None = None
    fail_on_block_write: int | None = None
    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise DurabilityError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        for name in (
            "fail_on_write",
            "fail_on_fsync",
            "fail_on_open",
            "fail_on_replace",
            "fail_on_block_write",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DurabilityError(f"{name} must be >= 1, got {value}")


#: A plan that never fires — the default for production use.
NO_FAULTS = FaultPlan()


class FaultInjector:
    """Counts durable I/O operations and dies where the plan says.

    One injector is shared by every durability component of a DBMS (WAL,
    checkpointer, optionally the simulated disk), so ordinals in a
    :class:`FaultPlan` index the *global* I/O schedule of a workload.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or NO_FAULTS
        self.writes = 0
        self.fsyncs = 0
        self.opens = 0
        self.replaces = 0
        self.block_writes = 0

    # -- file I/O hooks ----------------------------------------------------

    def open(self, path: str | os.PathLike, mode: str = "ab") -> "FaultyFile":
        """Open a real file wrapped so its writes/fsyncs are counted.

        The open itself is a fault point, and a fault fires *before* the
        file is touched — crucial for truncating modes (``wb``), where
        dying at the open must leave the old contents on disk.
        """
        self.opens += 1
        if self.plan.fail_on_open is not None and self.opens >= self.plan.fail_on_open:
            raise InjectedFault(f"injected fault on open #{self.opens} of {path}")
        return FaultyFile(open(path, mode), self)

    def replace(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        """Perform one counted :func:`os.replace`, honouring the plan.

        The rename is the checkpoint protocol's commit point; a fault
        fires before it happens, leaving ``dst`` untouched.
        """
        self.replaces += 1
        if (
            self.plan.fail_on_replace is not None
            and self.replaces >= self.plan.fail_on_replace
        ):
            raise InjectedFault(
                f"injected fault on replace #{self.replaces} ({src} -> {dst})"
            )
        os.replace(src, dst)

    def write(self, handle: IO[bytes], data: bytes) -> None:
        """Perform one counted write, honouring the plan."""
        self.writes += 1
        if self.plan.fail_on_write is not None and self.writes >= self.plan.fail_on_write:
            if self.plan.mode == "torn" and data:
                handle.write(data[: max(1, len(data) // 2)])
                handle.flush()
            raise InjectedFault(
                f"injected fault on write #{self.writes} ({self.plan.mode})"
            )
        handle.write(data)

    def fsync(self, handle: IO[bytes]) -> None:
        """Perform one counted flush+fsync, honouring the plan."""
        self.fsyncs += 1
        if self.plan.fail_on_fsync is not None and self.fsyncs >= self.plan.fail_on_fsync:
            raise InjectedFault(f"injected fault on fsync #{self.fsyncs}")
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_directory(self, path: str | os.PathLike) -> None:
        """Counted directory fsync: makes a rename or creation durable.

        Shares the fsync counter (and ``fail_on_fsync`` ordinal) with file
        fsyncs, so the sweep covers crashes between a rename and its
        durability point.  The fsync itself is best-effort — platforms or
        filesystems without directory fsync are silently tolerated.
        """
        self.fsyncs += 1
        if self.plan.fail_on_fsync is not None and self.fsyncs >= self.plan.fail_on_fsync:
            raise InjectedFault(
                f"injected fault on fsync #{self.fsyncs} (directory {path})"
            )
        fsync_directory(path)

    # -- simulated-disk hook ----------------------------------------------

    def on_block_write(self, block_no: int) -> None:
        """Count one simulated-disk block write, honouring the plan."""
        self.block_writes += 1
        if (
            self.plan.fail_on_block_write is not None
            and self.block_writes >= self.plan.fail_on_block_write
        ):
            raise InjectedFault(
                f"injected fault on block write #{self.block_writes} "
                f"(block {block_no})"
            )


class FaultyFile:
    """A binary file handle whose writes and syncs route through an injector.

    Only the operations the durability layer uses are proxied; everything
    else (``read``, ``seek``, ...) falls through to the real handle.
    """

    def __init__(self, handle: IO[bytes], injector: FaultInjector) -> None:
        self._handle = handle
        self._injector = injector

    def write(self, data: bytes) -> int:
        self._injector.write(self._handle, data)
        return len(data)

    def sync(self) -> None:
        """Flush and fsync through the injector's counter."""
        self._injector.fsync(self._handle)

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def fileno(self) -> int:
        return self._handle.fileno()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)


def write_atomically(injector: FaultInjector, path: Path, payload: bytes) -> None:
    """Replace the file at ``path`` with ``payload``, all or nothing.

    Payload to a temp file beside it, fsync, :func:`os.replace` over the
    live name, directory fsync — every step through ``injector``, so the
    crash sweeps can kill the write at each I/O point.  The rename is the
    commit point, durable only once the directory entry reaches disk: a
    crash leaves the old file or the new one, never a torn mix.
    """
    tmp = path.with_name(path.name + ".tmp")
    handle = injector.open(tmp, "wb")
    try:
        handle.write(payload)
        handle.sync()
    finally:
        handle.close()
    injector.replace(tmp, path)
    injector.fsync_directory(path.parent)


def fsync_directory(path: str | os.PathLike) -> None:
    """Best-effort fsync of a directory, making renames/creations durable.

    A successful :func:`os.replace` only guarantees the new name once the
    containing directory's metadata reaches disk; until then a power loss
    can resurrect the old file.  Platforms or filesystems that refuse to
    fsync a directory (some network mounts, Windows) are tolerated: the
    protocol degrades to what the OS provides.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
