"""The write-ahead log: framed, checksummed update records on real disk.

The paper's Management Database exists so that "a lengthy period of time —
as long as a few months" of analysis survives mishaps (SS2.3); its update
histories are what make undo and shared "clean" data possible (SS3.2,
SS4.1).  This module gives those histories a crash-safe home: every logged
view operation is appended here as a framed record *before* the analyst
moves on, and a commit marker (followed by an fsync) makes the transaction
durable.

Frame format (little-endian)::

    +----------------+----------------+------------------+
    | length: u32    | crc32: u32     | payload (JSON)   |
    +----------------+----------------+------------------+

``length`` is the payload byte count and ``crc32`` its checksum
(:func:`zlib.crc32`), so a scan detects both a torn tail (file ends inside
a frame) and bit rot (checksum mismatch) without trusting anything beyond
the frame header.  Payloads are JSON objects written and read by the one
document codec, :func:`repro.metadata.persistence.dumps` / ``loads`` (NA
cells travel as ``{"__na__": true}``).

Record types (the ``t`` key)::

    begin   {t, txn, view[, sid]}     transaction start
    op      {t, txn, view, op:{...}}  one logged view operation
    undo    {t, txn, view, count}     undo of the last ``count`` operations
    commit  {t, txn}                  transaction end -> fsync point

``begin`` records may carry an optional ``sid`` — the wire-server session
id that issued the transaction (multi-analyst layer).  Recovery ignores
unknown ``begin`` keys, so logs with and without session ids interleave
freely.

A scan stops at the first unreadable frame: everything after a torn or
corrupt frame is untrusted, which is exactly the prefix property recovery
needs.  Counter names: ``wal.append``, ``wal.fsync``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core.errors import DurabilityError, MetadataError
from repro.durability.faults import FaultInjector, FaultyFile
from repro.metadata.persistence import dumps, loads
from repro.obs.tracer import NULL_TRACER, AbstractTracer

_FRAME_HEADER = struct.Struct("<II")

#: Guard against absurd frame lengths from a corrupt header: no single
#: record (one operation's cell changes) should need more than this.
MAX_FRAME_BYTES = 64 * 1024 * 1024


@dataclass
class WalScan:
    """What one pass over the log found."""

    records: list[dict] = field(default_factory=list)
    torn_tail: bool = False
    warnings: list[str] = field(default_factory=list)
    bytes_scanned: int = 0

    @property
    def clean(self) -> bool:
        """Whether the whole file parsed."""
        return not self.torn_tail and not self.warnings


class WriteAheadLog:
    """Append-only framed record log with explicit fsync points.

    Parameters
    ----------
    path:
        The log file; created on first append.
    faults:
        Optional :class:`FaultInjector` every write/fsync routes through.
    tracer:
        Counter sink (``wal.append`` / ``wal.fsync``).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        faults: FaultInjector | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.path = Path(path)
        self.faults = faults or FaultInjector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._handle: FaultyFile | None = None

    # -- appending ---------------------------------------------------------

    def append(self, record: dict, sync: bool = False) -> None:
        """Frame and append one record; ``sync`` makes it an fsync point."""
        self._writer().write(frame_record(record))
        self.tracer.add("wal.append")
        if sync:
            self.sync()

    def append_many(self, records: list[dict], sync: bool = False) -> None:
        """Append several records back-to-back, optionally one fsync after.

        This is the group-commit path: the leader session drains every
        queued transaction's frames, appends them all, and pays a single
        fsync for the whole batch (counter ``wal.append`` still bumps once
        per record, so batching is visible in the totals).
        """
        for record in records:
            self.append(record)
        if sync:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync the log — the durability barrier."""
        if self._handle is not None:
            self._handle.sync()
            self.tracer.add("wal.fsync")

    def truncate(self) -> None:
        """Drop every record (a checkpoint made them redundant)."""
        self.close()
        handle = self.faults.open(self.path, "wb")
        try:
            handle.sync()
        finally:
            handle.close()
        self.faults.fsync_directory(self.path.parent)

    def truncate_tail(self, length: int) -> int:
        """Cut the log back to its trusted ``length``-byte prefix.

        Recovery calls this after a scan stops at a torn or corrupt frame:
        the untrusted tail bytes must go *before* new transactions are
        appended, or the next scan would stop at the old damage and
        silently discard everything committed after it.  Returns the
        number of bytes removed (0 when the log is already short enough).
        """
        self.close()
        current = self.size_bytes
        if current <= length:
            return 0
        handle = self.faults.open(self.path, "r+b")
        try:
            handle.truncate(length)
            handle.sync()
        finally:
            handle.close()
        self.faults.fsync_directory(self.path.parent)
        return current - length

    def close(self) -> None:
        """Close the append handle (scans use their own)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def size_bytes(self) -> int:
        """Current log size on disk (0 when absent)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def _writer(self) -> FaultyFile:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            created = not self.path.exists()
            self._handle = self.faults.open(self.path, "ab")
            if created:
                # A brand-new log file is only durable once its directory
                # entry is; fsync the directory so the first commit cannot
                # outlive the file that holds it.
                self.faults.fsync_directory(self.path.parent)
        return self._handle

    # -- scanning ----------------------------------------------------------

    def scan(self) -> WalScan:
        """Parse the log, stopping at the first torn or corrupt frame.

        Never raises on log damage: a truncated final frame, a checksum
        mismatch, or undecodable JSON each produce a warning and end the
        scan, leaving ``records`` holding the trustworthy prefix.
        """
        result = WalScan()
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return result
        pos = 0
        total = len(data)
        while pos < total:
            if total - pos < _FRAME_HEADER.size:
                result.torn_tail = True
                result.warnings.append(
                    f"torn frame header at byte {pos} ({total - pos} trailing bytes)"
                )
                break
            length, crc = _FRAME_HEADER.unpack_from(data, pos)
            if length > MAX_FRAME_BYTES:
                result.torn_tail = True
                result.warnings.append(
                    f"implausible frame length {length} at byte {pos}; "
                    "treating the rest of the log as corrupt"
                )
                break
            body_start = pos + _FRAME_HEADER.size
            if total - body_start < length:
                result.torn_tail = True
                result.warnings.append(
                    f"torn frame payload at byte {pos} "
                    f"(need {length} bytes, have {total - body_start})"
                )
                break
            payload = data[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                result.torn_tail = True
                result.warnings.append(
                    f"checksum mismatch at byte {pos}; "
                    "discarding this frame and everything after it"
                )
                break
            try:
                record = loads(payload)
            except MetadataError as exc:
                result.torn_tail = True
                result.warnings.append(
                    f"undecodable record at byte {pos}: {exc}"
                )
                break
            if not isinstance(record, dict) or "t" not in record:
                result.torn_tail = True
                result.warnings.append(
                    f"malformed record at byte {pos}: missing type tag"
                )
                break
            result.records.append(record)
            pos = body_start + length
        result.bytes_scanned = pos
        return result

    def __iter__(self) -> Iterator[dict]:
        return iter(self.scan().records)

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self.path)!r}, {self.size_bytes} bytes)"


def frame_record(record: dict) -> bytes:
    """Encode one record as a frame: header, then the codec's payload."""
    payload = dumps(record)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def ensure_directory(path: str | os.PathLike) -> Path:
    """Create (if needed) and return the durability directory."""
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    if not target.is_dir():
        raise DurabilityError(f"durability path {target} is not a directory")
    return target
