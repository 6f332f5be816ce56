"""Summary Database entries and result encoding.

An entry is one row of the paper's Figure 4 table: a function description,
the attribute(s) it was applied to, and the (varying-length) result.  The
result encoders serialize scalars, vectors, histograms, and (min, max)
pairs to bytes so the stored layout simulation can reason about entry
sizes — "implicit here is the fact that the values in the third column
will be of varying length" (SS3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.errors import SummaryError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import NA, is_na


@dataclass(frozen=True)
class SummaryKey:
    """The search argument of SS3.2: function name + attribute name(s)."""

    function: str
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.function:
            raise SummaryError("function name must be non-empty")
        if not self.attributes:
            raise SummaryError("at least one attribute is required")

    @property
    def primary_attribute(self) -> str:
        """The attribute entries cluster on (the first one)."""
        return self.attributes[0]

    def __str__(self) -> str:
        return f"{self.function}({', '.join(self.attributes)})"


@dataclass
class SummaryEntry:
    """One cached result plus its maintenance state."""

    key: SummaryKey
    result: Any
    stale: bool = False
    maintainer: IncrementalComputation | None = None
    computed_at_version: int = 0
    compute_cost_rows: int = 0
    hit_count: int = 0
    pending_updates: int = 0
    """Updates applied to the view since the result was last refreshed

    (used by periodic/tolerant consistency policies)."""

    kind: str = "exact"
    """``exact`` (scalar statistics), ``sketch`` (approximate mergeable
    summaries), or ``model`` (fitted statistical models)."""

    epsilon: float | None = None
    """Documented accuracy bound for sketch results (None = exact)."""

    @property
    def size_bytes(self) -> int:
        """Approximate encoded size of the cached result."""
        return len(encode_result(self.result))

    def mark_fresh(self, version: int) -> None:
        """Record that the result now reflects the view at ``version``."""
        self.stale = False
        self.pending_updates = 0
        self.computed_at_version = version


# -- result encoding ----------------------------------------------------------
#
# Tagged, length-prefixed encoding for the "varying length" third column:
#   0x00 NA | 0x01 float64 | 0x02 int64 | 0x03 utf-8 string
#   0x04 vector of float64 (NA as NaN is not allowed; NA elements use a mask)
#   0x05 histogram (edges vector + counts vector)
#   0x06 pair of two encoded results
#   0x07 vector of strings
#   0x08 generic tuple of encoded results (cross tabulations etc.)

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")


def encode_result(result: Any) -> bytes:
    """Serialize a cached result."""
    if is_na(result):
        return b"\x00"
    if isinstance(result, bool):
        return b"\x02" + _I64.pack(int(result))
    if isinstance(result, int):
        return b"\x02" + _I64.pack(result)
    if isinstance(result, float):
        return b"\x01" + _F64.pack(result)
    if isinstance(result, str):
        raw = result.encode("utf-8")
        return b"\x03" + _U32.pack(len(raw)) + raw
    if _is_histogram(result):
        edges, counts = _histogram_parts(result)
        return (
            b"\x05"
            + _U32.pack(len(edges))
            + b"".join(_F64.pack(float(e)) for e in edges)
            + _U32.pack(len(counts))
            + b"".join(_I64.pack(int(c)) for c in counts)
        )
    if isinstance(result, tuple) and len(result) == 2:
        a = encode_result(result[0])
        b = encode_result(result[1])
        return b"\x06" + _U32.pack(len(a)) + a + b
    if isinstance(result, tuple):
        parts = [encode_result(item) for item in result]
        return (
            b"\x08"
            + _U32.pack(len(parts))
            + b"".join(_U32.pack(len(p)) + p for p in parts)
        )
    if isinstance(result, list) and result and all(
        isinstance(v, str) for v in result
    ):
        encoded = [v.encode("utf-8") for v in result]
        return (
            b"\x07"
            + _U32.pack(len(encoded))
            + b"".join(_U32.pack(len(e)) + e for e in encoded)
        )
    if isinstance(result, (list, tuple)):
        mask = bytearray((len(result) + 7) // 8)
        parts = []
        for i, value in enumerate(result):
            if is_na(value):
                mask[i // 8] |= 1 << (i % 8)
                parts.append(_F64.pack(0.0))
            else:
                parts.append(_F64.pack(float(value)))
        return b"\x04" + _U32.pack(len(result)) + bytes(mask) + b"".join(parts)
    raise SummaryError(f"cannot encode result of type {type(result).__name__}")


def decode_result(buf: bytes) -> Any:
    """Inverse of :func:`encode_result`."""
    value, _ = _decode(buf, 0)
    return value


def _decode(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == 0x00:
        return NA, pos
    if tag == 0x01:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == 0x02:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == 0x03:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos : pos + length].decode("utf-8"), pos + length
    if tag == 0x04:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        mask_len = (n + 7) // 8
        mask = buf[pos : pos + mask_len]
        pos += mask_len
        values: list[Any] = []
        for i in range(n):
            raw = _F64.unpack_from(buf, pos)[0]
            pos += 8
            values.append(NA if mask[i // 8] & (1 << (i % 8)) else raw)
        return values, pos
    if tag == 0x05:
        (n_edges,) = _U32.unpack_from(buf, pos)
        pos += 4
        edges = []
        for _ in range(n_edges):
            edges.append(_F64.unpack_from(buf, pos)[0])
            pos += 8
        (n_counts,) = _U32.unpack_from(buf, pos)
        pos += 4
        counts = []
        for _ in range(n_counts):
            counts.append(_I64.unpack_from(buf, pos)[0])
            pos += 8
        return (edges, counts), pos
    if tag == 0x06:
        (a_len,) = _U32.unpack_from(buf, pos)
        pos += 4
        a, consumed = _decode(buf, pos)
        if consumed != pos + a_len:
            raise SummaryError("corrupt pair encoding")
        b, pos = _decode(buf, consumed)
        return (a, b), pos
    if tag == 0x07:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        strings: list[str] = []
        for _ in range(n):
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            strings.append(buf[pos : pos + length].decode("utf-8"))
            pos += length
        return strings, pos
    if tag == 0x08:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        items: list[Any] = []
        for _ in range(n):
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            item, consumed = _decode(buf, pos)
            if consumed != pos + length:
                raise SummaryError("corrupt tuple encoding")
            items.append(item)
            pos = consumed
        return tuple(items), pos
    raise SummaryError(f"unknown result tag 0x{tag:02x}")


def _is_histogram(result: Any) -> bool:
    if not (isinstance(result, tuple) and len(result) == 2):
        return False
    edges, counts = result
    if not isinstance(edges, (list, tuple)) or not isinstance(counts, (list, tuple)):
        return False
    return len(edges) == len(counts) + 1 and all(
        isinstance(c, int) for c in counts
    )


def _histogram_parts(result: Any) -> tuple[Sequence[float], Sequence[int]]:
    edges, counts = result
    return edges, counts
