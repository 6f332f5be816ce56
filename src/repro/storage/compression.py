"""Column compression: run-length, dictionary, and delta encodings.

The paper (SS2.6, citing EGGE80/EGGE81) argues that run-length compression
"is more likely to improve storage efficiency when applied down a column
rather than across a row".  These encoders operate on homogeneous value
sequences (columns) and on heterogeneous row serializations so benchmark E5
can measure that asymmetry directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.errors import PageError, StorageError
from repro.relational.types import ARRAY_DTYPES, NA, ColumnVector, DataType, is_na

_NA_SENTINEL = "\x00__NA__"
_U32 = struct.Struct("<I")

Buffer = bytes | bytearray | memoryview


@dataclass(frozen=True)
class CompressionReport:
    """Sizes before and after an encoding."""

    raw_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        """raw/compressed; > 1 means the encoding saved space."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes


# -- run-length encoding ----------------------------------------------------


def rle_runs(values: Sequence[object]) -> list[tuple[object, int]]:
    """Collapse ``values`` into (value, run_length) pairs."""
    runs: list[tuple[object, int]] = []
    for value in values:
        key = NA if is_na(value) else value
        if runs and runs[-1][0] == key and (key is NA) == (runs[-1][0] is NA):
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((key, 1))
    return runs


def rle_expand(runs: Sequence[tuple[object, int]]) -> list[object]:
    """Inverse of :func:`rle_runs`."""
    out: list[object] = []
    for value, count in runs:
        if count <= 0:
            raise StorageError(f"invalid run length {count}")
        out.extend([value] * count)
    return out


def rle_encode_runs(runs: Sequence[tuple[object, int]], dtype: DataType) -> bytes:
    """Serialize runs as a uint32 run count, then (value, uint32 count) pairs."""
    heads = [head for head, _ in runs]
    counts = [count for _, count in runs]
    return _U32.pack(len(runs)) + _encode_records(heads, dtype, counts)


def rle_encode_bytes(values: Sequence[object], dtype: DataType) -> bytes:
    """Serialize a column as run-length (value, uint32 count) pairs."""
    return rle_encode_runs(rle_runs(values), dtype)


def rle_decode_bytes(buf: Buffer, dtype: DataType) -> list[object]:
    """Inverse of :func:`rle_encode_bytes`."""
    return list(rle_decode_column(buf, dtype))


def rle_decode_column(
    buf: Buffer, dtype: DataType, count: int | None = None
) -> ColumnVector:
    """An RLE page body as a vector; ``count``, if given, is what its runs must hold."""
    if len(buf) < _U32.size:
        raise PageError(f"no run count in the {len(buf)} bytes available")
    (n_runs,) = _U32.unpack_from(buf, 0)
    if dtype not in _FIXED:
        flat = _guarded(_decode_each, buf, _U32.size, dtype, n_runs, "I")
        heads, lengths = flat[0::2], flat[1::2]
        _check_runs(sum(lengths), count)
        return ColumnVector.from_values(list(chain.from_iterable(map(repeat, heads, lengths))))
    heads, na, lengths = _guarded(_decode_array, buf, _U32.size, dtype, n_runs, "I")
    _check_runs(int(lengths.sum()), count)
    mask = None if na is None else np.repeat(na, lengths)
    if mask is not None and not mask.any():
        mask = None  # every NA run was empty
    return ColumnVector(np.repeat(heads, lengths), mask)


def _check_runs(total: int, count: int | None) -> None:
    if count is not None and total != count:
        raise PageError(f"its runs hold {total} values, its count says {count}")


# -- dictionary encoding ------------------------------------------------------


def dict_encode(values: Sequence[object]) -> tuple[list[object], list[int]]:
    """Encode values as (dictionary, codes).  NA gets its own code."""
    dictionary: list[object] = []
    seen: dict[object, int] = {}
    codes: list[int] = []
    for value in values:
        key = _NA_SENTINEL if is_na(value) else value
        code = seen.get(key)
        if code is None:
            code = len(dictionary)
            seen[key] = code
            dictionary.append(NA if key == _NA_SENTINEL else value)
        codes.append(code)
    return dictionary, codes


def dict_decode(dictionary: Sequence[object], codes: Sequence[int]) -> list[object]:
    """Inverse of :func:`dict_encode`."""
    try:
        return [dictionary[code] for code in codes]
    except IndexError:
        raise StorageError("dictionary code out of range") from None


def dict_encoded_size(dictionary: Sequence[object], codes: Sequence[int], dtype: DataType) -> int:
    """Bytes needed for the dictionary plus minimal-width codes."""
    dict_bytes = sum(len(_encode_value(v, dtype)) for v in dictionary)
    width = _code_width(len(dictionary))
    return 4 + dict_bytes + width * len(codes)


def _code_width(cardinality: int) -> int:
    if cardinality <= 256:
        return 1
    if cardinality <= 65536:
        return 2
    return 4


# -- delta encoding -----------------------------------------------------------


def delta_encode(values: Sequence[int]) -> list[int]:
    """First value followed by successive differences (ints only, no NA)."""
    out: list[int] = []
    prev = 0
    for i, value in enumerate(values):
        if is_na(value) or not isinstance(value, int):
            raise StorageError("delta encoding requires non-NA integers")
        out.append(value if i == 0 else value - prev)
        prev = value
    return out


def delta_decode(deltas: Sequence[int]) -> list[int]:
    """Inverse of :func:`delta_encode`."""
    out: list[int] = []
    acc = 0
    for i, delta in enumerate(deltas):
        acc = delta if i == 0 else acc + delta
        out.append(acc)
    return out


def delta_encoded_size(deltas: Sequence[int]) -> int:
    """Bytes for variable-width delta storage (1/2/4/8 bytes per delta)."""
    size = 0
    for delta in deltas:
        magnitude = abs(delta)
        if magnitude < 1 << 7:
            size += 1
        elif magnitude < 1 << 15:
            size += 2
        elif magnitude < 1 << 31:
            size += 4
        else:
            size += 8
    return size


# -- raw sizing / value codecs ------------------------------------------------


def raw_size(values: Sequence[object], dtype: DataType) -> int:
    """Bytes for the uncompressed column."""
    return sum(len(_encode_value(v, dtype)) for v in values)


def compare_rle(values: Sequence[object], dtype: DataType) -> CompressionReport:
    """Report raw-vs-RLE sizes for one column."""
    return CompressionReport(
        raw_bytes=raw_size(values, dtype),
        compressed_bytes=len(rle_encode_bytes(values, dtype)),
    )


def row_serialized(rows: Sequence[Sequence[object]], dtypes: Sequence[DataType]) -> list[object]:
    """Flatten rows into the across-the-row value sequence the paper says

    compresses poorly: values interleave types, breaking runs."""
    out: list[object] = []
    for row in rows:
        out.extend(row)
    return out


# One value on a page is a marker byte (0 = NA, nothing follows; 1 = a value
# follows) and the value: little-endian int64 / float64 / int32 / one byte, or
# a uint16 length and that many UTF-8 bytes.  ``_encode_value`` and
# ``_decode_value`` are that format written down one value at a time: the
# reference the bulk codec is tested against, and the STR path.


def _encode_value(value: object, dtype: DataType) -> bytes:
    if is_na(value):
        return b"\x00"
    if dtype is DataType.INT:
        return b"\x01" + struct.pack("<q", int(value))  # type: ignore[arg-type]
    if dtype is DataType.FLOAT:
        return b"\x01" + struct.pack("<d", float(value))  # type: ignore[arg-type]
    if dtype is DataType.CATEGORY:
        return b"\x01" + struct.pack("<i", int(value))  # type: ignore[arg-type]
    if dtype is DataType.BOOL:
        return b"\x01" + struct.pack("<B", 1 if value else 0)
    if dtype is DataType.STR:
        raw = str(value).encode("utf-8")
        return b"\x01" + struct.pack("<H", len(raw)) + raw
    raise StorageError(f"unsupported dtype {dtype!r}")


def _decode_value(buf: Buffer, pos: int, dtype: DataType) -> tuple[object, int]:
    marker = buf[pos]
    pos += 1
    if marker == 0:
        return NA, pos
    if dtype is DataType.INT:
        return struct.unpack_from("<q", buf, pos)[0], pos + 8
    if dtype is DataType.FLOAT:
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if dtype is DataType.CATEGORY:
        return struct.unpack_from("<i", buf, pos)[0], pos + 4
    if dtype is DataType.BOOL:
        return bool(buf[pos]), pos + 1
    if dtype is DataType.STR:
        (length,) = struct.unpack_from("<H", buf, pos)
        start = pos + 2
        raw = bytes(buf[start : start + length])
        if len(raw) < length:
            raise IndexError("string runs past the end of the buffer")
        return raw.decode("utf-8"), start + length
    raise StorageError(f"unsupported dtype {dtype!r}")


# -- the page codec -------------------------------------------------------------
#
# A fixed-width column between two NA is a constant-stride array of
# (marker, value) records.  Going in, one compiled ``struct`` format packs a
# run, the marker a pad byte stamped over the packed run afterwards; coming
# out, one ``np.frombuffer`` over the record dtype reads it into the
# column's array.  An RLE page is the same records with a uint32 run length
# after each (``tail="I"``).

#: code, converter and width of the types whose values all have one size.
_FIXED: dict[DataType, tuple[str, Callable[[Any], object], int]] = {
    DataType.INT: ("q", int, 8),
    DataType.FLOAT: ("d", float, 8),
    DataType.CATEGORY: ("i", int, 4),
    DataType.BOOL: ("?", bool, 1),
}
#: Bytes a run adds to an RLE page beyond its head value.
RLE_COUNT_SIZE = _U32.size
#: Longest run moved by one format or one look ahead for the next NA (a 4 KB
#: page of float64 is 455 values).  With the cache size below it bounds what the compiled formats can hold: a
#: format of n records is ~32n bytes, so 8 MB with every slot at full length.
_MAX_RUN = 512
_FORMATS = 512
#: Records per run below which a marker-at-a-time walk beats the run decoder.
_DENSE_NA = 2


@lru_cache(maxsize=_FORMATS)
def _run_format(record: str, n: int) -> struct.Struct:
    return struct.Struct("<" + ("x" + record) * n)


def encoded_sizes(values: Sequence[object], dtype: DataType) -> list[int]:
    """Encoded bytes of each value (what a page fill has to add up)."""
    fixed = _FIXED.get(dtype)
    if fixed is None:
        return [len(_encode_value(v, dtype)) for v in values]
    full = 1 + fixed[2]
    return [1 if v is NA or v != v else full for v in values]


def encode_values(values: Sequence[object], dtype: DataType) -> bytes:
    """Serialize ``values`` as consecutive plain values (a page body)."""
    return _encode_records(values, dtype, None)


def decode_values(buf: Buffer, dtype: DataType, count: int) -> list[object]:
    """Decode ``count`` consecutive plain values from the start of ``buf``.

    Bytes after the last value (a page's zero padding) are ignored; a
    buffer that ends before ``count`` values do raises :class:`PageError`.
    """
    return list(decode_column(buf, dtype, count))


def decode_column(buf: Buffer, dtype: DataType, count: int) -> ColumnVector:
    """:func:`decode_values` as a vector: typed for a fixed-width ``dtype``."""
    if dtype not in _FIXED:
        return ColumnVector.from_values(_guarded(_decode_each, buf, 0, dtype, count, ""))
    values, na, _ = _guarded(_decode_array, buf, 0, dtype, count, "")
    return ColumnVector(values, na)


def _encode_records(
    values: Sequence[object], dtype: DataType, tails: Sequence[int] | None
) -> bytes:
    fixed = _FIXED.get(dtype)
    if fixed is None:
        if tails is None:
            return b"".join([_encode_value(v, dtype) for v in values])
        return b"".join(
            [_encode_value(v, dtype) + _U32.pack(t) for v, t in zip(values, tails)]
        )
    code, convert, width = fixed
    record = code if tails is None else code + "I"
    stride = 1 + width + (0 if tails is None else _U32.size)
    parts: list[bytes | bytearray] = []
    start = 0
    total = len(values)
    # is_na() for these types: NaN is their only value unequal to itself.
    missing = [i for i, v in enumerate(values) if v is NA or v != v]
    for stop in (*missing, total):
        for lo in range(start, stop, _MAX_RUN):
            hi = min(stop, lo + _MAX_RUN)
            fields: list[object] = list(map(convert, values[lo:hi]))
            if tails is not None:
                heads = fields
                fields = [None] * (2 * len(heads))
                fields[0::2] = heads
                fields[1::2] = tails[lo:hi]
            run = bytearray(_run_format(record, hi - lo).pack(*fields))
            run[0::stride] = b"\x01" * (hi - lo)
            parts.append(run)
        if stop < total:
            parts.append(b"\x00" if tails is None else b"\x00" + _U32.pack(tails[stop]))
        start = stop + 1
    return b"".join(parts)


def _guarded(
    decode: Callable[..., Any], buf: Buffer, pos: int, dtype: DataType, count: int, tail: str
) -> Any:
    """``decode(buf, pos, dtype, count, tail)``, a read past the end a :class:`PageError`."""
    try:
        return decode(buf, pos, dtype, count, tail)
    except (IndexError, struct.error):
        # Every read past the end of ``buf`` raises one of the two.
        raise PageError(
            f"{count} values do not fit the {len(buf)} bytes available"
        ) from None


def _decode_each(
    buf: Buffer, pos: int, dtype: DataType, count: int, tail: str
) -> list[object]:
    out: list[object] = []
    for _ in range(count):
        value, pos = _decode_value(buf, pos, dtype)
        out.append(value)
        if tail:
            out.append(_U32.unpack_from(buf, pos)[0])
            pos += _U32.size
    return out


@lru_cache(maxsize=None)
def _records(dtype: DataType, tail: str) -> np.dtype:
    """The packed (marker, value[, tail]) record, for ``np.frombuffer``."""
    code, _, width = _FIXED[dtype]
    fields = [("marker", "u1"), ("value", "u1" if dtype is DataType.BOOL else "<" + code)]
    return np.dtype(fields + [("tail", "<u4")] if tail else fields)


def _decode_array(
    buf: Buffer, pos: int, dtype: DataType, count: int, tail: str
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``count`` fixed-width records from ``buf[pos:]`` as arrays.

    Returns the values (zero where NA), the NA mask (``None`` without NA)
    and, with a ``tail``, each record's uint32 tail.  The records of a
    column without NA are one constant-stride array, read by one
    ``np.frombuffer`` over the record dtype.  An NA record is shorter, so
    the decoder first finds them: the first zero in a strided slice of the
    markers ahead is the next NA, and everything before it is a run of
    values.  The NA records are then cut out of the bytes, which leaves the
    value records as one array again.
    """
    records = _records(dtype, tail)
    stride = records.itemsize
    na_size = 1 + (_U32.size if tail else 0)
    start = pos
    # One copy of the page: strided slices of bytes are a C loop, of a
    # memoryview an element-at-a-time one.
    data = bytes(buf)
    na_slots: list[int] = []  # which records are NA
    na_starts: list[int] = []  # and where each starts
    done = steps = 0
    while done < count:
        # Where NA come so thick that a step moves under _DENSE_NA records,
        # a marker at a time is the faster way through the rest.
        if steps >= 16 and done < _DENSE_NA * steps:
            for i in range(done, count):
                if data[pos]:
                    pos += stride
                else:
                    na_slots.append(i)
                    na_starts.append(pos)
                    pos += na_size
            break
        steps += 1
        # Looking no further than one run keeps a page of many NA linear.
        ahead = min(count - done, _MAX_RUN)
        run = data[pos : pos + ahead * stride : stride].find(0)
        if run:
            run = ahead if run < 0 else run
            pos += run * stride
            done += run
            continue
        run = 1  # with a tail, the bytes after the marker are not markers
        if not tail and done + 1 < count and data[pos + 1 : pos + 2] == b"\x00":
            markers = data[pos : pos + min(count - done, _MAX_RUN)]
            run = len(markers) - len(markers.lstrip(b"\x00"))
        na_slots.extend(range(done, done + run))
        na_starts.extend(range(pos, pos + run * na_size, na_size))
        pos += run * na_size
        done += run
    if pos > len(data):
        raise IndexError("the records run past the end of the buffer")
    values = np.zeros(count, ARRAY_DTYPES[dtype])
    tails = np.zeros(count, np.uint32) if tail else None
    if not na_slots:
        block = np.frombuffer(data, records, count, start)
        values[:] = block["value"]
        if tails is not None:
            tails[:] = block["tail"]
        return values, None, tails
    # The value records between the NA ones, end to end.
    cuts = [start, *(b for a in na_starts for b in (a, a + na_size)), pos]
    body = b"".join([data[a:b] for a, b in zip(cuts[0::2], cuts[1::2])])
    block = np.frombuffer(body, records)
    na = np.zeros(count, bool)
    na[na_slots] = True
    present = ~na
    values[present] = block["value"]
    if tails is not None:
        tails[present] = block["tail"]
        tails[na] = [_U32.unpack_from(data, a + 1)[0] for a in na_starts]
    return values, na, tails
