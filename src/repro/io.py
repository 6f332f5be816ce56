"""CSV import/export for flat-file data sets.

The paper's statistical packages all exchanged flat files; this module
brings external data into the system (with type inference, declared
category attributes, and NA handling) and writes relations back out.

NA cells are empty fields or the literal ``NA`` by default.
"""

from __future__ import annotations

import csv
import io as _io
from typing import Iterable, Sequence, TextIO

from repro.core.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import NA, DataType, is_na

NA_TOKENS = ("", "NA", "na", "N/A", "null", "NULL")


def _infer_type(values: Sequence[str]) -> DataType:
    saw_float = False
    saw_any = False
    for raw in values:
        if raw in NA_TOKENS:
            continue
        saw_any = True
        try:
            int(raw)
            continue
        except ValueError:
            pass
        try:
            float(raw)
            saw_float = True
            continue
        except ValueError:
            return DataType.STR
    if not saw_any:
        return DataType.STR
    return DataType.FLOAT if saw_float else DataType.INT


def _parse_cell(raw: str, dtype: DataType):
    if raw in NA_TOKENS:
        return NA
    if dtype is DataType.INT or dtype is DataType.CATEGORY:
        return int(raw)
    if dtype is DataType.FLOAT:
        return float(raw)
    if dtype is DataType.BOOL:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise SchemaError(f"cannot parse {raw!r} as BOOL")
    return raw


def read_csv(
    source: str | TextIO,
    name: str = "imported",
    category_attrs: Sequence[str] = (),
    types: dict[str, DataType] | None = None,
    na_tokens: Sequence[str] = NA_TOKENS,
) -> Relation:
    """Read a CSV (path or open file) into a :class:`Relation`.

    Column types are inferred (INT before FLOAT before STR) unless pinned
    via ``types``; attributes named in ``category_attrs`` get the CATEGORY
    role (and CATEGORY dtype when integral), forming the composite key of
    the paper's flat-file model (SS2.1).
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8") as handle:
            return read_csv(handle, name, category_attrs, types, na_tokens)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV has no header row") from None
    raw_rows = [row for row in reader if row]
    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise SchemaError(
                f"row {i + 2} has {len(row)} fields, header has {len(header)}"
            )
    columns = list(zip(*raw_rows)) if raw_rows else [[] for _ in header]
    types = dict(types or {})
    attributes = []
    for index, column_name in enumerate(header):
        dtype = types.get(column_name) or _infer_type(columns[index] if raw_rows else [])
        role = AttributeRole.MEASURE
        if column_name in category_attrs:
            role = AttributeRole.CATEGORY
            if dtype is DataType.INT:
                dtype = DataType.CATEGORY
        attributes.append(Attribute(column_name, dtype, role))
    schema = Schema(attributes)
    global_na = tuple(na_tokens)
    parsed = [
        [NA if raw in global_na else _parse_cell(raw, attr.dtype) for raw in column]
        for column, attr in zip(columns, schema)
    ]
    return Relation(name, schema, zip(*parsed), validate=True)


def write_csv(relation: Relation, target: str | TextIO, na_token: str = "NA") -> int:
    """Write a relation as CSV; NA cells become ``na_token``.

    Returns the number of data rows written.
    """
    if isinstance(target, str):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            return write_csv(relation, handle, na_token)
    writer = csv.writer(target)
    writer.writerow(relation.schema.names)
    count = 0
    for row in relation:
        writer.writerow([na_token if is_na(v) else v for v in row])
        count += 1
    return count


def from_csv_text(
    text: str,
    name: str = "imported",
    category_attrs: Sequence[str] = (),
    types: dict[str, DataType] | None = None,
) -> Relation:
    """Read a relation from a CSV string (convenience for tests/examples)."""
    return read_csv(_io.StringIO(text), name, category_attrs, types)


def to_csv_text(relation: Relation, na_token: str = "NA") -> str:
    """Render a relation as a CSV string."""
    buffer = _io.StringIO()
    write_csv(relation, buffer, na_token)
    return buffer.getvalue()
