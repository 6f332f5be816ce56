"""Data types and the NA (missing value) singleton.

Statistical data sets need a first-class notion of an invalid / missing
value: the paper's data-checking workflow marks suspicious observations
"invalid -- 'missing value' in the statistics vernacular" (SS3.1).  ``NA``
is that marker.  Arithmetic involving NA yields NA; comparisons involving
NA are treated as unknown and evaluate false in predicates; aggregates skip
NA while reporting how many values were skipped.
"""

from __future__ import annotations

import enum
import re
from typing import Any, Iterator, Sequence

import numpy as np


class _NAType:
    """Singleton missing-value marker."""

    _instance: "_NAType | None" = None

    def __new__(cls) -> "_NAType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NA"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        # NA is only identical to itself; NA == NA is True so that NA can be
        # found in containers, but predicate evaluation uses is_na() and
        # never relies on this.
        return other is self

    def __hash__(self) -> int:
        return hash("_repro_NA_")

    def __reduce__(self) -> tuple:
        return (_NAType, ())


NA = _NAType()
"""The missing-value singleton."""

NAType = _NAType
"""Public name of NA's type, for annotations like ``float | NAType``."""


def is_na(value: Any) -> bool:
    """True if ``value`` is the NA marker (or a float NaN)."""
    if value is NA:
        return True
    return isinstance(value, float) and value != value


_QUANTILE_RE = re.compile(r"^quantile_(\d{1,2})$")


def quantile_fraction(func: str) -> float | None:
    """The quantile in [0, 1] a function name denotes, or ``None``.

    ``median`` is ``0.5``; ``quantile_NN`` is ``NN/100``.  The one parser
    for the name family the SQL front end, the aggregate operators, the
    function registry and the database abstract all synthesize on demand.
    """
    if func == "median":
        return 0.5
    match = _QUANTILE_RE.match(func)
    if match:
        return int(match.group(1)) / 100.0
    return None


class DataType(enum.Enum):
    """Attribute data types supported by the flat-file model."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    CATEGORY = "category"
    """An encoded category value (paper Figure 2): a small integer whose

    meaning lives in a code book."""

    @property
    def is_numeric(self) -> bool:
        """Whether ordinary arithmetic on values of this type is meaningful."""
        return self in (DataType.INT, DataType.FLOAT)

    def python_type(self) -> type:
        """The Python type used to store non-NA values."""
        return {
            DataType.INT: int,
            DataType.FLOAT: float,
            DataType.STR: str,
            DataType.BOOL: bool,
            DataType.CATEGORY: int,
        }[self]

    def validate(self, value: Any) -> bool:
        """Whether ``value`` (non-NA) is acceptable for this type."""
        if is_na(value):
            return True
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self in (DataType.INT, DataType.CATEGORY):
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.BOOL:
            return isinstance(value, bool)
        if self is DataType.STR:
            return isinstance(value, str)
        return False

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type, passing NA through.

        Raises :class:`ValueError` when the value cannot represent the type.
        """
        if is_na(value):
            return NA
        try:
            if self is DataType.FLOAT:
                return float(value)
            if self in (DataType.INT, DataType.CATEGORY):
                coerced = int(value)
                if isinstance(value, float) and coerced != value:
                    raise ValueError(value)
                return coerced
            if self is DataType.BOOL:
                if isinstance(value, bool):
                    return value
                raise ValueError(value)
            if self is DataType.STR:
                return str(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cannot coerce {value!r} to {self.name}"
            ) from exc
        raise ValueError(f"unsupported data type {self!r}")


#: The array a fixed-width column's values decode into.  STR has no fixed
#: width, so a STR column stays a Python list.
ARRAY_DTYPES: dict[DataType, np.dtype] = {
    DataType.FLOAT: np.dtype(np.float64),
    DataType.INT: np.dtype(np.int64),
    DataType.CATEGORY: np.dtype(np.int32),
    DataType.BOOL: np.dtype(np.bool_),
}


class ColumnVector:
    """One attribute's values for a run of rows: a buffer and an NA mask.

    A *typed* vector holds a numpy array (``float64``, ``int64``, ``int32``
    or ``bool``: what a stored fixed-width column decodes into) and a bool
    array ``mask``, True where the value is missing, or ``None`` when none
    is.  A masked slot holds zero, and no unmasked slot holds a NaN.

    An *object* vector holds a Python list (STR columns, in-memory relation
    feeds, values only a Python function computes) and a list of booleans
    or ``None`` as its mask; a masked slot keeps its original value (NA or a
    float NaN) so row reconstruction is a plain zip.

    Iterating, :meth:`to_list` and :meth:`item` give Python values with NA
    at the masked slots, whichever the kind: the list view every row-wise
    reader takes.
    """

    __slots__ = ("data", "mask")

    def __init__(self, data: Any, mask: Any = None) -> None:
        self.data = data
        self.mask = mask

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    @property
    def typed(self) -> bool:
        """Whether the values are a numpy array."""
        return isinstance(self.data, np.ndarray)

    @property
    def kind(self) -> str:
        """``float64``, ``int64``, ``int32``, ``bool`` or ``object``."""
        return self.data.dtype.name if isinstance(self.data, np.ndarray) else "object"

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "ColumnVector":
        """An object vector over ``values``, deriving the NA mask."""
        mask = [v is NA or v != v for v in values]
        return cls(values, mask if True in mask else None)

    def to_list(self) -> Sequence[Any]:
        """The values row-wise as Python objects, NA at the masked slots.

        An object vector returns its own list: treat it as read-only.
        """
        data = self.data
        if not isinstance(data, np.ndarray):
            return data
        out = data.tolist()
        if self.mask is not None:
            for i in np.flatnonzero(self.mask).tolist():
                out[i] = NA
        return out

    def truth(self) -> Any:
        """Whether each value is truthy, what a selection keeps: NA is not.

        A bool array for a typed vector (masked slots hold zero, so they
        are false); an object vector's own list, whose entries a consumer
        tests as the row engine does.
        """
        data = self.data
        if isinstance(data, np.ndarray):
            return data if data.dtype == np.bool_ else data != 0
        return data

    def item(self, i: int) -> Any:
        """The value at ``i`` as a Python object."""
        if self.mask is not None and self.mask[i]:
            return NA
        value = self.data[i]
        return value.item() if isinstance(self.data, np.ndarray) else value

    def take(self, index: Any) -> "ColumnVector":
        """The values at ``index``: positions, or a bool array of rows to keep."""
        data, mask = self.data, self.mask
        if isinstance(data, np.ndarray):
            if mask is None:
                return ColumnVector(data[index])
            kept = mask[index]
            return ColumnVector(data[index], kept if kept.any() else None)
        if isinstance(index, np.ndarray):
            index = (np.flatnonzero(index) if index.dtype == bool else index).tolist()
        if mask is None:
            return ColumnVector([data[i] for i in index])
        kept_mask = [mask[i] for i in index]
        return ColumnVector([data[i] for i in index], kept_mask if True in kept_mask else None)

    def slice(self, start: int, stop: int) -> "ColumnVector":
        """Rows ``start`` to ``stop``; a typed slice is a view."""
        mask = self.mask
        if mask is not None:
            mask = mask[start:stop]
            if not (mask.any() if isinstance(mask, np.ndarray) else True in mask):
                mask = None
        return ColumnVector(self.data[start:stop], mask)

    @staticmethod
    def concat(pieces: Sequence["ColumnVector"]) -> "ColumnVector":
        """The pieces, all of one kind, end to end."""
        if len(pieces) == 1:
            return pieces[0]
        if not pieces:
            return ColumnVector([])
        masked = any(p.mask is not None for p in pieces)
        if pieces[0].typed:
            data: Any = np.concatenate([p.data for p in pieces])
            mask: Any = None
            if masked:
                mask = np.concatenate(
                    [np.zeros(len(p), bool) if p.mask is None else p.mask for p in pieces]
                )
            return ColumnVector(data, mask)
        data = [v for p in pieces for v in p.data]
        mask = None
        if masked:
            mask = [m for p in pieces for m in (p.mask or [False] * len(p))]
        return ColumnVector(data, mask)

    def __repr__(self) -> str:
        na = 0 if self.mask is None else int(sum(self.mask))
        return f"ColumnVector({len(self.data)} {self.kind} values, {na} NA)"
