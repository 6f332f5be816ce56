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
from typing import Any


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
