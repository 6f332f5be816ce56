"""Expression trees for predicates and computed columns.

Expressions are built either from the fluent API (``col("AGE") > 40``) or by
the SQL-subset parser, then *bound* to a schema, producing a plain callable
over row tuples.  NA semantics follow the statistical convention: arithmetic
involving NA yields NA, and a comparison involving NA is unknown and
therefore fails the predicate.

Each node also compiles to a chunk-at-a-time kernel via
:meth:`Expr.bind_columns` — same semantics, but the callable maps a
:class:`~repro.relational.vectorized.ColumnChunk` to one output
:class:`~repro.relational.types.ColumnVector`, which the vectorized
engine invokes once per chunk instead of once per row.  Over typed vectors
a kernel is a numpy expression, taken only where numpy computes what
Python does value by value: comparisons of an int with a float only while
the ints convert to float64 exactly (up to 2**53 in magnitude), integer
arithmetic only under a bound that rules out int64 overflow, and no math
function (``math.log`` and ``np.log`` may differ in the last bit).
Elsewhere, and over object vectors, the kernel runs value by value on the
list view.  Kernels trust the chunk's NA masks (the chunk builders mark
both the NA singleton and float NaN), so the per-value ``is_na`` test
disappears from the NA-free fast paths.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.errors import ExpressionError
from repro.relational.schema import Schema
from repro.relational.types import NA, ColumnVector, is_na
from repro.relational.vectorized import ColumnChunk

RowFn = Callable[[Sequence[Any]], Any]
ColumnFn = Callable[[ColumnChunk], ColumnVector]
#: A kernel operand: a column, or a literal that needs no column of its own.
Operand = Callable[[ColumnChunk], Any]

#: Integers up to this magnitude convert to float64 exactly.
_EXACT_FLOAT = 2**53
_INT64 = 2**63


def _operand(expr: "Expr", schema: Schema) -> Operand:
    """``expr``'s kernel, or for a non-NA literal a kernel returning the value."""
    if isinstance(expr, Const) and not is_na(expr.value):
        value = expr.value
        return lambda chunk: value
    return expr.bind_columns(schema)


def _array(operand: Any) -> Any:
    """A typed operand as numpy sees it (array or number), else ``None``."""
    if isinstance(operand, ColumnVector):
        return operand.data if operand.typed else None
    return operand if isinstance(operand, (bool, int, float)) else None


def _magnitude(x: Any) -> int:
    """The largest magnitude in an integer or bool operand."""
    if not isinstance(x, np.ndarray):
        return abs(int(x))
    return max(-int(x.min()), int(x.max())) if len(x) else 0


def _kind(x: Any) -> str:
    if isinstance(x, np.ndarray):
        return "f" if x.dtype.kind == "f" else "i"
    return "f" if isinstance(x, float) else "i"


def _comparable(x: Any, y: Any) -> bool:
    """Whether numpy compares ``x`` with ``y`` exactly, as Python does.

    Python compares an int with a float exactly; numpy converts the int to
    float64 first, which is exact only up to 2**53.  A Python int beyond
    int64 has no numpy form at all.
    """
    kinds = _kind(x) + _kind(y)
    ints = [v for v in (x, y) if _kind(v) == "i"]
    if any(not isinstance(v, np.ndarray) and not -_INT64 <= v < _INT64 for v in ints):
        return False
    return kinds in ("ff", "ii") or all(_magnitude(v) <= _EXACT_FLOAT for v in ints)


def _missing(*operands: Any) -> np.ndarray | None:
    """The union of the operands' NA masks (``None``: no NA anywhere)."""
    masks = [o.mask for o in operands if isinstance(o, ColumnVector) and o.mask is not None]
    if not masks:
        return None
    return masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)


def _listed(operand: Any, n: int) -> tuple[Sequence[Any], list[bool] | None]:
    """An operand's list view and NA mask as lists, for a value-at-a-time kernel."""
    if not isinstance(operand, ColumnVector):
        return [operand] * n, None
    mask = operand.mask
    if isinstance(mask, np.ndarray):
        mask = mask.tolist()
    return operand.to_list(), mask


class Expr:
    """Base expression node."""

    def bind(self, schema: Schema) -> RowFn:
        """Compile this expression against a schema into ``row -> value``."""
        raise NotImplementedError

    def bind_columns(self, schema: Schema) -> ColumnFn:
        """Compile this expression into a chunk kernel, ``chunk -> column``.

        Bound once per pipeline; the returned kernel is then applied to
        every chunk.  Semantics match :meth:`bind` value for value.
        """
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the expression references."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: Any) -> "Expr":
        return Arith("+", self, _wrap(other))

    def __radd__(self, other: Any) -> "Expr":
        return Arith("+", _wrap(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Arith("-", self, _wrap(other))

    def __rsub__(self, other: Any) -> "Expr":
        return Arith("-", _wrap(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return Arith("*", self, _wrap(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Arith("*", _wrap(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Arith("/", self, _wrap(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return Arith("/", _wrap(other), self)

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Compare("=", self, _wrap(other))

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Compare("!=", self, _wrap(other))

    def __lt__(self, other: Any) -> "Expr":
        return Compare("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Expr":
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Expr":
        return Compare(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Expr":
        return Compare(">=", self, _wrap(other))

    def __and__(self, other: Any) -> "Expr":
        return And(self, _wrap(other))

    def __or__(self, other: Any) -> "Expr":
        return Or(self, _wrap(other))

    def __invert__(self) -> "Expr":
        return Not(self)

    def __hash__(self) -> int:
        return hash(self.canonical())

    def is_in(self, options: Iterable[Any]) -> "Expr":
        """Membership predicate."""
        return In(self, tuple(options))

    def between(self, lo: Any, hi: Any) -> "Expr":
        """Inclusive range predicate."""
        return Between(self, lo, hi)

    def is_na(self) -> "Expr":
        """True where the expression evaluates to NA."""
        return IsNA(self)

    def canonical(self) -> str:
        """A normalized textual form used for equality of view definitions."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.canonical()


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Const(value)


class Col(Expr):
    """A column reference."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ExpressionError("column name must be non-empty")
        self.name = name

    def bind(self, schema: Schema) -> RowFn:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def bind_columns(self, schema: Schema) -> ColumnFn:
        index = schema.index_of(self.name)
        return lambda chunk: chunk.columns[index]

    def columns(self) -> set[str]:
        return {self.name}

    def canonical(self) -> str:
        return f"col({self.name})"


def col(name: str) -> Col:
    """Fluent column reference: ``col("AGE") > 40``."""
    return Col(name)


class Const(Expr):
    """A literal value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, schema: Schema) -> RowFn:
        value = self.value
        return lambda row: value

    def bind_columns(self, schema: Schema) -> ColumnFn:
        value = self.value
        missing = is_na(value)

        def run(chunk: ColumnChunk) -> ColumnVector:
            n = chunk.length
            return ColumnVector([value] * n, [True] * n if missing else None)

        return run

    def columns(self) -> set[str]:
        return set()

    def canonical(self) -> str:
        return f"lit({self.value!r})"


class Arith(Expr):
    """Binary arithmetic with NA propagation."""

    _OPS: dict[str, Callable[[Any, Any], Any]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b if b != 0 else NA,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowFn:
        lf, rf = self.left.bind(schema), self.right.bind(schema)
        fn = self._OPS[self.op]

        def run(row: Sequence[Any]) -> Any:
            a, b = lf(row), rf(row)
            if is_na(a) or is_na(b):
                return NA
            return fn(a, b)

        return run

    def bind_columns(self, schema: Schema) -> ColumnFn:
        lf, rf = _operand(self.left, schema), _operand(self.right, schema)
        fn = self._OPS[self.op]
        op = self.op

        def run(chunk: ColumnChunk) -> ColumnVector:
            a, b = lf(chunk), rf(chunk)
            x, y = _array(a), _array(b)
            if x is not None and y is not None:
                typed = _arith_arrays(op, x, y, _missing(a, b))
                if typed is not None:
                    return typed
            va, am = _listed(a, chunk.length)
            vb, bm = _listed(b, chunk.length)
            if am is None and bm is None:
                # No NA on either side; fn itself may still emit NA ("/" by
                # zero) or NaN, so derive the output mask.
                return ColumnVector.from_values([fn(x, y) for x, y in zip(va, vb)])
            out: list[Any] = []
            mask: list[bool] = []
            for i, (x, y) in enumerate(zip(va, vb)):
                if (am is not None and am[i]) or (bm is not None and bm[i]):
                    out.append(NA)
                    mask.append(True)
                else:
                    v = fn(x, y)
                    out.append(v)
                    mask.append(v is NA or v != v)
            return ColumnVector(out, mask if True in mask else None)

        return run

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def canonical(self) -> str:
        return f"({self.left.canonical()} {self.op} {self.right.canonical()})"


_UFUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
}


def _arith_arrays(
    op: str, x: Any, y: Any, missing: np.ndarray | None
) -> ColumnVector | None:
    """``x op y`` over arrays where that is Python's answer, else ``None``.

    Bools and int32 widen to int64 first (Python's ``True + True`` is 2).
    Integer operands go only under a bound that rules out int64 overflow,
    and ``/`` of two integers only while both convert to float64 exactly
    (Python divides ints correctly rounded).  A zero divisor gives NA, as
    in :meth:`Arith.bind`; a NaN anywhere else (``inf - inf``) goes back to
    the value-at-a-time kernel, which keeps it a NaN rather than an NA.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return None
    x, y = _widened(x), _widened(y)
    if _kind(x) + _kind(y) == "ii":
        bx, by = _magnitude(x), _magnitude(y)
        if op == "/":
            fits = bx <= _EXACT_FLOAT and by <= _EXACT_FLOAT
        else:
            fits = (bx * by if op == "*" else bx + by) < _INT64
        if not fits:
            return None
    with np.errstate(all="ignore"):
        out = _UFUNCS[op](x, y)
    if op == "/":
        zero = y == 0
        if np.any(zero):
            missing = np.broadcast_to(zero, out.shape) if missing is None else missing | zero
    if missing is not None:
        out[missing] = 0
    if out.dtype.kind == "f" and np.isnan(out).any():
        return None
    return ColumnVector(out, missing)


def _widened(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return x if x.dtype.kind == "f" or x.dtype == np.int64 else x.astype(np.int64)
    return int(x) if isinstance(x, bool) else x


class Func(Expr):
    """Unary math function (log, sqrt, abs, exp) with NA propagation.

    The paper's derived-column example stores "the logarithm of some
    attribute" (SS3.2); these are the row-local functions such columns use.
    """

    _FNS: dict[str, Callable[[float], float]] = {
        "log": math.log,
        "log10": math.log10,
        "sqrt": math.sqrt,
        "abs": abs,
        "exp": math.exp,
    }

    def __init__(self, name: str, arg: Expr) -> None:
        if name not in self._FNS:
            raise ExpressionError(
                f"unknown function {name!r}; choose from {sorted(self._FNS)}"
            )
        self.name = name
        self.arg = arg

    def bind(self, schema: Schema) -> RowFn:
        argf = self.arg.bind(schema)
        fn = self._FNS[self.name]

        def run(row: Sequence[Any]) -> Any:
            v = argf(row)
            if is_na(v):
                return NA
            try:
                return fn(v)
            except (ValueError, OverflowError):
                return NA

        return run

    def bind_columns(self, schema: Schema) -> ColumnFn:
        argf = self.arg.bind_columns(schema)
        fn = self._FNS[self.name]

        def run(chunk: ColumnChunk) -> ColumnVector:
            values, am = _listed(argf(chunk), chunk.length)
            out: list[Any] = []
            mask: list[bool] = []
            for i, v in enumerate(values):
                if am is not None and am[i]:
                    out.append(NA)
                    mask.append(True)
                    continue
                try:
                    w = fn(v)
                except (ValueError, OverflowError):
                    w = NA
                out.append(w)
                mask.append(w is NA or w != w)
            return ColumnVector(out, mask if True in mask else None)

        return run

    def columns(self) -> set[str]:
        return self.arg.columns()

    def canonical(self) -> str:
        return f"{self.name}({self.arg.canonical()})"


def func(name: str, arg: Expr | Any) -> Func:
    """Apply a named unary math function to an expression."""
    return Func(name, _wrap(arg))


class Compare(Expr):
    """Comparison; NA on either side makes the predicate false (unknown)."""

    _OPS: dict[str, Callable[[Any, Any], bool]] = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowFn:
        lf, rf = self.left.bind(schema), self.right.bind(schema)
        fn = self._OPS[self.op]

        def run(row: Sequence[Any]) -> bool:
            a, b = lf(row), rf(row)
            if is_na(a) or is_na(b):
                return False
            try:
                return bool(fn(a, b))
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot compare {a!r} {self.op} {b!r}"
                ) from exc

        return run

    def bind_columns(self, schema: Schema) -> ColumnFn:
        lf, rf = _operand(self.left, schema), _operand(self.right, schema)
        fn = self._OPS[self.op]
        op = self.op

        def run(chunk: ColumnChunk) -> ColumnVector:
            a, b = lf(chunk), rf(chunk)
            x, y = _array(a), _array(b)
            if x is not None and y is not None and _comparable(x, y):
                out = fn(x, y)
                if not isinstance(out, np.ndarray):  # two literals
                    out = np.full(chunk.length, out)
                missing = _missing(a, b)
                return ColumnVector(out if missing is None else out & ~missing)
            va, am = _listed(a, chunk.length)
            vb, bm = _listed(b, chunk.length)
            listed: list[bool] = []
            for i, (p, q) in enumerate(zip(va, vb)):
                if (am is not None and am[i]) or (bm is not None and bm[i]):
                    listed.append(False)
                    continue
                try:
                    listed.append(bool(fn(p, q)))
                except TypeError as exc:
                    raise ExpressionError(
                        f"cannot compare {p!r} {op} {q!r}"
                    ) from exc
            return ColumnVector(listed, None)

        return run

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def canonical(self) -> str:
        return f"({self.left.canonical()} {self.op} {self.right.canonical()})"


class And(Expr):
    """Logical conjunction."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowFn:
        lf, rf = self.left.bind(schema), self.right.bind(schema)
        return lambda row: bool(lf(row)) and bool(rf(row))

    def bind_columns(self, schema: Schema) -> ColumnFn:
        lf, rf = self.left.bind_columns(schema), self.right.bind_columns(schema)

        def run(chunk: ColumnChunk) -> ColumnVector:
            p, q = lf(chunk).truth(), rf(chunk).truth()
            if isinstance(p, np.ndarray) and isinstance(q, np.ndarray):
                return ColumnVector(p & q)
            return ColumnVector([bool(a) and bool(b) for a, b in zip(p, q)], None)

        return run

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def canonical(self) -> str:
        return f"({self.left.canonical()} AND {self.right.canonical()})"


class Or(Expr):
    """Logical disjunction."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowFn:
        lf, rf = self.left.bind(schema), self.right.bind(schema)
        return lambda row: bool(lf(row)) or bool(rf(row))

    def bind_columns(self, schema: Schema) -> ColumnFn:
        lf, rf = self.left.bind_columns(schema), self.right.bind_columns(schema)

        def run(chunk: ColumnChunk) -> ColumnVector:
            p, q = lf(chunk).truth(), rf(chunk).truth()
            if isinstance(p, np.ndarray) and isinstance(q, np.ndarray):
                return ColumnVector(p | q)
            return ColumnVector([bool(a) or bool(b) for a, b in zip(p, q)], None)

        return run

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def canonical(self) -> str:
        return f"({self.left.canonical()} OR {self.right.canonical()})"


class Not(Expr):
    """Logical negation."""

    def __init__(self, child: Expr) -> None:
        self.child = child

    def bind(self, schema: Schema) -> RowFn:
        cf = self.child.bind(schema)
        return lambda row: not bool(cf(row))

    def bind_columns(self, schema: Schema) -> ColumnFn:
        cf = self.child.bind_columns(schema)

        def run(chunk: ColumnChunk) -> ColumnVector:
            truth = cf(chunk).truth()
            if isinstance(truth, np.ndarray):
                return ColumnVector(~truth)
            return ColumnVector([not bool(v) for v in truth], None)

        return run

    def columns(self) -> set[str]:
        return self.child.columns()

    def canonical(self) -> str:
        return f"(NOT {self.child.canonical()})"


class In(Expr):
    """Set membership; NA is never a member."""

    def __init__(self, child: Expr, options: tuple) -> None:
        self.child = child
        self.options = options

    def bind(self, schema: Schema) -> RowFn:
        cf = self.child.bind(schema)
        options = set(self.options)
        return lambda row: (v := cf(row)) is not None and not is_na(v) and v in options

    def bind_columns(self, schema: Schema) -> ColumnFn:
        cf = self.child.bind_columns(schema)
        options = set(self.options)

        def run(chunk: ColumnChunk) -> ColumnVector:
            vc = cf(chunk)
            x = _array(vc)
            if x is not None and all(
                _array(o) is not None and _comparable(x, o) for o in options
            ):
                hit = np.zeros(chunk.length, bool)
                for option in options:
                    hit |= x == option
                return ColumnVector(hit if vc.mask is None else hit & ~vc.mask)
            values, mask = _listed(vc, chunk.length)
            if mask is None:
                return ColumnVector(
                    [v is not None and v in options for v in values], None
                )
            return ColumnVector(
                [
                    v is not None and not mask[i] and v in options
                    for i, v in enumerate(values)
                ],
                None,
            )

        return run

    def columns(self) -> set[str]:
        return self.child.columns()

    def canonical(self) -> str:
        inner = ", ".join(repr(o) for o in sorted(self.options, key=repr))
        return f"({self.child.canonical()} IN ({inner}))"


class Between(Expr):
    """Inclusive range predicate; NA fails."""

    def __init__(self, child: Expr, lo: Any, hi: Any) -> None:
        self.child = child
        self.lo = lo
        self.hi = hi

    def bind(self, schema: Schema) -> RowFn:
        cf = self.child.bind(schema)
        lo, hi = self.lo, self.hi
        return lambda row: not is_na(v := cf(row)) and lo <= v <= hi

    def bind_columns(self, schema: Schema) -> ColumnFn:
        cf = self.child.bind_columns(schema)
        lo, hi = self.lo, self.hi

        def run(chunk: ColumnChunk) -> ColumnVector:
            vc = cf(chunk)
            x = _array(vc)
            if x is not None and all(
                _array(bound) is not None and _comparable(x, bound) for bound in (lo, hi)
            ):
                inside = (x >= lo) & (x <= hi)
                return ColumnVector(inside if vc.mask is None else inside & ~vc.mask)
            values, mask = _listed(vc, chunk.length)
            if mask is None:
                return ColumnVector([lo <= v <= hi for v in values], None)
            return ColumnVector(
                [not mask[i] and lo <= v <= hi for i, v in enumerate(values)],
                None,
            )

        return run

    def columns(self) -> set[str]:
        return self.child.columns()

    def canonical(self) -> str:
        return f"({self.child.canonical()} BETWEEN {self.lo!r} AND {self.hi!r})"


class IsNA(Expr):
    """True where the child evaluates to NA — used to find marked-invalid

    observations (SS3.1)."""

    def __init__(self, child: Expr) -> None:
        self.child = child

    def bind(self, schema: Schema) -> RowFn:
        cf = self.child.bind(schema)
        return lambda row: is_na(cf(row))

    def bind_columns(self, schema: Schema) -> ColumnFn:
        cf = self.child.bind_columns(schema)

        def run(chunk: ColumnChunk) -> ColumnVector:
            mask = cf(chunk).mask
            if mask is None:
                return ColumnVector(np.zeros(chunk.length, bool))
            return ColumnVector(mask if isinstance(mask, np.ndarray) else list(mask))

        return run

    def columns(self) -> set[str]:
        return self.child.columns()

    def canonical(self) -> str:
        return f"isna({self.child.canonical()})"
