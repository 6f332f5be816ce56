"""The finite-differencing framework (paper SS4.2).

A cached function result can be *incrementally recomputed* when an update
arrives: instead of rescanning the view, apply the "derivative" of the
function to the delta.  The paper cites Paige's finite differencing and
Koenig & Paige's treatment of totals and averages, and asks for "some means
for automatically generating an incrementally recomputable algorithm for a
function given the function definition in some high-level form".

This module provides:

* :class:`IncrementalComputation` — the protocol every incremental form
  implements: ``reset`` / ``fold(values, sign)`` / ``value`` (plus
  ``partial_state`` / ``merge_partial`` where mergeable).  The base class
  derives every other entry point (``initialize``, ``absorb``,
  ``on_insert`` / ``on_delete`` / ``on_update``, ``apply_delta`` /
  ``apply_batch``) from those, so a maintainer's arithmetic is written once;
* :class:`Delta` — a batch of changes to one attribute;
* :class:`AlgebraicForm` and :func:`derive_incremental` — a small
  realization of that automatic generation: functions defined as algebraic
  expressions over the base measures ``count``, ``sum``, ``sumsq`` get an
  incremental evaluator *derived mechanically* from the definition, because
  each base measure is trivially differencable.  Functions that reflect "an
  ordering on the input data" (median, quantiles) are not derivable this
  way — exactly the limitation the paper discusses — and raise
  :class:`NotIncrementallyComputable`; their manual schemes live in
  :mod:`repro.incremental.order_stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.errors import NotIncrementallyComputable, RuleError, StatisticsError
from repro.relational.types import NA, NAType, is_na

#: A high-level function definition: a nested tuple whose head is an
#: operator or base-measure name and whose tail is operands (sub-definitions
#: or numeric constants).  See the grammar below.
Definition = tuple["str | float | Definition", ...]

#: What an algebraic evaluation yields: a number, or NA when undefined
#: (empty input, division by zero, domain error).
Scalar = float | NAType


@dataclass
class Delta:
    """A batch of changes to one attribute's values.

    ``updates`` holds (old, new) pairs; ``inserts`` and ``deletes`` hold
    plain values.  NA values may appear anywhere — marking an observation
    invalid (SS3.1) is the update (x, NA).
    """

    inserts: list[Any] = field(default_factory=list)
    deletes: list[Any] = field(default_factory=list)
    updates: list[tuple[Any, Any]] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Total number of changed values."""
        return len(self.inserts) + len(self.deletes) + len(self.updates)

    def merged_with(self, other: "Delta") -> "Delta":
        """Concatenate two deltas."""
        return Delta(
            inserts=self.inserts + other.inserts,
            deletes=self.deletes + other.deletes,
            updates=self.updates + other.updates,
        )

    @classmethod
    def coalesce(cls, deltas: Iterable["Delta"]) -> "Delta":
        """Concatenate a burst of deltas into one batch.

        Order within each change kind is preserved, so folding the result
        through a maintainer is equivalent to folding the burst delta by
        delta — but it reaches the maintainer as a single
        :meth:`IncrementalComputation.apply_batch` call.
        """
        inserts: list[Any] = []
        deletes: list[Any] = []
        updates: list[tuple[Any, Any]] = []
        for delta in deltas:
            inserts.extend(delta.inserts)
            deletes.extend(delta.deletes)
            updates.extend(delta.updates)
        return cls(inserts=inserts, deletes=deletes, updates=updates)


class IncrementalComputation:
    """An incrementally maintainable function result: one signed fold.

    A concrete maintainer writes its arithmetic in exactly three places —
    :meth:`reset` (the empty state), :meth:`fold` (add or remove a batch of
    values) and :attr:`value` (finalize) — plus :meth:`partial_state` /
    :meth:`merge_partial` where two states can be combined.  Every
    other way of driving a maintainer is defined here, once, in terms of
    those: batch evaluation is a fold from empty, finite differencing
    (SS4.2) is a fold of the delta's added values and a ``sign=-1`` fold of
    its removed ones.
    Subclasses do not override the derived entry points (lint REPRO-S005).
    """

    def reset(self) -> None:
        """Return to the empty state (no values tracked)."""
        raise NotImplementedError

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        """Add (``sign=+1``) or remove (``sign=-1``) a batch of values.

        NA skipping, domain tracking and the numerics live here and
        nowhere else.  Removing a value the state does not hold raises
        :class:`~repro.core.errors.StatisticsError` wherever the maintainer
        can tell.
        """
        raise NotImplementedError

    @property
    def value(self) -> Any:
        """The current function result."""
        raise NotImplementedError

    def _require_tracked(self, remaining: float, slack: float = 0.0) -> None:
        """Fail loudly when a removal took more than the state held.

        Exact maintainers call this once at the end of a ``sign=-1`` fold
        with the count (or weight) they have left; a negative one means the
        caller removed values that were never added, and every later
        result would be silently wrong.
        """
        if remaining < -slack:
            raise StatisticsError(
                f"{type(self).__name__}: removed more values than the state "
                f"tracks (left with {remaining!r})"
            )

    # -- derived entry points (do not override) ------------------------------

    def initialize(self, values: Iterable[Any]) -> None:
        """Compute the state from a full pass over the values."""
        self.reset()
        self.fold(values)

    def absorb(self, values: Iterable[Any]) -> None:
        """Fold a batch of inserted values into the state."""
        self.fold(values)

    def on_insert(self, value: Any) -> None:
        """Incorporate a newly inserted value."""
        self.fold((value,))

    def on_delete(self, value: Any) -> None:
        """Remove a previously present value."""
        self.fold((value,), -1)

    def on_update(self, old: Any, new: Any) -> None:
        """Replace ``old`` with ``new``."""
        self.fold((new,))
        self.fold((old,), -1)

    def apply_delta(self, delta: Delta) -> Any:
        """Apply a whole delta and return the new value."""
        return self.apply_batch((delta,))

    def apply_batch(self, deltas: Iterable[Delta]) -> Any:
        """Apply a burst of deltas and return the new value.

        The added values (inserts, new halves of updates) fold in before
        the removed ones (deletes, old halves) fold out.  Any burst that
        was legal change by change — every removed value was present
        originally or added earlier in the burst — therefore stays legal
        however :meth:`Delta.coalesce` reordered it, and the state never
        dips below what it will hold afterwards.  ``value`` is only read
        after folding: reading it first could trigger a lazy regeneration
        that already reflects the pending changes.
        """
        added: list[Any] = []
        removed: list[Any] = []
        for delta in deltas:
            added += delta.inserts
            removed += delta.deletes
            for old, new in delta.updates:
                added.append(new)
                removed.append(old)
        if added:
            self.fold(added)
        if removed:
            self.fold(removed, -1)
        return self.value

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        """A picklable snapshot of this computation's accumulated state.

        The MADlib partial-aggregate + merge shape; sketch and model
        persistence build on it.  The snapshot must be self-contained: merging it into a freshly
        constructed computation of the same type reproduces the source's
        value contribution exactly.
        """
        raise NotIncrementallyComputable(
            f"{type(self).__name__} has no mergeable partial state"
        )

    def merge_partial(self, state: Any) -> None:
        """Fold another computation's :meth:`partial_state` into this one.

        Merging is commutative up to floating-point rounding and must be
        exact for exactly representable inputs.
        """
        raise NotIncrementallyComputable(
            f"{type(self).__name__} has no mergeable partial state"
        )


# -- algebraic (automatically differencable) forms ---------------------------
#
# A definition is a nested tuple over:
#   ("count",), ("sum",), ("sumsq",), ("sumcube",), ("sumquart",),
#   ("sumlog",)                                 -- base measures
#   ("const", c)
#   ("add", a, b), ("sub", a, b), ("mul", a, b), ("div", a, b)
#   ("sqrt", a), ("pow", a, k), ("exp", a)
#
# Base measures admit exact O(1) differencing; compositions inherit it.
# sumlog only accumulates over positive values (geometric-mean support).

_BASE_MEASURES = ("count", "sum", "sumsq", "sumcube", "sumquart", "sumlog")


class AlgebraicForm(IncrementalComputation):
    """An incremental evaluator generated from a high-level definition.

    This is the paper's "automatically generating an incrementally
    recomputable algorithm for a function given the function definition in
    some high-level form" for the algebraic fragment: the generator walks
    the definition, collects the base measures it mentions, maintains each
    under inserts/deletes in O(1), and re-evaluates the (constant-size)
    expression on demand.
    """

    def __init__(self, definition: Definition) -> None:
        _validate_definition(definition)
        self.definition = definition
        self._measures = sorted(_collect_measures(definition))
        self.reset()

    def reset(self) -> None:
        self._state: dict[str, float] = {m: 0.0 for m in self._measures}
        self._n = 0  # non-NA count, maintained even if "count" unused
        # sumlog's domain is positive values only.  Rather than poisoning
        # the measure with NaN (which a removal could never cancel:
        # NaN - NaN = NaN), count the non-positive values present and
        # report NA while any remain — removing the offender recovers.
        self._nonpositive = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        """One signed state update for the whole batch.

        Every base measure is a sum of per-value contributions, so the
        measure set is probed once, each measure accumulates in a local,
        and the state is touched once — adding or subtracting the totals.
        """
        state = self._state
        want_sum = "sum" in state
        want_sq = "sumsq" in state
        want_cube = "sumcube" in state
        want_quart = "sumquart" in state
        want_log = "sumlog" in state
        log = math.log
        na = NA
        n = nonpositive = 0
        s = sq = cube = quart = lg = 0.0
        for value in values:
            if value is na or (isinstance(value, float) and value != value):
                continue
            x = float(value)
            n += 1
            if want_sum:
                s += x
            if want_sq:
                sq += x * x
            if want_cube:
                cube += x * x * x
            if want_quart:
                x2 = x * x
                quart += x2 * x2
            if want_log:
                if x > 0:
                    lg += log(x)
                else:
                    nonpositive += 1
        self._n += sign * n
        self._nonpositive += sign * nonpositive
        if "count" in state:
            state["count"] += sign * n
        if want_sum:
            state["sum"] += sign * s
        if want_sq:
            state["sumsq"] += sign * sq
        if want_cube:
            state["sumcube"] += sign * cube
        if want_quart:
            state["sumquart"] += sign * quart
        if want_log:
            state["sumlog"] += sign * lg
        self._require_tracked(self._n)

    def partial_state(self) -> dict[str, Any]:
        """Base-measure totals plus the counts that scope their validity."""
        return {
            "n": self._n,
            "nonpositive": self._nonpositive,
            "measures": dict(self._state),
        }

    def merge_partial(self, state: dict[str, Any]) -> None:
        """Add another form's measure totals — sums merge by addition."""
        measures = state["measures"]
        if set(measures) != set(self._measures):
            raise RuleError(
                f"partial state carries measures {sorted(measures)}, "
                f"this form maintains {self._measures}"
            )
        self._n += state["n"]
        self._nonpositive += state["nonpositive"]
        for measure, total in measures.items():
            self._state[measure] += total

    @property
    def value(self) -> Scalar:
        return _evaluate(
            self.definition, self._state, self._n, self._nonpositive
        )


def _collect_measures(definition: Definition) -> set[str]:
    head = definition[0]
    if head in _BASE_MEASURES:
        return {head}
    if head == "const":
        return set()
    if head in ("add", "sub", "mul", "div"):
        return _collect_measures(definition[1]) | _collect_measures(definition[2])
    if head in ("sqrt", "exp"):
        return _collect_measures(definition[1])
    if head == "pow":
        return _collect_measures(definition[1])
    raise NotIncrementallyComputable(
        f"operator {head!r} is not in the differencable algebra; "
        "order statistics need a manual scheme (paper SS4.2)"
    )


def _validate_definition(definition: Definition) -> None:
    _collect_measures(definition)


def _evaluate(
    definition: Definition,
    state: dict[str, float],
    n: int,
    nonpositive: int = 0,
) -> Scalar:
    head = definition[0]
    if head == "count":
        return float(n)
    if head in _BASE_MEASURES:
        if head == "sumlog" and nonpositive > 0:
            # The log of a non-positive value is undefined; while any such
            # value is present the measure (and anything built on it, like
            # the geometric mean) is NA.  Deleting the offenders recovers.
            return NA
        return NA if n == 0 else state[head]
    if head == "const":
        return definition[1]
    if head == "sqrt":
        inner = _evaluate(definition[1], state, n, nonpositive)
        if is_na(inner) or inner < 0:
            return NA
        return inner ** 0.5
    if head == "exp":
        inner = _evaluate(definition[1], state, n, nonpositive)
        if is_na(inner):
            return NA
        try:
            return math.exp(inner)
        except OverflowError:
            return NA
    if head == "pow":
        inner = _evaluate(definition[1], state, n, nonpositive)
        exponent = definition[2]
        if is_na(inner):
            return NA
        if inner < 0 and not float(exponent).is_integer():
            return NA
        try:
            return inner ** exponent
        except (OverflowError, ZeroDivisionError):
            return NA
    a = _evaluate(definition[1], state, n, nonpositive)
    b = _evaluate(definition[2], state, n, nonpositive)
    if is_na(a) or is_na(b):
        return NA
    if head == "add":
        return a + b
    if head == "sub":
        return a - b
    if head == "mul":
        return a * b
    if head == "div":
        return NA if b == 0 else a / b
    raise RuleError(f"unknown operator {head!r}")


# Small combinators keep the moment definitions readable; the resulting
# values are still plain nested tuples.


def _add(a: Definition, b: Definition) -> Definition:
    return ("add", a, b)


def _sub(a: Definition, b: Definition) -> Definition:
    return ("sub", a, b)


def _mul(a: Definition, b: Definition) -> Definition:
    return ("mul", a, b)


def _div(a: Definition, b: Definition) -> Definition:
    return ("div", a, b)


def _c(value: float) -> Definition:
    return ("const", value)


_N = ("count",)
_S1 = ("sum",)
_S2 = ("sumsq",)
_S3 = ("sumcube",)
_S4 = ("sumquart",)
_MEAN = _div(_S1, _N)
# Central moments from raw power sums (all exactly differencable):
#   m2 = S2/n - mean^2
#   m3 = S3/n - 3 mean S2/n + 2 mean^3
#   m4 = S4/n - 4 mean S3/n + 6 mean^2 S2/n - 3 mean^4
_M2 = _sub(_div(_S2, _N), ("pow", _MEAN, 2))
_M3 = _add(
    _sub(_div(_S3, _N), _mul(_c(3.0), _mul(_MEAN, _div(_S2, _N)))),
    _mul(_c(2.0), ("pow", _MEAN, 3)),
)
_M4 = _sub(
    _add(
        _sub(_div(_S4, _N), _mul(_c(4.0), _mul(_MEAN, _div(_S3, _N)))),
        _mul(_c(6.0), _mul(("pow", _MEAN, 2), _div(_S2, _N))),
    ),
    _mul(_c(3.0), ("pow", _MEAN, 4)),
)
_SAMPLE_VAR = _div(
    _sub(_S2, _div(_mul(_S1, _S1), _N)),
    _sub(_N, _c(1)),
)

#: High-level definitions for the algebraic statistics.  mean is sum/count;
#: variance uses the sum-of-squares identity with Bessel's correction;
#: skewness/kurtosis come from the first four raw power sums; the geometric
#: mean is exp(sumlog/count) — all maintained in O(1) per change.
DEFINITIONS: dict[str, Definition] = {
    "count": _N,
    "sum": _S1,
    "mean": _MEAN,
    "avg": _MEAN,
    "sumsq": _S2,
    "var": _SAMPLE_VAR,
    "std": ("sqrt", _SAMPLE_VAR),
    "rms": ("sqrt", _div(_S2, _N)),
    "skewness": _div(_M3, ("pow", _M2, 1.5)),
    "kurtosis_excess": _sub(_div(_M4, ("pow", _M2, 2)), _c(3.0)),
    "cv": _div(("sqrt", _SAMPLE_VAR), _MEAN),
    "geometric_mean": ("exp", _div(("sumlog",), _N)),
}


def derive_incremental(function_name: str) -> IncrementalComputation:
    """Finite differencing: an incremental form for a named function.

    Returns an evaluator for functions whose definition lies in the
    differencable algebra; raises :class:`NotIncrementallyComputable` for
    order statistics and other functions that "reflect an ordering on the
    input data" (SS4.2) — callers should fall back to the manual schemes in
    :mod:`repro.incremental.order_stats` or to invalidation.
    """
    definition = DEFINITIONS.get(function_name)
    if definition is None:
        raise NotIncrementallyComputable(
            f"no differencable definition for function {function_name!r}"
        )
    return AlgebraicForm(definition)
