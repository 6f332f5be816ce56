"""Group-by and aggregate functions over flat files.

"Another, very important, set of operators are aggregates, in particular
aggregate functions" (SS2.3).  The paper's own example derives a coarser
data set by summing populations and taking a population-weighted average of
salaries across the SEX attribute (SS2.2) — :func:`weighted_avg` supports
exactly that.

All aggregates skip NA values, consistent with the statistical treatment of
missing data, and report via :class:`AggregateResult` how many values were
skipped.

Each order-sensitive aggregate the chunk engine reduces at array speed has
an array twin next to it (``vec_*``), fed a group's non-NA values as one
typed array and returning what the list evaluator returns for them, bit
for bit and as the same Python type: a float sum adds left to right as
Python 3.11's ``sum`` does (``np.add.accumulate``, never the pairwise
``np.sum``), an integer sum goes through int64 only where ``max|x| * n <
2**63`` proves it cannot overflow, and min/max/median pick the element
Python's ``min``/``max``/``sorted`` would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import NA, DataType, is_na, quantile_fraction


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: function, input attribute(s), output name.

    ``attr`` may be None for count(*).  ``weight`` names the weighting
    attribute for weighted_avg.
    """

    func: str
    attr: str | None
    alias: str
    weight: str | None = None


def _clean(values: Sequence[Any]) -> list[Any]:
    # is_na() inlined: a float NaN is the one value unequal to itself.
    return [v for v in values if v is not NA and v == v]


def agg_count(values: Sequence[Any]) -> int:
    """Number of non-NA values."""
    return len(_clean(values))


def agg_count_star(values: Sequence[Any]) -> int:
    """Number of rows (NA included)."""
    return len(values)


def agg_sum(values: Sequence[Any]) -> Any:
    """Sum of non-NA values; NA on an empty group."""
    clean = _clean(values)
    return sum(clean) if clean else NA


def agg_avg(values: Sequence[Any]) -> Any:
    """Mean of non-NA values; NA on an empty group."""
    clean = _clean(values)
    return sum(clean) / len(clean) if clean else NA


def agg_min(values: Sequence[Any]) -> Any:
    """Minimum of non-NA values; NA on an empty group."""
    clean = _clean(values)
    return min(clean) if clean else NA


def agg_max(values: Sequence[Any]) -> Any:
    """Maximum of non-NA values; NA on an empty group."""
    clean = _clean(values)
    return max(clean) if clean else NA


def agg_median(values: Sequence[Any]) -> Any:
    """Median (lower-interpolated mean of middle two) of non-NA values."""
    clean = sorted(_clean(values))
    n = len(clean)
    if n == 0:
        return NA
    mid = n // 2
    if n % 2 == 1:
        return clean[mid]
    return (clean[mid - 1] + clean[mid]) / 2


def agg_var(values: Sequence[Any]) -> Any:
    """Sample variance (ddof=1) of non-NA values; NA for n < 2."""
    clean = _clean(values)
    n = len(clean)
    if n < 2:
        return NA
    mean = sum(clean) / n
    return sum((v - mean) ** 2 for v in clean) / (n - 1)


def agg_std(values: Sequence[Any]) -> Any:
    """Sample standard deviation; NA for n < 2."""
    var = agg_var(values)
    return NA if is_na(var) else math.sqrt(var)


def vec_count(x: np.ndarray) -> int:
    """:func:`agg_count` of a group's non-NA array."""
    return len(x)


def vec_sum(x: np.ndarray) -> Any:
    """:func:`agg_sum` of a group's non-NA array."""
    if not len(x):
        return NA
    if x.dtype.kind == "f":
        # sum() starts from int 0: 0 + x0 is x0 but for the sign of a zero.
        # It overflows to inf without a word, and so does this.
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.0 + float(np.add.accumulate(x)[-1])
    wide = x.astype(np.int64)
    if max(-int(wide.min()), int(wide.max())) * len(wide) < 2**63:
        return int(wide.sum())
    return sum(x.tolist())


def vec_avg(x: np.ndarray) -> Any:
    """:func:`agg_avg` of a group's non-NA array."""
    return vec_sum(x) / len(x) if len(x) else NA


def vec_min(x: np.ndarray) -> Any:
    """:func:`agg_min` of a group's non-NA array: the first least element."""
    return x[int(np.argmin(x))].item() if len(x) else NA


def vec_max(x: np.ndarray) -> Any:
    """:func:`agg_max` of a group's non-NA array: the first greatest element."""
    return x[int(np.argmax(x))].item() if len(x) else NA


def vec_median(x: np.ndarray) -> Any:
    """:func:`agg_median` of a group's non-NA array (a stable sort, as ``sorted``)."""
    n = len(x)
    if n == 0:
        return NA
    ordered = np.sort(x, kind="stable")
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid].item()
    return (ordered[mid - 1].item() + ordered[mid].item()) / 2


def agg_count_distinct(values: Sequence[Any]) -> int:
    """Number of distinct non-NA values."""
    return len(set(_clean(values)))


def agg_quantile(values: Sequence[Any], q: float) -> Any:
    """Type-7 quantile (linear interpolation at ``q·(n−1)``); NA if empty.

    The same convention as :func:`repro.stats.descriptive.quantile`.
    """
    clean = sorted(_clean(values))
    n = len(clean)
    if n == 0:
        return NA
    position = q * (n - 1)
    lo = int(position)
    frac = position - lo
    if frac == 0.0 or lo + 1 >= n:
        return float(clean[lo])
    return float(clean[lo]) * (1.0 - frac) + float(clean[lo + 1]) * frac


def weighted_avg(values: Sequence[Any], weights: Sequence[Any]) -> Any:
    """Weighted mean, skipping pairs where either side is NA.

    This is the paper's SS2.2 aggregation example: a weighted average of
    AVE_SALARY with POPULATION weights.
    """
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        if is_na(v) or is_na(w):
            continue
        num += v * w
        den += w
    return num / den if den else NA


def _agg_weighted_pairs(pairs: Sequence[tuple[Any, Any]]) -> Any:
    return weighted_avg(*zip(*pairs)) if pairs else NA


@dataclass(frozen=True)
class Aggregate:
    """One row of the SQL aggregate table: everything a function name decides.

    ``evaluate`` is the batch reference over what the aggregate consumes,
    which ``arity`` names: ``0`` the group's rows (only their number
    matters), ``1`` one column's values, ``2`` (value, weight) pairs.
    ``vector``, if given, is ``evaluate`` over a typed array of the non-NA
    values, with the same result.
    """

    evaluate: Callable[[Sequence[Any]], Any]
    arity: int = 1
    integer: bool = False
    vector: Callable[[np.ndarray], Any] | None = None


#: The one name -> aggregate table of the SQL path: the parser, the row and
#: vectorized group-by operators and their output schema all read it, so
#: adding an aggregate is adding a row.
AGGREGATES: dict[str, Aggregate] = {
    "count": Aggregate(agg_count, integer=True, vector=vec_count),
    "count_star": Aggregate(agg_count_star, arity=0, integer=True),
    "sum": Aggregate(agg_sum, vector=vec_sum),
    "avg": Aggregate(agg_avg, vector=vec_avg),
    "mean": Aggregate(agg_avg, vector=vec_avg),
    "min": Aggregate(agg_min, vector=vec_min),
    "max": Aggregate(agg_max, vector=vec_max),
    "median": Aggregate(agg_median, vector=vec_median),
    "var": Aggregate(agg_var),
    "std": Aggregate(agg_std),
    "count_distinct": Aggregate(agg_count_distinct, integer=True),
    "weighted_avg": Aggregate(_agg_weighted_pairs, arity=2),
}


def resolve_aggregate(func: str) -> Aggregate | None:
    """The table row for one aggregate name, or ``None`` if unknown.

    ``quantile_NN`` rows are synthesized on demand (``quantile_75`` is
    the 75th percentile), mirroring the function registry's quantile
    synthesis on the summary layer.
    """
    found = AGGREGATES.get(func)
    if found is None:
        q = quantile_fraction(func)
        if q is not None:
            found = Aggregate(functools.partial(agg_quantile, q=q))
    return found


def spec_aggregate(spec: AggregateSpec) -> Aggregate:
    """The table row serving ``spec``; ``count`` of no attribute is ``count(*)``."""
    star = spec.attr is None and spec.func == "count"
    found = resolve_aggregate("count_star" if star else spec.func)
    if found is None:
        raise QueryError(
            f"unknown aggregate {spec.func!r}; choose from "
            f"{sorted(AGGREGATES) + ['quantile_NN']}"
        )
    return found


def spec_inputs(spec: AggregateSpec) -> list[str]:
    """The attributes ``spec`` consumes: none, its column, or (column, weight)."""
    names = (spec.attr, spec.weight)[: spec_aggregate(spec).arity]
    return [name for name in names if name is not None]


def group_by_schema(
    in_schema: Schema, keys: Sequence[str], specs: Sequence[AggregateSpec]
) -> Schema:
    """Validate a group-by against its input schema; return the output schema.

    The key attributes followed by one MEASURE column per spec.  Shared by
    the row and vectorized group-by operators, so both accept and reject
    the same plans and name their columns alike.
    """
    if not specs:
        raise QueryError("group-by requires at least one aggregate")
    attributes = [in_schema.attribute(k) for k in keys]
    for spec in specs:
        found = spec_aggregate(spec)
        if found.arity == 2 and not spec.weight:
            raise QueryError(f"{spec.func} requires a weight attribute")
        if spec.attr is None and found.arity:
            raise QueryError(f"aggregate {spec.func!r} requires an attribute")
        for name in (spec.attr, spec.weight):
            if name:
                in_schema.index_of(name)  # validate
        dtype = DataType.INT if found.integer else DataType.FLOAT
        attributes.append(Attribute(spec.alias, dtype, AttributeRole.MEASURE))
    return Schema(attributes)


class GroupBy:
    """Group rows on key attributes and compute aggregates per group.

    With an empty key list, produces one row of grand totals.  The output
    schema has the key attributes (CATEGORY role) followed by one column per
    :class:`AggregateSpec`.  This is the reference the vectorized
    operator is checked against: it gathers each group's rows and
    hands every aggregate's batch evaluator exactly what it consumes.
    """

    def __init__(self, child: Any, keys: Sequence[str], specs: Sequence[AggregateSpec]) -> None:
        self.child = child
        self.keys = list(keys)
        self.specs = list(specs)
        self.schema = group_by_schema(child.schema, self.keys, self.specs)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        in_schema = self.child.schema
        key_idx = [in_schema.index_of(k) for k in self.keys]
        evaluators = [spec_aggregate(spec).evaluate for spec in self.specs]
        # What each aggregate consumes of a row: the row, a value, or a pair.
        input_idx = [[in_schema.index_of(n) for n in spec_inputs(s)] for s in self.specs]
        pickers = [itemgetter(*idx) if idx else tuple for idx in input_idx]
        groups: dict[tuple, list[tuple]] = {}  # insertion order is first-seen order
        for row in self.child:
            groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
        if not self.keys and not groups:
            groups[()] = []
        for key, rows in groups.items():
            out: list[Any] = list(key)
            for evaluate, pick in zip(evaluators, pickers):
                out.append(evaluate([pick(r) for r in rows]))
            yield tuple(out)

    def rows(self) -> list[tuple[Any, ...]]:
        """Evaluate into a list."""
        return list(iter(self))
