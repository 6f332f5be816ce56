"""Group-by and aggregate functions over flat files.

"Another, very important, set of operators are aggregates, in particular
aggregate functions" (SS2.3).  The paper's own example derives a coarser
data set by summing populations and taking a population-weighted average of
salaries across the SEX attribute (SS2.2) — :func:`weighted_avg` supports
exactly that.

All aggregates skip NA values, consistent with the statistical treatment of
missing data, and report via :class:`AggregateResult` how many values were
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

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
    return [v for v in values if not is_na(v)]


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


def agg_count_distinct(values: Sequence[Any]) -> int:
    """Number of distinct non-NA values."""
    return len(set(_clean(values)))


def agg_quantile(values: Sequence[Any], q: float) -> Any:
    """Type-7 quantile (linear interpolation at ``q·(n−1)``); NA if empty.

    The same convention as :func:`repro.stats.descriptive.quantile` and as
    the sharded t-digest finalizer's ``value_at_rank``, so the three paths
    agree exactly on small groups.
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


AGGREGATES: dict[str, Callable[[Sequence[Any]], Any]] = {
    "count": agg_count,
    "count_star": agg_count_star,
    "sum": agg_sum,
    "avg": agg_avg,
    "mean": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "median": agg_median,
    "var": agg_var,
    "std": agg_std,
    "count_distinct": agg_count_distinct,
}

_INT_RESULTS = {"count", "count_star", "count_distinct"}


def resolve_aggregate(func: str) -> Callable[[Sequence[Any]], Any] | None:
    """The evaluator for one aggregate name, or ``None`` if unknown.

    ``quantile_NN`` names are synthesized on demand (``quantile_75`` is
    the 75th percentile), mirroring the function registry's quantile
    synthesis on the summary layer.
    """
    found = AGGREGATES.get(func)
    if found is not None:
        return found
    q = quantile_fraction(func)
    if q is not None:
        return lambda values: agg_quantile(values, q)
    return None


def group_by_schema(
    in_schema: Schema, keys: Sequence[str], specs: Sequence[AggregateSpec]
) -> Schema:
    """Validate a group-by against its input schema; return the output schema.

    The key attributes followed by one MEASURE column per spec.  Shared by
    the row, vectorized and sharded group-by operators, so all three accept
    and reject the same plans and name their columns alike.
    """
    if not specs:
        raise QueryError("group-by requires at least one aggregate")
    attributes = [in_schema.attribute(k) for k in keys]
    for spec in specs:
        if resolve_aggregate(spec.func) is None and spec.func != "weighted_avg":
            raise QueryError(
                f"unknown aggregate {spec.func!r}; choose from "
                f"{sorted(AGGREGATES) + ['weighted_avg', 'quantile_NN']}"
            )
        if spec.func == "weighted_avg" and not spec.weight:
            raise QueryError("weighted_avg requires a weight attribute")
        if spec.attr is not None:
            in_schema.index_of(spec.attr)  # validate
        elif spec.func not in ("count", "count_star"):
            raise QueryError(f"aggregate {spec.func!r} requires an attribute")
        dtype = DataType.INT if spec.func in _INT_RESULTS else DataType.FLOAT
        attributes.append(Attribute(spec.alias, dtype, AttributeRole.MEASURE))
    return Schema(attributes)


class GroupBy:
    """Group rows on key attributes and compute aggregates per group.

    With an empty key list, produces one row of grand totals.  The output
    schema has the key attributes (CATEGORY role) followed by one column per
    :class:`AggregateSpec`.
    """

    def __init__(self, child: Any, keys: Sequence[str], specs: Sequence[AggregateSpec]) -> None:
        self.child = child
        self.keys = list(keys)
        self.specs = list(specs)
        self.schema = group_by_schema(child.schema, self.keys, self.specs)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        in_schema = self.child.schema
        key_idx = [in_schema.index_of(k) for k in self.keys]
        col_idx = [
            in_schema.index_of(spec.attr) if spec.attr is not None else None
            for spec in self.specs
        ]
        weight_idx = [
            in_schema.index_of(spec.weight) if spec.weight else None
            for spec in self.specs
        ]
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        for row in self.child:
            key = tuple(row[i] for i in key_idx)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(row)
        if not self.keys and not order:
            order.append(())
            groups[()] = []
        for key in order:
            rows = groups[key]
            out: list[Any] = list(key)
            for spec, ci, wi in zip(self.specs, col_idx, weight_idx):
                if spec.func == "weighted_avg":
                    values = [r[ci] for r in rows]
                    weights = [r[wi] for r in rows]
                    out.append(weighted_avg(values, weights))
                elif spec.func in ("count_star",) or (spec.func == "count" and ci is None):
                    out.append(len(rows))
                else:
                    values = [r[ci] for r in rows]
                    evaluator = resolve_aggregate(spec.func)
                    assert evaluator is not None  # validated in __init__
                    out.append(evaluator(values))
            yield tuple(out)

    def rows(self) -> list[tuple[Any, ...]]:
        """Evaluate into a list."""
        return list(iter(self))
