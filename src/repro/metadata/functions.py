"""The function catalogue: one row per cacheable statistical function.

The Management Database holds "the functions that are applied to [the
data]" (SS3.2), and "for each function we must retrieve from the Management
Database the list of rules" (SS4.1) — so every result the Summary Database
caches is named by a :class:`StatFunction` row here, and the row decides
everything the name decides: how many attributes the function is asked of,
its batch evaluator, the kind of result (the Summary Database stores
"results of significantly different types"), its incremental form if any
(which also picks the default update rule: incremental, else invalidation),
the ``kind``/``epsilon`` its entries are stamped with, and the attribute
roles it is meaningful for — "computing the median (or any summary values)
of the AGE_GROUP attribute in Figure 1 does not make sense.  Thus, the
system will have to rely on meta-data to decide for which attributes
summary information should be computed" (SS3.2).

One convention covers every arity: a one-attribute row's ``compute`` takes
that column's values and its maintainer consumes values; an n-attribute
row's (correlations, the OLS model, cross tabulations) takes one column per
attribute, in key order, and its maintainer consumes row tuples — so
callers always evaluate ``fn.compute(*columns)``.

Parameterized rows are synthesized on demand (``quantile_95`` is the 95th
percentile with a :class:`repro.incremental.order_stats.QuantileWindow`
maintainer, ``heavy_hitters_3`` a top-3 sketch) and memoized apart from the
registered ones, so the catalogue's listing does not depend on query history.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import FunctionError
from repro.incremental.aggregates import (
    IncrementalCount,
    IncrementalMax,
    IncrementalMean,
    IncrementalMin,
    IncrementalStd,
    IncrementalSum,
    IncrementalVariance,
)
from repro.incremental.differencing import IncrementalComputation
from repro.incremental.frequency import IncrementalFrequency
from repro.incremental.histogram import MaintainedHistogram
from repro.incremental.order_stats import MedianWindow, QuantileWindow
from repro.incremental.sketches import (
    EPSILON_CM,
    EPSILON_HLL,
    EPSILON_TDIGEST,
    HeavyHitterSketch,
    HyperLogLog,
    ReservoirSample,
    TDigest,
)
from repro.relational.schema import Attribute, AttributeRole
from repro.relational.types import is_na, quantile_fraction
from repro.stats import correlation as corr
from repro.stats import descriptive as desc
from repro.stats.crosstab import crosstab_summary
from repro.stats.histogram import build_histogram
from repro.stats.models import IncrementalLinearRegression
from repro.stats.regression import ols_summary


ValuesProvider = Callable[[], Iterable[Any]]
MaintainerFactory = Callable[[ValuesProvider], IncrementalComputation]


@dataclass(frozen=True)
class StatFunction:
    """One catalogue row: everything a cacheable function's name decides."""

    name: str
    compute: Callable[..., Any]
    """Batch evaluator over one column of values per attribute."""

    maintainer_factory: MaintainerFactory | None = None
    numeric_only: bool = True
    """Meaningless on encoded CATEGORY attributes when True (SS3.2)."""

    summary_kind: str = "exact"
    """Summary-entry kind: ``exact``, ``sketch``, or ``model``."""

    epsilon: float | None = None
    """Documented accuracy bound for ``sketch`` results (None = exact)."""

    arity: int = 1
    """Attributes the function is asked of (the length of its summary key)."""

    optional_attributes: int | None = 0
    """How many more it accepts (a cross tabulation's weight), ``None`` for any

    number (a model's predictors)."""

    @property
    def is_incremental(self) -> bool:
        """Whether finite differencing (or a manual scheme) maintains it."""
        return self.maintainer_factory is not None

    def make_maintainer(self, provider: ValuesProvider) -> IncrementalComputation:
        """Build and initialize the incremental form for current data."""
        if self.maintainer_factory is None:
            raise FunctionError(f"function {self.name!r} has no incremental form")
        return self.maintainer_factory(provider)

    def check(
        self,
        attributes: Sequence[str],
        attribute_of: Callable[[str], Attribute],
        force: bool = False,
    ) -> None:
        """Reject a request this function cannot serve over ``attributes``.

        The one gate both read paths (live session, pinned snapshot) pass
        before touching data: the count must fit the row's arity; every
        name must exist (``attribute_of``, the schema's or the pinned
        version's lookup, raises its own ``SchemaError``); and, unless
        ``force``, each attribute's role must suit the function (SS3.2).
        """
        extra = len(attributes) - self.arity
        if extra < 0 or (
            self.optional_attributes is not None and extra > self.optional_attributes
        ):
            takes = str(self.arity)
            if self.optional_attributes is None:
                takes += " or more"
            elif self.optional_attributes:
                takes += f" to {self.arity + self.optional_attributes}"
            raise FunctionError(
                f"function {self.name!r} takes {takes} attribute(s), "
                f"got {len(attributes)}"
            )
        for name in attributes:
            attribute = attribute_of(name)
            if not force and not self.applicable_to(attribute):
                raise FunctionError(
                    f"{self.name!r} on {name!r} is not meaningful: the "
                    f"attribute is a {attribute.role.value} "
                    "(paper SS3.2: summary values of encoded categories make no sense)"
                )

    def applicable_to(self, attribute: Attribute) -> bool:
        """Whether summary information of this function makes sense for

        the attribute (category-encoded columns reject numeric stats)."""
        if not self.numeric_only:
            return True
        if attribute.role is AttributeRole.CATEGORY:
            # Count-like statistics remain fine on categories.
            return False
        return True


def _initialized(maintainer: IncrementalComputation, provider: ValuesProvider) -> IncrementalComputation:
    maintainer.initialize(provider())
    return maintainer


def _simple_factory(cls: Any) -> MaintainerFactory:
    def factory(provider: ValuesProvider) -> IncrementalComputation:
        return _initialized(cls(), provider)

    return factory


def _algebraic_factory(definition_name: str) -> MaintainerFactory:
    """A maintainer built by finite differencing from the high-level

    definition in :data:`repro.incremental.differencing.DEFINITIONS`."""
    from repro.incremental.differencing import derive_incremental

    def factory(provider: ValuesProvider) -> IncrementalComputation:
        return _initialized(derive_incremental(definition_name), provider)

    return factory


def _histogram_factory(provider: ValuesProvider) -> IncrementalComputation:
    values = [float(v) for v in provider() if not is_na(v)]
    if values:
        lo, hi = min(values), max(values)
    else:
        lo, hi = 0.0, 1.0
    if hi == lo:
        hi = lo + 1.0
    maintained = MaintainedHistogram(
        lo, hi + 1e-9 * (abs(hi) + 1), bins=20, values_provider=provider
    )
    maintained.initialize(values)
    return maintained


def _histogram_two_vectors(values: Sequence[Any]) -> tuple[list[float], list[int]]:
    """The paper's two-vector histogram form: (edges, counts)."""
    built = build_histogram(values)
    return (list(built.edges), list(built.counts))


_HEAVY_HITTERS_RE = re.compile(r"^heavy_hitters_(\d{1,3})$")


def _heavy_hitters_exact(values: Sequence[Any], k: int) -> tuple[tuple[Any, float], ...]:
    """One-shot exact top-k, with the sketch's tie-break (count descending,
    then ``repr``) so a cache miss and a warm entry agree on rankings."""
    counts: dict[Any, int] = {}
    for value in values:
        if not is_na(value):
            counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], repr(pair[0])))
    return tuple((value, float(count)) for value, count in ranked[:k])


def _heavy_hitters_function(name: str, k: int) -> StatFunction:
    return StatFunction(
        name=name,
        compute=lambda values, k=k: _heavy_hitters_exact(values, k),
        maintainer_factory=lambda provider, k=k: _initialized(
            HeavyHitterSketch(k=k), provider
        ),
        numeric_only=False,
        summary_kind="sketch",
        epsilon=EPSILON_CM,
    )


class FunctionRegistry:
    """Name -> :class:`StatFunction` resolution with quantile synthesis."""

    def __init__(self) -> None:
        self._functions: dict[str, StatFunction] = {}
        for function in _default_functions():
            self._functions[function.name] = function
        #: Rows synthesized by :meth:`get`, kept out of :meth:`names` and
        #: every listing built on it.
        self._synthesized: dict[str, StatFunction] = {}

    def register(self, function: StatFunction) -> None:
        """Add or replace a function definition."""
        self._functions[function.name] = function

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
            return True
        except FunctionError:
            return False

    def names(self) -> list[str]:
        """Registered (non-synthesized) function names."""
        return sorted(self._functions)

    def get(self, name: str) -> StatFunction:
        """Resolve a function, synthesizing quantile_XX on demand."""
        found = self._functions.get(name) or self._synthesized.get(name)
        if found is not None:
            return found
        q = quantile_fraction(name)
        if q is not None:
            function = StatFunction(
                name=name,
                compute=lambda values: desc.quantile(values, q),
                maintainer_factory=lambda provider: QuantileWindow(q, provider),
            )
            self._synthesized[name] = function
            return function
        match = _HEAVY_HITTERS_RE.match(name)
        if match and int(match.group(1)) >= 1:
            function = _heavy_hitters_function(name, int(match.group(1)))
            self._synthesized[name] = function
            return function
        raise FunctionError(
            f"unknown statistical function {name!r}; known: {self.names()}"
        )


def _default_functions() -> list[StatFunction]:
    return [
        StatFunction(
            "count",
            lambda values: float(len([v for v in values if not is_na(v)])),
            _simple_factory(IncrementalCount),
            numeric_only=False,
        ),
        StatFunction(
            "na_count",
            lambda values: float(desc.na_count(values)),
            lambda provider: _initialized(_NACounter(), provider),
            numeric_only=False,
        ),
        StatFunction("sum", desc.vsum, _simple_factory(IncrementalSum)),
        StatFunction("mean", desc.mean, _simple_factory(IncrementalMean)),
        StatFunction("var", desc.variance, _simple_factory(IncrementalVariance)),
        StatFunction("std", desc.std, _simple_factory(IncrementalStd)),
        StatFunction("min", desc.vmin, _simple_factory(IncrementalMin)),
        StatFunction("max", desc.vmax, _simple_factory(IncrementalMax)),
        StatFunction(
            "median",
            desc.median,
            lambda provider: MedianWindow(provider),
        ),
        StatFunction(
            "mode",
            desc.mode,
            _simple_factory(IncrementalFrequency),
            numeric_only=False,
        ),
        StatFunction(
            "unique_count",
            lambda values: float(desc.unique_count(values)),
            lambda provider: _initialized(_UniqueCounter(), provider),
            numeric_only=False,
        ),
        StatFunction(
            "histogram",
            _histogram_two_vectors,
            _histogram_factory,
        ),
        StatFunction(
            "trimmed_mean",
            lambda values: desc.trimmed_mean(values),
            None,  # depends on order statistics; fallback is invalidation
        ),
        StatFunction("iqr", desc.iqr, None),
        StatFunction("mad", desc.mad, None),
        StatFunction("rms", desc.rms, _algebraic_factory("rms")),
        StatFunction(
            "skewness",
            desc.skewness,
            _algebraic_factory("skewness"),
        ),
        StatFunction(
            "kurtosis_excess",
            desc.kurtosis_excess,
            _algebraic_factory("kurtosis_excess"),
        ),
        StatFunction("cv", desc.cv, _algebraic_factory("cv")),
        StatFunction(
            "geometric_mean",
            desc.geometric_mean,
            _algebraic_factory("geometric_mean"),
        ),
        # -- mergeable sketch summaries (MADlib direction, ROADMAP item 3) --
        StatFunction(
            "approx_median",
            desc.median,
            lambda provider: _initialized(TDigest(), provider),
            summary_kind="sketch",
            epsilon=EPSILON_TDIGEST,
        ),
        StatFunction(
            "approx_distinct",
            lambda values: float(desc.unique_count(values)),
            lambda provider: _initialized(
                HyperLogLog(values_provider=provider), provider
            ),
            numeric_only=False,
            summary_kind="sketch",
            epsilon=EPSILON_HLL,
        ),
        StatFunction(
            "reservoir",
            _reservoir_compute,
            lambda provider: _initialized(ReservoirSample(), provider),
            summary_kind="sketch",
        ),
        _heavy_hitters_function("heavy_hitters", 10),
        # -- n-attribute rows: one column per attribute, row-tuple maintainers --
        # Not numeric_only: a rank correlation of ordinal codes, a model on
        # dummy-coded categories and a table of categories are meaningful.
        *(
            StatFunction(name, fn, None, numeric_only=False, arity=2)
            for name, fn in (
                ("pearson", corr.pearson),
                ("spearman", corr.spearman),
                ("covariance", corr.covariance),
            )
        ),
        StatFunction(
            "ols_model",  # (response, predictor, ...) -> (n, r2, residual std, b0, b1, ...)
            ols_summary,
            _simple_factory(IncrementalLinearRegression),
            numeric_only=False,
            summary_kind="model",
            arity=2,
            optional_attributes=None,
        ),
        StatFunction(
            "crosstab",  # (row, column[, weight]) -> (row labels, column labels, cells)
            crosstab_summary,
            None,
            numeric_only=False,
            arity=2,
            optional_attributes=1,
        ),
    ]


def _reservoir_compute(values: Sequence[Any]) -> tuple[Any, ...]:
    """One-shot reservoir sample (same seed as the maintained form, so a
    cache miss and a warm entry agree on identical streams)."""
    sketch = ReservoirSample()
    sketch.initialize(values)
    return sketch.value


class _NACounter(IncrementalCount):
    """Incremental NA count (reuses IncrementalCount's NA tracking)."""

    @property
    def value(self) -> int:
        return self.na_count


class _UniqueCounter(IncrementalFrequency):
    """Incremental distinct-value count."""

    @property
    def value(self) -> int:
        return self.unique_count
