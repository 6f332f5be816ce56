"""A Database Abstract: inferring answers from cached values (paper SS5.1).

"Neil Rowe of Stanford University proposed using a Database Abstract in
which some precomputed values of statistical functions will be stored.  A
set of inference rules will be used to calculate the results of other
functions, based on the values stored in the Database Abstract ...  it
attempts to provide the users with estimates as the results of queries."

:class:`DatabaseAbstract` layers inference rules over a
:class:`~repro.summary.summarydb.SummaryDatabase`: a query that misses the
cache may still be answered **exactly** (mean from sum and count), with
**bounds** (any quantile lies between cached neighbouring quantiles), or as
an **estimate** (the midrange for a missing median) — all without touching
the view's data.  Only fresh (non-stale) entries feed inference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.relational.types import is_na, quantile_fraction
from repro.summary.summarydb import SummaryDatabase


class InferenceKind(enum.Enum):
    """Strength of an inferred answer."""

    EXACT = "exact"
    BOUNDED = "bounded"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class Inference:
    """An answer produced without any data access."""

    function: str
    attribute: str
    kind: InferenceKind
    value: Any
    lo: Any = None
    hi: Any = None
    derivation: str = ""

    def __str__(self) -> str:
        bounds = (
            f" in [{self.lo:.6g}, {self.hi:.6g}]"
            if self.lo is not None and self.hi is not None
            else ""
        )
        return (
            f"{self.function}({self.attribute}) ~ {self.value!r}{bounds} "
            f"({self.kind.value}: {self.derivation})"
        )


class DatabaseAbstract:
    """Inference rules over one Summary Database."""

    def __init__(self, summary: SummaryDatabase) -> None:
        self.summary = summary
        self.inferences_served = 0

    # -- cached-value access ---------------------------------------------------

    def _fresh(self, function: str, attribute: str) -> Any | None:
        entry = self.summary.peek(function, attribute)
        if entry is None or entry.stale or entry.pending_updates > 0:
            return None
        if is_na(entry.result):
            return None
        return entry.result

    def _cached_quantiles(self, attribute: str) -> dict[float, float]:
        """Every fresh cached order statistic as {q: value}."""
        points: dict[float, float] = {}
        for entry in self.summary.entries_for_attribute(attribute):
            if entry.stale or entry.pending_updates > 0 or is_na(entry.result):
                continue
            name = entry.key.function
            q = quantile_fraction(name)
            if q is not None:
                points[q] = float(entry.result)
            elif name == "min":
                points[0.0] = float(entry.result)
            elif name == "max":
                points[1.0] = float(entry.result)
        return points

    # -- the rule set -------------------------------------------------------------

    def infer(self, function: str, attribute: str) -> Inference | None:
        """Try to answer (function, attribute) from cached values alone.

        Returns ``None`` when no rule applies; never touches the data.
        """
        for rule in (
            self._rule_identity,
            self._rule_mean_sum_count,
            self._rule_sum_mean_count,
            self._rule_var_std,
            self._rule_std_var,
            self._rule_cv,
            self._rule_rms,
            self._rule_iqr,
            self._rule_quantile_interpolation,
            self._rule_mean_bounds,
            self._rule_trimmed_mean_bounds,
        ):
            inference = rule(function, attribute)
            if inference is not None:
                self.inferences_served += 1
                return inference
        return None

    def _rule_identity(self, function: str, attribute: str) -> Inference | None:
        value = self._fresh(function, attribute)
        if value is None:
            return None
        return Inference(
            function, attribute, InferenceKind.EXACT, value, derivation="cached"
        )

    def _rule_mean_sum_count(self, function: str, attribute: str) -> Inference | None:
        if function not in ("mean", "avg"):
            return None
        total = self._fresh("sum", attribute)
        count = self._fresh("count", attribute)
        if total is None or not count:
            return None
        return Inference(
            function,
            attribute,
            InferenceKind.EXACT,
            float(total) / float(count),
            derivation="sum / count",
        )

    def _rule_sum_mean_count(self, function: str, attribute: str) -> Inference | None:
        if function != "sum":
            return None
        mean = self._fresh("mean", attribute)
        count = self._fresh("count", attribute)
        if mean is None or count is None:
            return None
        return Inference(
            function,
            attribute,
            InferenceKind.EXACT,
            float(mean) * float(count),
            derivation="mean * count",
        )

    def _rule_var_std(self, function: str, attribute: str) -> Inference | None:
        if function != "var":
            return None
        std = self._fresh("std", attribute)
        if std is None:
            return None
        return Inference(
            function, attribute, InferenceKind.EXACT, float(std) ** 2,
            derivation="std^2",
        )

    def _rule_std_var(self, function: str, attribute: str) -> Inference | None:
        if function != "std":
            return None
        var = self._fresh("var", attribute)
        if var is None or var < 0:
            return None
        return Inference(
            function, attribute, InferenceKind.EXACT, math.sqrt(float(var)),
            derivation="sqrt(var)",
        )

    def _rule_cv(self, function: str, attribute: str) -> Inference | None:
        if function != "cv":
            return None
        std = self._fresh("std", attribute)
        mean = self._fresh("mean", attribute)
        if std is None or not mean:
            return None
        return Inference(
            function, attribute, InferenceKind.EXACT, float(std) / float(mean),
            derivation="std / mean",
        )

    def _rule_rms(self, function: str, attribute: str) -> Inference | None:
        if function != "rms":
            return None
        mean = self._fresh("mean", attribute)
        var = self._fresh("var", attribute)
        if var is None:
            # Chain one step: var derives from a cached std.
            std = self._fresh("std", attribute)
            var = float(std) ** 2 if std is not None else None
        count = self._fresh("count", attribute)
        if mean is None or var is None or not count or count < 2:
            return None
        # E[x^2] = mean^2 + m2, with m2 = var * (n-1)/n (sample -> population).
        n = float(count)
        second_moment = float(mean) ** 2 + float(var) * (n - 1) / n
        if second_moment < 0:
            return None
        return Inference(
            function,
            attribute,
            InferenceKind.EXACT,
            math.sqrt(second_moment),
            derivation="sqrt(mean^2 + var*(n-1)/n)",
        )

    def _rule_iqr(self, function: str, attribute: str) -> Inference | None:
        if function != "iqr":
            return None
        q1 = self._fresh("quantile_25", attribute)
        q3 = self._fresh("quantile_75", attribute)
        if q1 is None or q3 is None:
            return None
        return Inference(
            function, attribute, InferenceKind.EXACT, float(q3) - float(q1),
            derivation="quantile_75 - quantile_25",
        )

    def _rule_quantile_interpolation(
        self, function: str, attribute: str
    ) -> Inference | None:
        q = quantile_fraction(function)
        if q is None:
            return None
        points = self._cached_quantiles(attribute)
        if q in points:
            return Inference(
                function,
                attribute,
                InferenceKind.EXACT,
                points[q],
                derivation=f"cached order statistic at q={q:g}",
            )
        below = [p for p in points if p < q]
        above = [p for p in points if p > q]
        if not below or not above:
            return None
        lo_q = max(below)
        hi_q = min(above)
        lo_v, hi_v = points[lo_q], points[hi_q]
        # Linear interpolation between the bracketing cached quantiles; the
        # truth is provably within [lo_v, hi_v].
        fraction = (q - lo_q) / (hi_q - lo_q)
        estimate = lo_v + fraction * (hi_v - lo_v)
        return Inference(
            function,
            attribute,
            InferenceKind.BOUNDED,
            estimate,
            lo=lo_v,
            hi=hi_v,
            derivation=f"between cached q{lo_q:.2f} and q{hi_q:.2f}",
        )

    def _rule_mean_bounds(self, function: str, attribute: str) -> Inference | None:
        if function not in ("mean", "avg"):
            return None
        lo = self._fresh("min", attribute)
        hi = self._fresh("max", attribute)
        median = self._fresh("median", attribute)
        if lo is None or hi is None:
            return None
        estimate = float(median) if median is not None else (float(lo) + float(hi)) / 2
        return Inference(
            function,
            attribute,
            InferenceKind.BOUNDED if median is None else InferenceKind.ESTIMATE,
            estimate,
            lo=float(lo),
            hi=float(hi),
            derivation="median (or midrange) within [min, max]",
        )

    def _rule_trimmed_mean_bounds(
        self, function: str, attribute: str
    ) -> Inference | None:
        if function != "trimmed_mean":
            return None
        lo = self._fresh("quantile_5", attribute)
        hi = self._fresh("quantile_95", attribute)
        median = self._fresh("median", attribute)
        if lo is None or hi is None:
            return None
        estimate = float(median) if median is not None else (float(lo) + float(hi)) / 2
        return Inference(
            function,
            attribute,
            InferenceKind.BOUNDED,
            estimate,
            lo=float(lo),
            hi=float(hi),
            derivation="trimmed mean lies within its own trim bounds",
        )
