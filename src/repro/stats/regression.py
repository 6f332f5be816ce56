"""Ordinary least squares regression with residuals.

"Since the residuals of a model may be required for several 'goodness of
fit' tests they are typically stored as a new attribute in a data set"
(paper SS3.2) — and updating any input value regenerates the whole residual
vector, the canonical *global* derived-column rule.  :func:`fit_ols`
produces the model; :func:`residual_computer` packages it for
:class:`repro.incremental.derived.GlobalDerivation`.

The solve itself runs through
:class:`repro.stats.models.IncrementalLinearRegression` — the same
sufficient-statistics accumulator the Summary Database keeps warm under
updates — so a one-shot fit and an incrementally maintained model entry
can never disagree about the math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.errors import StatisticsError
from repro.relational.relation import Relation
from repro.relational.types import NA, is_na
from repro.stats.models import IncrementalLinearRegression


@dataclass(frozen=True)
class OLSModel:
    """A fitted linear model y ~ X (with intercept)."""

    predictors: tuple[str, ...]
    response: str
    coefficients: np.ndarray  # [intercept, b1, ..., bk]
    r_squared: float
    residual_std: float
    n_used: int

    def predict_row(self, xs: Sequence[float]) -> float:
        """Prediction for one predictor vector."""
        return float(self.coefficients[0] + np.dot(self.coefficients[1:], xs))

    def __str__(self) -> str:
        terms = [f"{self.coefficients[0]:.4g}"]
        for name, b in zip(self.predictors, self.coefficients[1:]):
            terms.append(f"{b:+.4g}*{name}")
        return (
            f"{self.response} ~ {' '.join(terms)}  "
            f"(R^2={self.r_squared:.4f}, n={self.n_used})"
        )


def ols_summary(response: Sequence[Any], *predictors: Sequence[Any]) -> tuple[float, ...]:
    """One-shot fit of a column on one or more others, skipping rows with

    any NA, as the flat tuple the Summary Database stores:
    :attr:`repro.stats.models.IncrementalLinearRegression.value`."""
    if not predictors:
        raise StatisticsError("OLS needs at least one predictor")
    model = IncrementalLinearRegression(k=len(predictors))
    model.absorb(zip(response, *predictors))
    return model.value


def fit_ols(
    relation: Relation, response: str, predictors: Sequence[str]
) -> OLSModel:
    """Fit y ~ 1 + X by least squares, skipping rows with any NA."""
    columns = [relation.column(name) for name in (response, *predictors)]
    return model_from_summary(response, predictors, ols_summary(*columns))


def model_from_summary(
    response: str, predictors: Sequence[str], value: Sequence[float]
) -> OLSModel:
    """Rebuild an :class:`OLSModel` from the flat summary-entry tuple.

    The Summary Database stores a fitted model as the encodable tuple
    ``(n, r², residual_std, b0, b1, …)`` produced by
    :attr:`repro.stats.models.IncrementalLinearRegression.value`; this is
    the inverse, restoring the analyst-facing object.
    """
    return OLSModel(
        predictors=tuple(predictors),
        response=response,
        coefficients=np.asarray([float(b) for b in value[3:]]),
        r_squared=float(value[1]),
        residual_std=float(value[2]),
        n_used=int(value[0]),
    )


def residuals(relation: Relation, model: OLSModel) -> list[Any]:
    """Residual for every row (NA where any input is NA)."""
    y_col = relation.column(model.response)
    x_cols = [relation.column(p) for p in model.predictors]
    out: list[Any] = []
    for i, y in enumerate(y_col):
        xs = [col[i] for col in x_cols]
        if is_na(y) or any(is_na(x) for x in xs):
            out.append(NA)
            continue
        out.append(float(y) - model.predict_row([float(x) for x in xs]))
    return out


def residual_computer(
    response: str, predictors: Sequence[str]
) -> Callable[[Relation], list[Any]]:
    """A compute-function for a residual derived column.

    Refits the model on every call — "updating even a single value ...
    requires regeneration of the entire vector (since the model may
    change)" (SS3.2).
    """
    predictor_names = tuple(predictors)

    def compute(relation: Relation) -> list[Any]:
        model = fit_ols(relation, response, predictor_names)
        return residuals(relation, model)

    return compute
