"""Tests for OLS regression and residuals."""

import random

import pytest

from repro.core.errors import StatisticsError
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.relational.types import NA, is_na
from repro.stats.regression import fit_ols, residual_computer, residuals


def linear_relation(n=200, noise=0.0, seed=0, extra_rows=()):
    rng = random.Random(seed)
    schema = Schema([measure("x1"), measure("x2"), measure("y")])
    rows = []
    for _ in range(n):
        x1 = rng.uniform(0, 10)
        x2 = rng.uniform(-5, 5)
        y = 2.0 + 3.0 * x1 - 1.5 * x2 + rng.gauss(0, noise)
        rows.append((x1, x2, y))
    return Relation("r", schema, rows + list(extra_rows))


class TestFit:
    def test_exact_recovery(self):
        model = fit_ols(linear_relation(), "y", ["x1", "x2"])
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert model.coefficients[1] == pytest.approx(3.0, abs=1e-9)
        assert model.coefficients[2] == pytest.approx(-1.5, abs=1e-9)
        assert model.r_squared == pytest.approx(1.0)

    def test_noisy_fit(self):
        model = fit_ols(linear_relation(noise=1.0, seed=1), "y", ["x1", "x2"])
        assert model.coefficients[1] == pytest.approx(3.0, abs=0.2)
        assert 0.9 < model.r_squared < 1.0
        assert model.residual_std == pytest.approx(1.0, abs=0.2)

    def test_na_rows_skipped(self):
        rel = linear_relation(n=50, extra_rows=[(NA, 1.0, 2.0)])
        model = fit_ols(rel, "y", ["x1", "x2"])
        assert model.n_used == 50

    def test_too_few_rows_rejected(self):
        schema = Schema([measure("x"), measure("y")])
        rel = Relation("r", schema, [(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(StatisticsError, match="complete rows"):
            fit_ols(rel, "y", ["x"])

    def test_rank_deficient_rejected(self):
        schema = Schema([measure("x"), measure("x2"), measure("y")])
        rows = [(float(i), 2.0 * i, float(i)) for i in range(10)]
        rel = Relation("r", schema, rows)
        with pytest.raises(StatisticsError, match="rank"):
            fit_ols(rel, "y", ["x", "x2"])

    def test_needs_predictors(self):
        with pytest.raises(StatisticsError):
            fit_ols(linear_relation(), "y", [])

    def test_predict_and_str(self):
        model = fit_ols(linear_relation(), "y", ["x1", "x2"])
        assert model.predict_row([1.0, 1.0]) == pytest.approx(3.5)
        assert "R^2" in str(model)


class TestResiduals:
    def test_residuals_sum_to_zero(self):
        rel = linear_relation(noise=2.0, seed=3)
        model = fit_ols(rel, "y", ["x1", "x2"])
        res = residuals(rel, model)
        assert sum(res) == pytest.approx(0.0, abs=1e-6)

    def test_na_rows_get_na_residual(self):
        rel = linear_relation(n=20, extra_rows=[(NA, 1.0, 2.0)])
        model = fit_ols(rel, "y", ["x1", "x2"])
        res = residuals(rel, model)
        assert is_na(res[-1])
        assert len(res) == 21

    def test_residual_computer_refits(self):
        """SS3.2: updating one value regenerates the vector because the

        model itself changes."""
        rel = linear_relation(n=50)
        compute = residual_computer("y", ["x1", "x2"])
        before = compute(rel)
        rel.set_value(0, "y", 9_999.0)
        after = compute(rel)
        # Every residual changed, not just row 0's.
        changed = sum(1 for b, a in zip(before[1:], after[1:]) if abs(b - a) > 1e-9)
        assert changed > 40
