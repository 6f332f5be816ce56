"""Tests for incremental model fits as first-class summary entries.

ISSUE 9: an OLS fit registered under ``("ols_model", (y, x1, ...))``
with a live :class:`IncrementalLinearRegression` maintainer must stay
warm under cell updates (row-wise replay through the propagator), go
stale on anything it cannot replay, and never serve a silently wrong
fit.
"""

import random

import pytest

from repro.core.errors import StatisticsError
from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.relational.types import NA
from repro.stats.models import IncrementalLinearRegression, solve_linear
from repro.stats.regression import fit_ols
from repro.summary.policies import InvalidatePolicy
from repro.views.view import ConcreteView


def linear_rows(n=60, noise=0.5, seed=3):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        x1 = rng.uniform(0, 10)
        x2 = rng.uniform(-5, 5)
        y = 1.5 + 2.0 * x1 - 0.75 * x2 + rng.gauss(0, noise)
        rows.append((y, x1, x2))
    return rows


def closed_form(rows):
    """Reference fit via the raw (uncentered) normal equations."""
    used = [r for r in rows if not any(v is NA for v in r)]
    k = len(used[0]) - 1
    d = k + 1
    gram = [[0.0] * d for _ in range(d)]
    moment = [0.0] * d
    for row in used:
        z = [1.0] + [float(v) for v in row[1:]]
        for i in range(d):
            for j in range(d):
                gram[i][j] += z[i] * z[j]
            moment[i] += z[i] * float(row[0])
    return solve_linear(gram, moment)


class TestIncrementalRegression:
    def test_matches_closed_form(self):
        rows = linear_rows()
        model = IncrementalLinearRegression(k=2)
        model.initialize(rows)
        reference = closed_form(rows)
        assert model.coefficients() == pytest.approx(reference, rel=1e-9)

    def test_mutations_equal_fresh_fit(self):
        rows = linear_rows(n=40, seed=7)
        model = IncrementalLinearRegression(k=2)
        model.initialize(rows)
        model.on_insert((5.0, 2.0, 1.0))
        model.on_delete(rows[3])
        model.on_update(rows[10], (rows[10][0] + 1.0, *rows[10][1:]))
        survivors = [r for i, r in enumerate(rows) if i not in (3, 10)]
        survivors += [(5.0, 2.0, 1.0), (rows[10][0] + 1.0, *rows[10][1:])]
        fresh = IncrementalLinearRegression(k=2)
        fresh.initialize(survivors)
        assert model.coefficients() == pytest.approx(
            fresh.coefficients(), rel=1e-8
        )

    def test_na_rows_skipped_and_update_to_na_removes(self):
        rows = linear_rows(n=30, seed=9)
        model = IncrementalLinearRegression(k=2)
        model.initialize(rows + [(NA, 1.0, 2.0)])
        assert model.n_used == 30
        model.on_update(rows[0], (rows[0][0], NA, rows[0][2]))
        assert model.n_used == 29

    def test_merge_partial_equals_whole(self):
        rows = linear_rows(n=50, seed=11)
        whole = IncrementalLinearRegression(k=2)
        whole.initialize(rows)
        left = IncrementalLinearRegression(k=2)
        left.initialize(rows[:23])
        right = IncrementalLinearRegression(k=2)
        right.initialize(rows[23:])
        left.merge_partial(right.partial_state())
        assert left.value == pytest.approx(whole.value, rel=1e-9)

    def test_cancelled_burst_residue_is_not_rank(self):
        # Shrunk counterexample: an insert/delete burst over a constant
        # design leaves ~1e-14 rounding residue in the Gram matrix, which
        # must still read as rank-deficient, as the fresh fit does.
        base = [(0.0, 0.0, 0.0)] * 4
        burst = [(0.0, 1.0, 1.065761175911188), (0.0, 2.0, 16.0)]
        model = IncrementalLinearRegression(k=2)
        model.initialize(base)
        for row in burst:
            model.on_insert(row)
        for row in reversed(burst):
            model.on_delete(row)
        with pytest.raises(StatisticsError, match="rank"):
            model.coefficients()
        clone = IncrementalLinearRegression.from_state(model.to_state())
        with pytest.raises(StatisticsError, match="rank"):
            clone.coefficients()

    def test_cancelled_burst_keeps_the_fit_exact(self):
        # Inserting then deleting rows far larger than the base leaves
        # rounding residue in plain Gram sums; compensated sums return the
        # closed form over the base rows.
        base = [(1.0, 0.0, 1.0), (1.0, 0.001, 0.0), (-0.25, 0.001, 0.0), (1.0, 0.001, 1.0)]
        burst = [(-50.0, 4.0, 4.0), (50.0, 50.0, 0.0), (50.0, 50.0, 50.0)]
        model = IncrementalLinearRegression(k=2)
        model.initialize(base)
        for row in burst:
            model.on_insert(row)
        for row in reversed(burst):
            model.on_delete(row)
        assert model.coefficients() == pytest.approx([0.375, 0.0, 0.625], abs=1e-9)
        clone = IncrementalLinearRegression.from_state(model.to_state())
        assert clone.coefficients() == pytest.approx([0.375, 0.0, 0.625], abs=1e-9)

    def test_state_without_compensation_loads(self):
        # States written before the sums were compensated carry no
        # compensation keys; they load as uncompensated sums.
        rows = linear_rows(n=25, seed=13)
        model = IncrementalLinearRegression(k=2)
        model.initialize(rows)
        state = {
            key: value
            for key, value in model.to_state().items()
            if key in ("k", "n", "gram", "moment", "yty", "mass")
        }
        clone = IncrementalLinearRegression.from_state(state)
        assert clone.value == pytest.approx(model.value, rel=1e-12)

    def test_merge_rejects_mismatched_k(self):
        a = IncrementalLinearRegression(k=2)
        b = IncrementalLinearRegression(k=3)
        with pytest.raises(StatisticsError, match="merge"):
            a.merge_partial(b.partial_state())

    def test_state_round_trip(self):
        rows = linear_rows(n=25, seed=13)
        model = IncrementalLinearRegression(k=2)
        model.initialize(rows)
        clone = IncrementalLinearRegression.from_state(model.to_state())
        assert clone.value == pytest.approx(model.value, rel=1e-12)

    def test_fit_ols_equivalence(self):
        rows = linear_rows(n=80, seed=17)
        schema = Schema([measure("y"), measure("x1"), measure("x2")])
        relation = Relation("r", schema, rows)
        via_relation = fit_ols(relation, "y", ["x1", "x2"])
        direct = IncrementalLinearRegression(k=2)
        direct.initialize(rows)
        assert list(via_relation.coefficients) == pytest.approx(
            direct.coefficients(), rel=1e-12
        )


def model_session(policy=None, rows=None):
    rows = rows if rows is not None else linear_rows()
    schema = Schema([measure("y"), measure("x1"), measure("x2")])
    relation = Relation("r", schema, rows)
    view = ConcreteView("study", relation)
    return AnalystSession(
        ManagementDatabase(), view, analyst="bates", policy=policy
    )


def refit_reference(session):
    return fit_ols(session.view.relation, "y", ["x1", "x2"])


class TestSessionFitModel:
    def test_miss_then_hit(self, monkeypatch=None):
        session = model_session()
        first = session.fit_model("y", ["x1", "x2"])
        scanned = session.stats.rows_scanned
        second = session.fit_model("y", ["x1", "x2"])
        assert session.stats.rows_scanned == scanned  # hit: no rescan
        assert list(first.coefficients) == list(second.coefficients)
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert entry is not None
        assert entry.kind == "model"
        assert entry.maintainer is not None

    def test_cell_update_keeps_model_warm(self):
        session = model_session()
        session.fit_model("y", ["x1", "x2"])
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        # Update a predictor (secondary attribute) and the response
        # (primary attribute): both propagation branches must replay
        # row-wise instead of invalidating.
        report = session.update_cells("x1", [(4, 9.25), (7, 0.5)])
        assert report.incremental_updates >= 1
        assert not entry.stale
        report = session.update_cells("y", [(2, 42.0)])
        assert report.incremental_updates >= 1
        assert not entry.stale
        scanned = session.stats.rows_scanned
        warm = session.fit_model("y", ["x1", "x2"])
        assert session.stats.rows_scanned == scanned  # still a cache hit
        reference = refit_reference(session)
        assert list(warm.coefficients) == pytest.approx(
            list(reference.coefficients), rel=1e-8
        )
        assert warm.n_used == reference.n_used

    def test_update_to_na_keeps_model_warm_and_exact(self):
        session = model_session()
        before = session.fit_model("y", ["x1", "x2"])
        session.update_cells("x2", [(5, NA)])
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert not entry.stale
        warm = session.fit_model("y", ["x1", "x2"])
        assert warm.n_used == before.n_used - 1
        reference = refit_reference(session)
        assert list(warm.coefficients) == pytest.approx(
            list(reference.coefficients), rel=1e-8
        )

    def test_predicate_update_keeps_model_warm(self):
        from repro.relational.expressions import col

        session = model_session()
        session.fit_model("y", ["x1", "x2"])
        session.update(col("x1") > 5.0, {"x2": 0.0})
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert not entry.stale
        warm = session.fit_model("y", ["x1", "x2"])
        reference = refit_reference(session)
        assert list(warm.coefficients) == pytest.approx(
            list(reference.coefficients), rel=1e-8
        )

    def test_stale_hit_refits(self):
        session = model_session()
        session.fit_model("y", ["x1", "x2"])
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        session.view.summary.mark_stale(entry)
        refit = session.fit_model("y", ["x1", "x2"])
        fresh_entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert not fresh_entry.stale
        assert fresh_entry.maintainer is not None
        reference = refit_reference(session)
        assert list(refit.coefficients) == pytest.approx(
            list(reference.coefficients), rel=1e-10
        )

    def test_invalidate_policy_does_not_keep_warm(self):
        session = model_session(policy=InvalidatePolicy())
        session.fit_model("y", ["x1", "x2"])
        session.update_cells("x1", [(4, 9.25)])
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert entry.stale

    def test_rank_collapse_goes_stale_never_wrong(self):
        """Updates that make the design collinear must not leave a live
        maintainer serving a stale or impossible fit."""
        rows = [(float(i), float(i), float(i % 3)) for i in range(8)]
        session = model_session(rows=rows)
        session.fit_model("y", ["x1", "x2"])
        for row in range(8):
            session.update_cells("x2", [(row, 2.0 * rows[row][1])])
        entry = session.view.summary.peek("ols_model", ("y", "x1", "x2"))
        assert entry.stale
        assert entry.maintainer is None
        with pytest.raises(StatisticsError, match="rank"):
            session.fit_model("y", ["x1", "x2"])
