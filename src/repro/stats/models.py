"""In-database statistical models with genuine incremental update rules.

The MADlib / unified in-RDBMS analytics direction (PAPERS.md, ROADMAP
item 3): a *model fit* registered as a ``(function, attributes)`` summary
entry that stays warm under analyst updates instead of refitting.

:class:`IncrementalLinearRegression` maintains the sufficient statistics
of OLS — ``n``, the augmented Gram matrix ``Σ z zᵀ`` with
``z = (1, x₁ … xk)``, the moment vector ``Σ z·y``, and ``Σ y²`` — under
O(k²) insert/delete/update, Chan-style: solving goes through *centered*
normal equations (subtract ``n·x̄x̄ᵀ``) so catastrophic cancellation on
shifted data is confined to the accumulation, not amplified by the solve.
Every sum is Neumaier-compensated, so rows inserted and then deleted leave
no residue when they dwarf the rows that stay.
The states of two accumulators add component-wise, so two models merge
(``partial_state`` / ``merge_partial``), and a model persists as its state.

The solve is numpy-free on purpose: the closed-form Gauss–Jordan solve
doubles as the independent reference the property suite checks
``fit_ols`` against.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import is_na


def _compensated(total: float, comp: float, x: float) -> tuple[float, float]:
    """Add ``x`` to a Neumaier-compensated sum: ``IncrementalSum``'s step."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


#: Relative pivot threshold below which the centered Gram matrix is
#: treated as singular (collinear predictors).
_RANK_TOL = 1e-10


#: Relative to the squared magnitude every folded row carried, the
#: rounding residue a cancelled insert/delete can leave in the Gram
#: matrix (a few hundred ulps); a pivot no larger is not rank.
_ROUND_TOL = 1e-13


def solve_linear(
    matrix: Sequence[Sequence[float]], rhs: Sequence[float], noise: float = 0.0
) -> list[float]:
    """Solve ``matrix @ x = rhs`` by Gauss–Jordan with partial pivoting.

    Raises :class:`StatisticsError` on (near-)singular input — the
    rank-deficient design case — and on any pivot no larger than the
    absolute ``noise`` floor a caller names for rounding residue.  Pure
    Python: used both by the incremental fit and as the test suite's
    numpy-free reference.
    """
    k = len(rhs)
    aug = [list(map(float, row)) + [float(rhs[i])] for i, row in enumerate(matrix)]
    scale = max((abs(v) for row in aug for v in row[:k]), default=0.0)
    if scale == 0.0:
        raise StatisticsError("design matrix is rank-deficient")
    tol = max(_RANK_TOL * scale, noise)
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) <= tol:
            raise StatisticsError("design matrix is rank-deficient")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        row = aug[col]
        inv = 1.0 / pivot
        for j in range(col, k + 1):
            row[j] *= inv
        for r in range(k):
            if r == col:
                continue
            factor = aug[r][col]
            if factor == 0.0:
                continue
            other = aug[r]
            for j in range(col, k + 1):
                other[j] -= factor * row[j]
    return [aug[r][k] for r in range(k)]


class IncrementalLinearRegression(IncrementalComputation):
    """Streaming OLS over rows ``(y, x₁, …, xk)``.

    Rows with any NA component are skipped entirely (complete-case
    analysis, matching :func:`repro.stats.regression.fit_ols`).  Deletes
    and updates are exact inverses of inserts, so the fit after any
    insert/delete/update history equals the fit over the surviving rows.
    """

    sketch_kind = "linreg"

    def __init__(self, k: int = 0) -> None:
        if k < 0:
            raise StatisticsError(f"predictor count cannot be negative, got {k}")
        #: Predictor count; 0 until the first row folded (or partial
        #: merged) sizes the model — a provider of row tuples names no
        #: width, and an empty one has no row to ask.
        self.k = k
        self.reset()

    def _fit_width(self, width: int) -> None:
        """Size an unsized model to its first row; reject any other width."""
        if self.k:
            raise StatisticsError(
                f"model row needs {self.k + 1} components (y, x1..x{self.k}), "
                f"got {width}"
            )
        if width < 2:
            raise StatisticsError(
                "model row needs a response and at least one predictor, "
                f"got {width} component(s)"
            )
        self.k = width - 1
        self.reset()

    def reset(self) -> None:
        d = self.k + 1
        self._n = 0
        # Augmented Gram matrix Σ z zᵀ, z = (1, x1..xk); kept full, not
        # triangular — the O(k²) row update dominates either way.
        self._gram = [[0.0] * d for _ in range(d)]
        self._moment = [0.0] * d
        self._yty = 0.0
        # The Neumaier compensation of each sum above, added at solve time.
        self._gram_c = [[0.0] * d for _ in range(d)]
        self._moment_c = [0.0] * d
        self._yty_c = 0.0
        # Σ Σ xⱼ² over every row folded in either direction: the magnitude
        # the Gram matrix has carried, so a delete that cancels an insert
        # leaves residue judged against it, not against itself.
        self._mass = 0.0

    # -- maintenance ---------------------------------------------------------

    def fold(self, values: Iterable[Sequence[Any]], sign: int = 1) -> None:
        """Add or remove whole rows: an O(k²) signed rank-one update each."""
        for row in values:
            if len(row) != self.k + 1 or not self.k:
                self._fit_width(len(row))
            if any(is_na(v) for v in row):
                continue  # complete-case analysis
            y = float(row[0])
            z = [1.0] + [float(v) for v in row[1:]]
            signed = [sign * zi for zi in z]
            self._add(
                [[s * zj for zj in z] for s in signed], [s * y for s in signed], sign * y * y
            )
            self._mass += sum(zj * zj for zj in z[1:])
            self._n += sign
        self._require_tracked(self._n)

    # -- solving -------------------------------------------------------------

    @property
    def n_used(self) -> int:
        return self._n

    def _sums(self) -> tuple[list[list[float]], list[float], float]:
        """The Gram matrix, moment vector and ``Σ y²``, compensation added."""
        gram = [
            [s + c for s, c in zip(row, comp)]
            for row, comp in zip(self._gram, self._gram_c)
        ]
        moment = [s + c for s, c in zip(self._moment, self._moment_c)]
        return gram, moment, self._yty + self._yty_c

    def coefficients(self) -> list[float]:
        """``[intercept, b1, …, bk]`` from the centered normal equations."""
        n = self._n
        k = self.k
        if n <= k + 1:
            raise StatisticsError(
                f"OLS needs more than {k + 1} complete rows, got {n}"
            )
        gram, moment, _ = self._sums()
        x_mean = [gram[0][j + 1] / n for j in range(k)]
        y_mean = moment[0] / n
        centered = [
            [
                gram[i + 1][j + 1] - n * x_mean[i] * x_mean[j]
                for j in range(k)
            ]
            for i in range(k)
        ]
        rhs = [moment[j + 1] - n * x_mean[j] * y_mean for j in range(k)]
        slopes = solve_linear(centered, rhs, _ROUND_TOL * self._mass)
        intercept = y_mean - sum(b * m for b, m in zip(slopes, x_mean))
        return [intercept] + slopes

    def fit(self) -> dict[str, Any]:
        """The full fit: coefficients plus R², residual std, and n."""
        coefs = self.coefficients()
        n = self._n
        k = self.k
        gram, moment, yty = self._sums()
        y_mean = moment[0] / n
        # ss_res = yᵀy − 2 bᵀ(Xᵀy) + bᵀ(XᵀX)b over the augmented design.
        quad = 0.0
        cross = 0.0
        for i in range(k + 1):
            cross += coefs[i] * moment[i]
            row_i = gram[i]
            for j in range(k + 1):
                quad += coefs[i] * coefs[j] * row_i[j]
        ss_res = max(0.0, yty - 2.0 * cross + quad)
        ss_tot = max(0.0, yty - n * y_mean * y_mean)
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        dof = n - (k + 1)
        residual_std = (ss_res / dof) ** 0.5 if dof > 0 else 0.0
        return {
            "coefficients": coefs,
            "r_squared": r_squared,
            "residual_std": residual_std,
            "n_used": n,
        }

    @property
    def value(self) -> Any:
        """An encodable flat tuple: ``(n, r², residual_std, b0, b1, …)``."""
        fit = self.fit()
        return (
            float(fit["n_used"]),
            float(fit["r_squared"]),
            float(fit["residual_std"]),
            *[float(b) for b in fit["coefficients"]],
        )

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        return {
            "k": self.k,
            "n": self._n,
            "gram": [list(row) for row in self._gram],
            "moment": list(self._moment),
            "yty": self._yty,
            "mass": self._mass,
            "gram_c": [list(row) for row in self._gram_c],
            "moment_c": list(self._moment_c),
            "yty_c": self._yty_c,
        }

    def merge_partial(self, state: Any) -> None:
        if not state["k"]:
            return  # an unsized sibling has seen no row
        if not self.k:
            self._fit_width(state["k"] + 1)
        if state["k"] != self.k:
            raise StatisticsError(
                f"cannot merge regressions with {state['k']} and {self.k} predictors"
            )
        self._n += state["n"]
        self._mass += state.get("mass", 0.0)
        # The other model's sums and their compensations are more addends;
        # a state written before the sums were compensated carries none.
        for suffix in ("", "_c"):
            if "yty" + suffix in state:
                self._add(
                    state["gram" + suffix], state["moment" + suffix], state["yty" + suffix]
                )

    def _add(self, gram: Any, moment: Any, yty: float) -> None:
        """Add a Gram matrix, moment vector and ``Σ y²`` term by term."""
        for i, (theirs, their_moment) in enumerate(zip(gram, moment)):
            mine, comp = self._gram[i], self._gram_c[i]
            for j, v in enumerate(theirs):
                mine[j], comp[j] = _compensated(mine[j], comp[j], v)
            self._moment[i], self._moment_c[i] = _compensated(
                self._moment[i], self._moment_c[i], their_moment
            )
        self._yty, self._yty_c = _compensated(self._yty, self._yty_c, yty)

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        return self.partial_state()

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "IncrementalLinearRegression":
        model = cls(k=int(state["k"]))
        model.merge_partial(state)
        return model
