"""Conformance: every maintainer the system can construct is one fold.

An :class:`~repro.incremental.differencing.IncrementalComputation` writes
its arithmetic once, in ``fold(values, sign)``; batch evaluation, merged
partial states and finite differencing are all derived from it.  So one
suite covers every maintainer there is — each ``FunctionRegistry`` row with
a maintainer factory, whatever its arity (a one-attribute row is fed
values, an n-attribute row such as the OLS model row tuples) — and checks
the only thing that matters: after any interleaving of ``fold(+)``,
``fold(-)``, ``merge_partial`` and a 1-tuple ``apply_batch``, the
maintained value equals the function's batch ``compute`` over the
resulting multiset — exactly, or within the stamped epsilon for sketches —
NA values and the empty state included.  Values are small integers so
power sums stay exact.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from typing import Any, Callable

import numpy as np
import pytest

from repro.core.errors import NotIncrementallyComputable, StatisticsError
from repro.incremental.differencing import Delta, IncrementalComputation
from repro.metadata.functions import FunctionRegistry
from repro.relational.types import NA, is_na
from repro.stats.models import IncrementalLinearRegression

SEEDS = range(4)
STEPS = 40

Provider = Callable[[], list[Any]]


def draw_scalar(rng: random.Random, lo: int) -> Any:
    return NA if rng.random() < 0.15 else float(rng.randint(lo, 40))


def draw_pair(rng: random.Random, lo: int) -> Any:
    return (draw_scalar(rng, lo), NA if rng.random() < 0.1 else float(rng.randint(1, 4)))


def draw_row(rng: random.Random, lo: int) -> Any:
    x1, x2 = float(rng.randint(-9, 9)), float(rng.randint(-9, 9))
    y = 2.0 + 3.0 * x1 - x2 + rng.randint(-2, 2)
    return (NA if rng.random() < 0.1 else y, x1, x2)


#: Observation width -> (how to draw one, a single non-NA observation).
OBSERVATIONS: dict[int, tuple[Callable[[random.Random, int], Any], Any]] = {
    1: (draw_scalar, 5.0),
    2: (draw_pair, (5.0, 2.0)),
    3: (draw_row, (1.0, 2.0, 3.0)),
}


def same(live: Any, expected: Any) -> bool:
    if is_na(live) or is_na(expected):
        return is_na(live) and is_na(expected)
    if isinstance(expected, (tuple, list)):
        return len(live) == len(expected) and all(map(same, live, expected))
    if isinstance(expected, (int, float)):
        return live == pytest.approx(expected, rel=1e-9, abs=1e-9)
    return live == expected


class Subject:
    """One way of constructing a maintainer, and what its value must equal."""

    draw = staticmethod(draw_scalar)
    one: Any = 5.0  # a single non-NA observation

    def make(self, provider: Provider) -> IncrementalComputation:
        raise NotImplementedError

    def check(self, maintainer: Any, data: list[Any]) -> None:
        raise NotImplementedError


class Registered(Subject):
    """A catalogue row's maintainer, fed what the row's arity says it

    consumes; ``bare`` builds the maintainer without the row's factory (the
    explicitly sized model ``fit_ols`` and checkpoint restore construct)."""

    def __init__(
        self, name: str, bare: Callable[[], IncrementalComputation] | None = None
    ) -> None:
        self.function = function = FunctionRegistry().get(name)
        self.bare = bare
        # A variadic row is exercised one attribute past its minimum.
        width = function.arity + (function.optional_attributes is None)
        self.draw, self.one = OBSERVATIONS[width]  # type: ignore[assignment]

    def make(self, provider: Provider) -> IncrementalComputation:
        if self.bare is None:
            return self.function.make_maintainer(provider)
        maintainer = self.bare()
        maintainer.fold(provider())
        return maintainer

    def check(self, maintainer: Any, data: list[Any]) -> None:
        name = self.function.name
        if name == "ols_model":
            return check_regression(maintainer, data)
        live = maintainer.value
        clean = sorted(v for v in data if not is_na(v))
        if name == "mode":  # ties are broken arbitrarily on both sides
            counts = Counter(clean)
            assert is_na(live) if not clean else counts[live] == max(counts.values())
        elif name == "histogram":
            edges, counts = live
            inside = [v for v in clean if edges[0] <= v < edges[-1]]
            assert sum(counts) == len(inside)
            width = (edges[-1] - edges[0]) / len(counts)
            recount = Counter(
                min(int((v - edges[0]) / width), len(counts) - 1) for v in inside
            )
            assert counts == [recount[i] for i in range(len(counts))]
            assert maintainer.total == len(clean)
        elif name == "reservoir":  # a uniform sample has no batch equal
            assert maintainer.population == len(clean)
            assert not Counter(live) - Counter(clean)
        elif name == "approx_median" and clean:
            slack = self.function.epsilon * len(clean)
            target = (len(clean) - 1) / 2
            assert bisect.bisect_left(clean, live) - slack - 1 <= target
            assert target <= bisect.bisect_right(clean, live) + slack
        elif name == "approx_distinct":
            exact = self.function.compute(data)
            assert abs(live - exact) <= self.function.epsilon * max(exact, 1.0)
        elif name.startswith("heavy_hitters"):
            truth = Counter(clean)
            slack = self.function.epsilon * len(clean)
            assert all(truth[v] <= c <= truth[v] + slack for v, c in live)
            if len(truth) <= maintainer.capacity:  # no candidate was ever evicted
                assert same(live, self.function.compute(data)), name
        else:
            assert same(live, self.function.compute(data)), name


def check_regression(maintainer: Any, data: list[Any]) -> None:
    rows = [row for row in data if not any(is_na(v) for v in row)]
    assert maintainer.n_used == len(rows)
    if len(rows) <= 3:
        with pytest.raises(StatisticsError):
            maintainer.value
        return
    design = np.array([[1.0, *row[1:]] for row in rows])
    try:
        live = maintainer.value
    except StatisticsError:  # collinear draw: lstsq agrees it is rank-deficient
        assert np.linalg.matrix_rank(design) < 3
        return
    expected = np.linalg.lstsq(design, np.array([row[0] for row in rows]), rcond=None)[0]
    assert live[3:] == pytest.approx(list(expected), rel=1e-7, abs=1e-7)
    # ... and the maintained tuple is the row's own batch evaluator's.
    assert same(live, FunctionRegistry().get("ols_model").compute(*zip(*data)))


def subjects() -> dict[str, Subject]:
    registry = FunctionRegistry()
    names = [n for n in registry.names() if registry.get(n).is_incremental]
    names += ["quantile_25", "quantile_90", "heavy_hitters_3"]
    found: dict[str, Subject] = {f"registry:{n}": Registered(n) for n in names}
    found["model:ols"] = Registered(
        "ols_model", bare=lambda: IncrementalLinearRegression(k=2)
    )
    return found


SUBJECTS = subjects()


def mergeable(subject: Subject) -> bool:
    try:
        subject.make(list).partial_state()
    except NotIncrementallyComputable:
        return False
    return True


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_any_interleaving_equals_batch_compute(name: str, seed: int) -> None:
    subject = SUBJECTS[name]
    rng = random.Random(seed)
    # Odd seeds never leave the positive reals, so the geometric mean is
    # checked on defined values as well as on its NA domain.
    lo = 1 if seed % 2 else -20
    data = [subject.draw(rng, lo) for _ in range(rng.choice((0, 1, 12, 30)))]
    # The provider contract: data changes first, then the maintainer hears.
    maintainer = subject.make(lambda: list(data))
    subject.check(maintainer, data)
    operations = ["add", "remove", "delta"] + (["merge"] if mergeable(subject) else [])

    def take(count: int) -> list[Any]:
        return [data.pop(rng.randrange(len(data))) for _ in range(min(count, len(data)))]

    for _ in range(STEPS):
        operation = rng.choice(operations)
        fresh = [subject.draw(rng, lo) for _ in range(rng.randint(1, 5))]
        if operation == "add":
            data.extend(fresh)
            maintainer.fold(fresh)
        elif operation == "remove":
            maintainer.fold(take(rng.randint(1, 4)), -1)
        elif operation == "merge":
            sibling = subject.make(lambda: fresh)
            data.extend(fresh)
            maintainer.merge_partial(sibling.partial_state())
        else:
            deletes = take(rng.randint(0, 2))
            updates = []
            for new in fresh[:2]:
                if data:
                    index = rng.randrange(len(data))
                    updates.append((data[index], new))
                    data[index] = new
            data.extend(fresh[2:])
            delta = Delta(inserts=fresh[2:], deletes=deletes, updates=updates)
            maintainer.apply_batch((delta,))
        subject.check(maintainer, data)
    # ... and back down to the empty state.
    maintainer.fold(take(len(data)), -1)
    subject.check(maintainer, data)


EXACT = sorted(
    name
    for name in SUBJECTS
    if name.split(":")[1]
    in {"count", "na_count", "sum", "mean", "var", "std", "min", "max",
        "rms", "skewness", "cv", "ols", "ols_model"}
)


@pytest.mark.parametrize("name", EXACT)
def test_removing_more_than_tracked_raises(name: str) -> None:
    """One value in, two out: loud in every exact maintainer, never -1."""
    subject = SUBJECTS[name]
    maintainer = subject.make(lambda: [subject.one])
    with pytest.raises(StatisticsError):
        maintainer.fold([subject.one, subject.one], -1)
