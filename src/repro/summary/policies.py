"""Consistency policies for cached results.

"There will be other cases when the user will require the values in the
Summary Database to accurately reflect the state of the view.  The user
should have the capability of communicating his wishes regarding the
desired accuracy ... Whether or not a value in the Summary Database must be
precise at all times, the DBMS must be able to periodically bring it up to
date" (SS3.2).

Four policies cover the design space the paper sketches:

* :class:`PrecisePolicy` — every update is applied immediately through the
  entry's rule (incremental where possible, regeneration otherwise);
  lookups always see exact values.
* :class:`InvalidatePolicy` — the SS4.3 fallback: updates mark entries
  stale; the next lookup recomputes.
* :class:`PeriodicPolicy(k)` — refresh after every k-th pending update
  ("given the user's initial wishes regarding the frequency of the
  updates"); lookups in between may serve slightly stale values.
* :class:`TolerantPolicy(max_staleness)` — serve stale values while no
  more than ``max_staleness`` updates are pending ("a change of one or two
  values has very little effect on the value of the median"), recomputing
  only past the bound.

A policy decides for every cached entry alike — scalar, pair, table or
model: the propagator hands it the entry's Management-Database rule and a
delta of the entry's own arity, so whether a fitted model is maintained per
update or refitted on demand is the analyst's wish, not a property of the
model.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.errors import AccuracyError
from repro.incremental.differencing import Delta
from repro.metadata.rules import RuleKind, RuleOutcome, UpdateRule
from repro.summary.entries import SummaryEntry
from repro.summary.summarydb import SummaryDatabase

ValuesProvider = Callable[[], Iterable[Any]]
Recompute = Callable[[SummaryEntry], Any]


class ConsistencyPolicy:
    """Strategy pair: what to do on update, what to do on lookup."""

    name: str = "abstract"

    def on_update(
        self,
        db: SummaryDatabase,
        entry: SummaryEntry,
        delta: Delta,
        rule: UpdateRule,
        values_provider: ValuesProvider,
    ) -> RuleOutcome:
        """React to a delta on the entry's attribute(s): (old, new) values

        for a one-attribute entry, (old row, new row) tuples for the rest."""
        raise NotImplementedError

    def on_lookup(
        self,
        db: SummaryDatabase,
        entry: SummaryEntry,
        recompute: Recompute,
    ) -> tuple[Any, bool]:
        """Produce the value to serve; returns (value, was_stale).

        The default is the exact policies': recompute a stale entry first."""
        if entry.stale:
            recompute(entry)
            db.stats.recomputations += 1
        return entry.result, False

    def _apply_rule(
        self,
        db: SummaryDatabase,
        entry: SummaryEntry,
        delta: Delta,
        rule: UpdateRule,
        values_provider: ValuesProvider,
    ) -> RuleOutcome:
        outcome = rule.apply(entry, delta, values_provider)
        if outcome.incremental_changes:
            db.stats.incremental_updates += 1
        if outcome.recomputed:
            db.stats.recomputations += 1
        if outcome.marked_stale:
            db.stats.invalidations += 1
        return outcome


class PrecisePolicy(ConsistencyPolicy):
    """Always exact: apply the rule on every update."""

    name = "precise"

    def on_update(self, db, entry, delta, rule, values_provider):  # noqa: D102
        outcome = self._apply_rule(db, entry, delta, rule, values_provider)
        if not outcome.marked_stale:
            entry.pending_updates = 0
        else:
            entry.pending_updates += delta.size
        return outcome


class InvalidatePolicy(ConsistencyPolicy):
    """The SS4.3 fallback: invalidate on update, recompute on demand."""

    name = "invalidate"

    def on_update(self, db, entry, delta, rule, values_provider):  # noqa: D102
        if not entry.stale:
            entry.stale = True
            db.stats.invalidations += 1
        entry.pending_updates += delta.size
        return RuleOutcome(kind=RuleKind.INVALIDATE, marked_stale=True)


class PeriodicPolicy(ConsistencyPolicy):
    """Refresh after every ``period`` pending updates."""

    name = "periodic"

    def __init__(self, period: int = 10) -> None:
        if period < 1:
            raise AccuracyError(f"period must be >= 1, got {period}")
        self.period = period

    def on_update(self, db, entry, delta, rule, values_provider):  # noqa: D102
        if rule.kind is RuleKind.INCREMENTAL:
            # The maintainer must see every delta to stay exact; periodic
            # batching only helps rules that pay a full recomputation.
            outcome = self._apply_rule(db, entry, delta, rule, values_provider)
            entry.pending_updates = 0
            return outcome
        entry.pending_updates += delta.size
        if entry.pending_updates >= self.period:
            # Regeneration reads the current data, so one application
            # covers every pending update at once.
            outcome = self._apply_rule(db, entry, delta, rule, values_provider)
            if not outcome.marked_stale:
                entry.pending_updates = 0
            return outcome
        return RuleOutcome(kind=rule.kind)

    def on_lookup(self, db, entry, recompute):  # noqa: D102
        if not entry.stale and entry.pending_updates > 0:
            db.stats.stale_served += 1
            return entry.result, True
        return super().on_lookup(db, entry, recompute)


class TolerantPolicy(ConsistencyPolicy):
    """Serve stale values while pending updates stay within a bound."""

    name = "tolerant"

    def __init__(self, max_staleness: int = 5) -> None:
        if max_staleness < 0:
            raise AccuracyError(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        self.max_staleness = max_staleness

    def on_update(self, db, entry, delta, rule, values_provider):  # noqa: D102
        entry.pending_updates += delta.size
        entry.stale = True
        return RuleOutcome(kind=RuleKind.INVALIDATE, marked_stale=True)

    def on_lookup(self, db, entry, recompute):  # noqa: D102
        if entry.pending_updates <= self.max_staleness and not _never_computed(entry):
            if entry.pending_updates > 0:
                db.stats.stale_served += 1
                return entry.result, True
            return entry.result, False
        recompute(entry)
        db.stats.recomputations += 1
        return entry.result, False


def _never_computed(entry: SummaryEntry) -> bool:
    return entry.result is None


POLICY_NAMES: dict[str, Callable[[], ConsistencyPolicy]] = {
    "precise": PrecisePolicy,
    "invalidate": InvalidatePolicy,
    "periodic": PeriodicPolicy,
    "tolerant": TolerantPolicy,
}


def make_policy(name: str, **kwargs: Any) -> ConsistencyPolicy:
    """Instantiate a policy by name."""
    try:
        factory = POLICY_NAMES[name]
    except KeyError:
        raise AccuracyError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_NAMES)}"
        ) from None
    return factory(**kwargs)  # type: ignore[call-arg]
