"""Update rules for cached results (the Management Database's rule store).

"In addition to rules defining how a function is to be recomputed we
propose to store rules that describe how derived data is to be updated"
(SS3.2).  A rule says what happens to one Summary Database entry when an
attribute it summarizes changes — whatever the entry's arity: the delta
holds (old, new) values and the provider yields values for a one-attribute
entry, (old row, new row) tuples and row tuples over the key's attributes
for an n-attribute one (the catalogue's convention):

* :class:`IncrementalRule` — apply the finite-differencing delta to the
  entry's live maintainer (SS4.2);
* :class:`RegenerateRule` — recompute from the data immediately;
* :class:`InvalidateRule` — the SS4.3 fallback: "after each update
  operation all the values associated with the updated attribute will be
  marked as invalid.  When required they will be regenerated using the
  original algorithm."

:class:`RuleRepository` wires function names to rule kinds, defaulting to
incremental where the registry offers a maintainer and invalidation
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.errors import RuleError
from repro.incremental.differencing import Delta
from repro.metadata.functions import FunctionRegistry, StatFunction

if TYPE_CHECKING:  # runtime import would cycle through repro.summary
    from repro.summary.entries import SummaryEntry

#: Zero-argument provider of an entry's current observations: one
#: attribute's values, or row tuples over the attributes of its key.
ValuesProvider = Callable[[], Iterable[Any]]


class RuleKind(enum.Enum):
    """How a cached result reacts to an update of its inputs."""

    INCREMENTAL = "incremental"
    REGENERATE = "regenerate"
    INVALIDATE = "invalidate"


@dataclass
class RuleOutcome:
    """What applying a rule to one entry actually did."""

    kind: RuleKind
    recomputed: bool = False
    incremental_changes: int = 0
    marked_stale: bool = False


class UpdateRule:
    """Base class: reaction of one cached entry to a delta."""

    kind: RuleKind

    def apply(self, entry: "SummaryEntry", delta: Delta, values_provider: ValuesProvider) -> RuleOutcome:
        """Bring ``entry`` in line with ``delta`` (or mark it stale)."""
        raise NotImplementedError


class IncrementalRule(UpdateRule):
    """Maintain via the entry's live incremental computation."""

    kind = RuleKind.INCREMENTAL

    def __init__(self, function: StatFunction) -> None:
        if not function.is_incremental:
            raise RuleError(
                f"function {function.name!r} has no incremental form; "
                "use RegenerateRule or InvalidateRule"
            )
        self.function = function

    def apply(self, entry: "SummaryEntry", delta: Delta, values_provider: ValuesProvider) -> RuleOutcome:
        try:
            if entry.maintainer is None:
                # make_maintainer returns an initialized (or lazily
                # self-initializing) computation reflecting the *current*
                # data, which already includes this delta — do not apply it
                # twice.
                entry.maintainer = self.function.make_maintainer(values_provider)
                entry.result = entry.maintainer.value
                outcome = RuleOutcome(kind=self.kind, recomputed=True)
            else:
                entry.result = entry.maintainer.apply_batch((delta,))
                outcome = RuleOutcome(kind=self.kind, incremental_changes=delta.size)
        except Exception:
            # The delta does not match what the maintainer tracks (a
            # removal of a value it never saw, a mistyped cell, a design
            # gone rank-deficient).  The view has already changed and the
            # sweep must reach the remaining entries, whatever was raised:
            # drop the poisoned maintainer and fall back to SS4.3 — stale
            # now, recomputed on the next lookup, never silently wrong.
            entry.maintainer = None
            entry.stale = True
            return RuleOutcome(kind=self.kind, marked_stale=True)
        entry.stale = False
        return outcome


class RegenerateRule(UpdateRule):
    """Recompute the result from the data immediately."""

    kind = RuleKind.REGENERATE

    def __init__(self, function: StatFunction) -> None:
        self.function = function

    def apply(self, entry: "SummaryEntry", delta: Delta, values_provider: ValuesProvider) -> RuleOutcome:
        columns = [list(values_provider())]
        width = len(entry.key.attributes)
        if width > 1:  # row tuples: one column per attribute, in key order
            columns = [[row[i] for row in columns[0]] for i in range(width)]
        entry.result = self.function.compute(*columns)
        entry.stale = False
        return RuleOutcome(kind=self.kind, recomputed=True)


class InvalidateRule(UpdateRule):
    """Mark the entry stale; recomputation happens lazily on next lookup."""

    kind = RuleKind.INVALIDATE

    def __init__(self, function: StatFunction) -> None:
        self.function = function

    def apply(self, entry: "SummaryEntry", delta: Delta, values_provider: ValuesProvider) -> RuleOutcome:
        entry.stale = True
        return RuleOutcome(kind=self.kind, marked_stale=True)


class RuleRepository:
    """function name -> rule, with sensible defaults.

    The default wiring realizes the paper's architecture: functions with an
    incremental form (including the median's manual window scheme) get
    :class:`IncrementalRule`; everything else gets :class:`InvalidateRule`
    (the SS4.3 fallback).  ``force_mode`` overrides everything — benchmark
    E9 uses it to compare the three designs.
    """

    def __init__(
        self,
        registry: FunctionRegistry,
        force_mode: RuleKind | None = None,
    ) -> None:
        self.registry = registry
        self.force_mode = force_mode
        self._overrides: dict[str, RuleKind] = {}

    def set_rule(self, function_name: str, kind: RuleKind) -> None:
        """Pin a specific rule kind for one function."""
        self.registry.get(function_name)  # validate
        self._overrides[function_name] = kind

    def rule_for(self, function_name: str, kind: RuleKind | None = None) -> UpdateRule:
        """The rule governing entries of this function — or, given ``kind``,

        the one :meth:`set_rule` with that kind would make it."""
        function = self.registry.get(function_name)
        kind = kind or self.force_mode or self._overrides.get(function_name)
        if kind is None:
            kind = (
                RuleKind.INCREMENTAL
                if function.is_incremental
                else RuleKind.INVALIDATE
            )
        if kind is RuleKind.INCREMENTAL:
            if not function.is_incremental:
                # Forcing incremental on a non-differencable function falls
                # back to regeneration (the paper's alternative).
                return RegenerateRule(function)
            return IncrementalRule(function)
        if kind is RuleKind.REGENERATE:
            return RegenerateRule(function)
        return InvalidateRule(function)

    def describe(self) -> dict[str, str]:
        """function -> rule-kind table (what the Management DB would list)."""
        return {
            name: self.rule_for(name).kind.value for name in self.registry.names()
        }
