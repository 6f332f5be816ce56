"""Derived-column maintenance rules (paper SS3.2).

The Management Database stores "rules that describe how derived data is to
be updated when the data upon which they are based are changed".  The paper
gives the two archetypes:

* **local** — "the sum of three attributes, or the logarithm of some
  attribute": the derived value depends only on values in the same row, so
  a point update recomputes exactly one cell; and
* **global** — regression residuals: "updating even a single value in the
  attribute upon which the residuals depend requires regeneration of the
  entire vector (since the model may change)"; the rule either regenerates
  immediately or merely marks the vector out of date.

:class:`LocalDerivation` and :class:`GlobalDerivation` implement these, and
:class:`DerivedColumnManager` dispatches base-column changes to every
dependent derivation, counting cell recomputations vs vector regenerations
for benchmark E11.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.errors import RuleError
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import NA, DataType

if TYPE_CHECKING:
    # Annotations only: the SQL aggregate table (relational.aggregates)
    # imports this package for its partial states, so at run time the
    # package may depend on relational's leaf modules alone.
    from repro.relational.expressions import Expr
    from repro.relational.relation import Relation


class DerivationKind(enum.Enum):
    """Whether an update's effect is row-local or vector-global."""

    LOCAL = "local"
    GLOBAL = "global"


class RefreshMode(enum.Enum):
    """For global derivations: regenerate eagerly or mark stale."""

    EAGER = "eager"
    MARK_STALE = "mark_stale"


@dataclass
class DerivationStats:
    """Counters of maintenance work done for one derivation."""

    cell_recomputes: int = 0
    vector_regenerations: int = 0
    stale_markings: int = 0


class Derivation:
    """Base class: a derived column and how to maintain it."""

    name: str
    depends_on: frozenset[str]
    kind: DerivationKind

    def initial_values(self, relation: Relation) -> list[Any]:
        """Compute the full column for a freshly added derived attribute."""
        raise NotImplementedError

    def on_base_change(self, relation: Relation, rows: Sequence[int]) -> None:
        """React to changes in the listed rows of a base attribute."""
        raise NotImplementedError


class LocalDerivation(Derivation):
    """A row-local derived column defined by an expression.

    Examples (from the paper): ``col("A") + col("B") + col("C")`` or
    ``func("log", col("X"))``.
    """

    def __init__(self, name: str, expr: Expr) -> None:
        self.name = name
        self.expr = expr
        self.depends_on = frozenset(expr.columns())
        self.kind = DerivationKind.LOCAL
        self.stats = DerivationStats()
        if not self.depends_on:
            raise RuleError(f"derivation {name!r} depends on no columns")

    def initial_values(self, relation: Relation) -> list[Any]:
        fn = self.expr.bind(relation.schema)
        return [fn(row) for row in relation]

    def on_base_change(self, relation: Relation, rows: Sequence[int]) -> None:
        fn = self.expr.bind(relation.schema)
        for row_index in rows:
            new_value = fn(relation.row(row_index))
            relation.set_value(row_index, self.name, new_value)
            self.stats.cell_recomputes += 1


class GlobalDerivation(Derivation):
    """A whole-vector derived column (e.g. regression residuals).

    ``compute`` receives the relation and returns the full column.  With
    ``RefreshMode.MARK_STALE`` the rule only flags the column; a later
    :meth:`refresh` call (or a read through
    :meth:`DerivedColumnManager.read_column`) regenerates it.
    """

    def __init__(
        self,
        name: str,
        depends_on: Sequence[str],
        compute: Callable[[Relation], list[Any]],
        mode: RefreshMode = RefreshMode.EAGER,
    ) -> None:
        self.name = name
        self.depends_on = frozenset(depends_on)
        self.compute = compute
        self.mode = mode
        self.kind = DerivationKind.GLOBAL
        self.stale = False
        self.stats = DerivationStats()
        if not self.depends_on:
            raise RuleError(f"derivation {name!r} depends on no columns")

    def initial_values(self, relation: Relation) -> list[Any]:
        return self.compute(relation)

    def on_base_change(self, relation: Relation, rows: Sequence[int]) -> None:
        if self.mode is RefreshMode.EAGER:
            self.refresh(relation)
        else:
            self.stale = True
            self.stats.stale_markings += 1

    def refresh(self, relation: Relation) -> None:
        """Regenerate the whole vector now."""
        values = self.compute(relation)
        for row_index, value in enumerate(values):
            relation.set_value(row_index, self.name, value)
        self.stale = False
        self.stats.vector_regenerations += 1


class DerivedColumnManager:
    """Attaches derived columns to a relation and propagates base changes."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._derivations: dict[str, Derivation] = {}

    @property
    def names(self) -> list[str]:
        """Registered derived column names."""
        return sorted(self._derivations)

    def derivation(self, name: str) -> Derivation:
        """Look up a derivation by column name."""
        try:
            return self._derivations[name]
        except KeyError:
            raise RuleError(f"no derived column {name!r}") from None

    def add(self, derivation: Derivation, dtype: DataType = DataType.FLOAT) -> None:
        """Add the derived column to the relation and register its rule."""
        if derivation.name in self._derivations:
            raise RuleError(f"derived column {derivation.name!r} already exists")
        for base in derivation.depends_on:
            self.relation.schema.index_of(base)  # validate
        attribute = Attribute(derivation.name, dtype, AttributeRole.DERIVED)
        self.relation.append_column(attribute, derivation.initial_values(self.relation))
        self._derivations[derivation.name] = derivation

    def on_base_change(self, attr: str, rows: Sequence[int]) -> list[str]:
        """Propagate a change of ``attr`` in ``rows`` to every dependent

        derivation (including transitive dependencies through other derived
        columns).  Returns the derived column names touched."""
        touched: list[str] = []
        frontier = [attr]
        seen: set[str] = set()
        while frontier:
            base = frontier.pop()
            for name, derivation in self._derivations.items():
                if base in derivation.depends_on and name not in seen:
                    seen.add(name)
                    derivation.on_base_change(self.relation, rows)
                    touched.append(name)
                    frontier.append(name)
        return touched

    def read_column(self, name: str) -> list[Any]:
        """Read a derived column, refreshing it first if marked stale."""
        derivation = self.derivation(name)
        if isinstance(derivation, GlobalDerivation) and derivation.stale:
            derivation.refresh(self.relation)
        return self.relation.column(name)
