"""Secondary attribute indexes for selective queries and predicate updates.

The paper wants materialized views to grow "auxiliary storage structures
such as indices" when reference patterns justify them (SS2.3) — the
:class:`~repro.views.advisor.AccessAdvisor` recommends them, and this
module provides them: an :class:`AttributeIndex` maps attribute values to
row positions (hash part) and keeps a sorted key list for range predicates
(the informational queries of SS2.6 and the cleaning predicates of SS3.1,
where indexes beat scans).

An index belongs to the relation it indexes:
:meth:`~repro.relational.relation.Relation.index_on` builds it on first use
and the relation's own writes keep it exact, so the planner (for attributes
registered in the catalog) and the update path
(:func:`repro.views.updates.matching_rows`) read the same object, through
the same :func:`index_access`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.relational.expressions import And, Between, Col, Compare, Const, Expr
from repro.relational.schema import Schema
from repro.relational.types import is_na

if TYPE_CHECKING:
    from repro.relational.relation import Relation

_OPEN: Any = object()  # an absent range bound


class AttributeIndex:
    """value -> row positions of one attribute, with sorted keys for ranges.

    NA and NaN cells are not indexed: no equality or range predicate
    selects them.  A value one row holds maps to that row number itself, a
    shared value to the ascending list of its rows, so a unique key column
    (the usual target of a point update) costs no list per row.
    """

    def __init__(self, attribute: str, values: Iterable[Any]) -> None:
        self.attribute = attribute
        self._buckets: dict[Any, int | list[int]] = {}
        # Built by the first range query, then kept ordered as buckets come
        # and go; ``None`` again if the keys stop being mutually comparable.
        self._sorted_keys: list[Any] | None = None
        for row, value in enumerate(values):
            self.add(row, value)

    @classmethod
    def build(cls, relation: Relation, attribute: str) -> "AttributeIndex":
        """The relation's own maintained index on ``attribute``."""
        return relation.index_on(attribute)

    @property
    def distinct_values(self) -> int:
        """Number of indexed distinct values."""
        return len(self._buckets)

    def add(self, row: int, value: Any) -> None:
        """Index ``row`` as holding ``value`` (the owning relation's call)."""
        if is_na(value):
            return
        held = self._buckets.get(value)
        if held is None:
            self._buckets[value] = row
            if self._sorted_keys is not None:
                try:
                    insort(self._sorted_keys, value)
                except TypeError:
                    self._sorted_keys = None
        elif isinstance(held, list):
            insort(held, row)
        else:
            self._buckets[value] = [held, row] if held < row else [row, held]

    def discard(self, row: int, value: Any) -> None:
        """Forget that ``row`` holds ``value``."""
        if is_na(value):
            return
        held = self._buckets[value]
        if isinstance(held, list):
            del held[bisect_left(held, row)]
            if len(held) == 1:
                self._buckets[value] = held[0]
            return
        del self._buckets[value]
        if self._sorted_keys is not None:
            del self._sorted_keys[bisect_left(self._sorted_keys, value)]

    def lookup(self, value: Any) -> list[int]:
        """Row positions holding exactly ``value``, in row order."""
        held = self._buckets.get(value)
        if held is None:
            return []
        return list(held) if isinstance(held, list) else [held]

    def range(
        self, lo: Any = _OPEN, hi: Any = _OPEN, lo_open: bool = False, hi_open: bool = False
    ) -> list[int]:
        """Row positions with lo <= value <= hi, in row order.

        An omitted bound is unbounded, an ``_open`` one excludes the bound
        itself.  Raises :class:`TypeError` when a bound, or the keys among
        themselves, cannot be ordered.
        """
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._buckets)
        keys = self._sorted_keys
        below = bisect_right if lo_open else bisect_left
        above = bisect_left if hi_open else bisect_right
        start = 0 if lo is _OPEN else below(keys, lo)
        end = len(keys) if hi is _OPEN else above(keys, hi)
        return sorted(row for key in keys[start:end] for row in self.lookup(key))

    def stale_for(self, relation: Relation) -> bool:
        """Whether this object is not (or no longer) ``relation``'s index."""
        return relation.indexes.get(self.attribute) is not self


class IndexScan:
    """Fetch rows through an index, then apply a residual predicate.

    Exposes the same schema+iteration protocol as every other operator.
    ``rows_fetched`` records how many rows the index delivered — the
    quantity an index exists to shrink.
    """

    def __init__(
        self,
        relation: Relation,
        index: AttributeIndex,
        positions: Sequence[int],
        residual: Expr | None = None,
    ) -> None:
        self.relation = relation
        self.index = index
        self.positions = list(positions)
        self.residual = residual
        self.schema: Schema = relation.schema
        self.rows_fetched = len(self.positions)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        test = self.residual.bind(self.schema) if self.residual is not None else None
        for position in self.positions:
            row = self.relation.row(position)
            if test is None or test(row):
                yield row

    def rows(self) -> list[tuple[Any, ...]]:
        """Evaluate into a list."""
        return list(iter(self))


def conjuncts(predicate: Expr) -> list[Expr]:
    """The operands of a (nested) conjunction, left to right."""
    if isinstance(predicate, And):
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    return [predicate]


def combine(predicates: Sequence[Expr]) -> Expr | None:
    """The conjunction of ``predicates``; ``None`` for none."""
    combined: Expr | None = None
    for predicate in predicates:
        combined = predicate if combined is None else And(combined, predicate)
    return combined


#: comparison -> (the same comparison with its operands swapped, how an
#: index answers ``col <op> constant``).
_COMPARISONS: dict[str, tuple[str, Callable[[AttributeIndex, Any], list[int]]]] = {
    "=": ("=", AttributeIndex.lookup),
    "<": (">", lambda index, c: index.range(hi=c, hi_open=True)),
    "<=": (">=", lambda index, c: index.range(hi=c)),
    ">": ("<", lambda index, c: index.range(lo=c, lo_open=True)),
    ">=": ("<=", lambda index, c: index.range(lo=c)),
}


def match_indexable_conjunct(
    conjunct: Expr, index_for: Callable[[str], AttributeIndex | None]
) -> tuple[AttributeIndex, list[int]] | None:
    """(index, ascending row positions) when an index answers ``conjunct``

    exactly as a scan of the relation would, else ``None``.

    Answerable: ``col = const``, ``col < <= > >= const`` (either operand
    order) and ``col BETWEEN lo AND hi`` where ``index_for(col)`` is an
    index.  The rest is the scan's to decide, errors included: other nodes
    and operands, NA/NaN bounds, and whatever raises :class:`TypeError` on
    the way (an unhashable constant or cell, a bound the keys cannot be
    ordered against).
    """
    if isinstance(conjunct, Compare) and conjunct.op in _COMPARISONS:
        left, right = conjunct.left, conjunct.right
        flipped, answer = _COMPARISONS[conjunct.op]
        if isinstance(left, Const):
            left, right, answer = right, left, _COMPARISONS[flipped][1]
        if not (isinstance(left, Col) and isinstance(right, Const)):
            return None
        column, bounds = left.name, (right.value,)
    elif isinstance(conjunct, Between) and isinstance(conjunct.child, Col):
        column, bounds = conjunct.child.name, (conjunct.lo, conjunct.hi)
        answer = AttributeIndex.range
    else:
        return None
    if any(is_na(bound) or isinstance(bound, Expr) for bound in bounds):
        return None
    try:
        index = index_for(column)
        return None if index is None else (index, answer(index, *bounds))
    except TypeError:
        return None


def index_access(
    predicate: Expr, index_for: Callable[[str], AttributeIndex | None]
) -> tuple[AttributeIndex, list[int], Expr | None] | None:
    """Serve the first indexable conjunct of ``predicate`` from its index:

    (index, the rows it delivers, the residual predicate to evaluate on
    those rows only), or ``None`` when no conjunct is indexable."""
    parts = conjuncts(predicate)
    for position, conjunct in enumerate(parts):
        matched = match_indexable_conjunct(conjunct, index_for)
        if matched is not None:
            return *matched, combine(parts[:position] + parts[position + 1 :])
    return None
