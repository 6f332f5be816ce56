"""Cross tabulations (contingency tables).

"A chi-squared test may be applied to a cross-tabulation of data according
to two attributes to see if the attributes depend on each other (e.g. is
the proportion of people who live past 40 dependent on race?)" — paper
SS2.2.  :class:`CrossTab` builds the table (optionally weighted, e.g. by
POPULATION for pre-aggregated census rows) and feeds
:func:`repro.stats.tests_stat.chi_squared_independence`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.errors import StatisticsError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import DataType, is_na


class CrossTab:
    """A two-way contingency table with margins."""

    def __init__(
        self,
        row_labels: Sequence[Any],
        col_labels: Sequence[Any],
        table: np.ndarray,
        row_name: str = "rows",
        col_name: str = "cols",
    ) -> None:
        if table.shape != (len(row_labels), len(col_labels)):
            raise StatisticsError(
                f"table shape {table.shape} does not match labels "
                f"({len(row_labels)}, {len(col_labels)})"
            )
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.table = table.astype(float)
        self.row_name = row_name
        self.col_name = col_name

    # -- margins ------------------------------------------------------------

    @property
    def row_totals(self) -> np.ndarray:
        """Row margins."""
        return self.table.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        """Column margins."""
        return self.table.sum(axis=0)

    @property
    def grand_total(self) -> float:
        """Sum of all cells."""
        return float(self.table.sum())

    def expected(self) -> np.ndarray:
        """Expected counts under independence."""
        total = self.grand_total
        if total == 0:
            raise StatisticsError("empty cross tabulation")
        return np.outer(self.row_totals, self.col_totals) / total

    # -- presentation ----------------------------------------------------------

    def to_relation(self, name: str = "crosstab") -> Relation:
        """Flatten into a (row, col, count) relation."""
        schema = Schema(
            [
                Attribute(self.row_name, DataType.STR, AttributeRole.CATEGORY),
                Attribute(self.col_name, DataType.STR, AttributeRole.CATEGORY),
                Attribute("count", DataType.FLOAT, AttributeRole.MEASURE),
            ]
        )
        rows = [
            (str(r), str(c), float(self.table[i, j]))
            for i, r in enumerate(self.row_labels)
            for j, c in enumerate(self.col_labels)
        ]
        return Relation(name, schema, rows)

    def render(self) -> str:
        """Fixed-width table with margins."""
        headers = [str(c) for c in self.col_labels] + ["TOTAL"]
        body_rows = []
        for i, label in enumerate(self.row_labels):
            cells = [f"{self.table[i, j]:g}" for j in range(len(self.col_labels))]
            cells.append(f"{self.row_totals[i]:g}")
            body_rows.append([str(label)] + cells)
        totals = [f"{t:g}" for t in self.col_totals] + [f"{self.grand_total:g}"]
        body_rows.append(["TOTAL"] + totals)
        first_width = max(len(r[0]) for r in body_rows)
        widths = [
            max(len(headers[j]), *(len(r[j + 1]) for r in body_rows))
            for j in range(len(headers))
        ]
        lines = [
            " " * first_width
            + "  "
            + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        ]
        for row in body_rows:
            lines.append(
                row[0].ljust(first_width)
                + "  "
                + "  ".join(c.rjust(w) for c, w in zip(row[1:], widths))
            )
        return "\n".join(lines)


def crosstab(
    pairs: Iterable[tuple[Any, Any]] | None = None,
    weights: Iterable[Any] | None = None,
    relation: Relation | None = None,
    row_attr: str | None = None,
    col_attr: str | None = None,
    weight_attr: str | None = None,
) -> CrossTab:
    """Build a cross tabulation.

    Either pass ``pairs`` (+ optional ``weights``), or a ``relation`` with
    ``row_attr``/``col_attr`` (+ optional ``weight_attr``).  Pairs with NA
    on either side are skipped.
    """
    if relation is not None:
        if not row_attr or not col_attr:
            raise StatisticsError("relation form requires row_attr and col_attr")
        rows = relation.column(row_attr)
        cols = relation.column(col_attr)
        pairs = list(zip(rows, cols))
        weights = relation.column(weight_attr) if weight_attr else None
        row_name, col_name = row_attr, col_attr
    else:
        if pairs is None:
            raise StatisticsError("crosstab needs pairs or a relation")
        pairs = list(pairs)
        row_name, col_name = "rows", "cols"
    weight_list = list(weights) if weights is not None else [1.0] * len(pairs)
    if len(weight_list) != len(pairs):
        raise StatisticsError("weights length must match pairs length")
    cells: dict[tuple[Any, Any], float] = {}
    row_seen: dict[Any, None] = {}
    col_seen: dict[Any, None] = {}
    for (r, c), w in zip(pairs, weight_list):
        if is_na(r) or is_na(c) or is_na(w):
            continue
        row_seen.setdefault(r, None)
        col_seen.setdefault(c, None)
        cells[(r, c)] = cells.get((r, c), 0.0) + float(w)
    row_labels = sorted(row_seen, key=repr)
    col_labels = sorted(col_seen, key=repr)
    table = np.zeros((len(row_labels), len(col_labels)))
    r_index = {r: i for i, r in enumerate(row_labels)}
    c_index = {c: j for j, c in enumerate(col_labels)}
    for (r, c), w in cells.items():
        table[r_index[r], c_index[c]] = w
    return CrossTab(row_labels, col_labels, table, row_name=row_name, col_name=col_name)


def crosstab_summary(
    rows: Sequence[Any], cols: Sequence[Any], weights: Sequence[Any] | None = None
) -> tuple[list[str], list[str], list[float]]:
    """A cross tabulation of two columns as the Summary Database stores it:

    ``(row labels, column labels, cells)``, labels stringified, the table
    flattened row-major."""
    built = crosstab(zip(rows, cols), weights)
    return (
        [str(r) for r in built.row_labels],
        [str(c) for c in built.col_labels],
        [float(v) for v in built.table.ravel()],
    )


def crosstab_from_summary(
    row_attr: str, col_attr: str, value: tuple[list[str], list[str], list[float]]
) -> CrossTab:
    """Rebuild the :class:`CrossTab` from :func:`crosstab_summary`'s tuple."""
    row_labels, col_labels, cells = value
    table = np.array(cells, dtype=float).reshape(len(row_labels), len(col_labels))
    return CrossTab(row_labels, col_labels, table, row_name=row_attr, col_name=col_attr)
