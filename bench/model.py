"""The benchmark's own model of a people view: numpy columns and an undo
stack.  Answers are recomputed from it, never from the program."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

import gen

COLUMN_INDEX = {name: i for i, name in enumerate(gen.PEOPLE_COLUMNS)}


class ViewModel:
    """The bench's own copy of one view: numpy columns (NaN = missing) plus
    the undo stack; answers are recomputed from it, never from the program."""

    def __init__(self, rows: list[tuple]) -> None:
        self.columns = {
            name: np.array(
                [math.nan if row[i] is None else float(row[i]) for row in rows], dtype=float
            )
            for name, i in COLUMN_INDEX.items()
            if name != "PERSON_ID"
        }
        self.history: list[tuple[str, int, float]] = []
        self.epochs = {name: 0 for name in self.columns}
        self._cache: dict[tuple[str, str, int], float] = {}

    def update(self, attribute: str, row: int, value: float) -> None:
        column = self.columns[attribute]
        self.history.append((attribute, row, column[row]))
        column[row] = value
        self.epochs[attribute] += 1

    def undo(self, count: int) -> int:
        if count > len(self.history):
            return 0
        for _ in range(count):
            attribute, row, old = self.history.pop()
            self.columns[attribute][row] = old
            self.epochs[attribute] += 1
        return count

    def answer(self, function: str, attribute: str) -> float:
        key = (function, attribute, self.epochs[attribute])
        if key not in self._cache:
            self._cache[key] = self._compute(function, self.columns[attribute])
        return self._cache[key]

    @staticmethod
    def _compute(function: str, column: np.ndarray) -> float:
        present = column[~np.isnan(column)]
        if function == "count":
            return float(present.size)
        if function == "na_count":
            return float(column.size - present.size)
        if function == "sum":
            return float(math.fsum(present))
        if function == "mean":
            return float(math.fsum(present) / present.size)
        if function == "var":
            return float(np.var(present, ddof=1))
        if function == "std":
            return float(np.std(present, ddof=1))
        if function == "min":
            return float(present.min())
        if function == "max":
            return float(present.max())
        if function == "median":
            return float(np.median(present))
        raise ValueError(f"the model has no definition of {function!r}")


def agrees(got: Any, want: float, epsilon: float | None = None) -> bool:
    """Exact up to float rounding of a different summation order, or inside
    the entry's stamped epsilon when it has one."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if epsilon:
        return abs(got - want) <= epsilon * max(1.0, abs(want))
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)




def lost_cells(view: Any, model: ViewModel) -> int:
    """Cells of a program-side view that differ from the model."""
    lost = 0
    for attribute, want in model.columns.items():
        got = np.array(
            [float(v) if isinstance(v, (int, float)) and v == v else math.nan
             for v in view.column(attribute)],
            dtype=float,
        )
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        lost += int((~same).sum())
    return lost
