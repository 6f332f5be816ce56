"""A seeded stream of analyst actions, shared by the suites that hold
maintenance to re-evaluation (``tests/core/test_session.py``) and a
recovered system to the one that ran (``tests/durability/test_live_replay.py``).

The stream is made of the actions a multi-attribute entry finds hardest:
predicate updates that assign two attributes at once (a constant and an
expression over the row), point bursts that name one row twice, NA marks
(and later writes over the NA cells), and undos of one to three operations.
Steps are plain tuples; :func:`apply` runs one against a session.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Sequence

from repro.relational.expressions import col


def action_stream(
    rng: random.Random, attributes: Sequence[str], rows: int, steps: int, key: str = "id"
) -> Iterator[tuple[Any, ...]]:
    """``steps`` actions writing the float ``attributes`` of a ``rows``-row

    view whose ``key`` attribute numbers the rows and is never written."""

    def value() -> float:
        return round(rng.uniform(-60.0, 60.0), 3)

    for _ in range(steps):
        kind = rng.choice(("update", "update", "cells", "cells", "invalid", "undo"))
        if kind == "update":
            # At most a third of the rows, so no attribute turns constant.
            lo = rng.randrange(rows)
            rows_named = (col(key) >= lo) & (col(key) < lo + rng.randint(1, rows // 3))
            constant, scaled = rng.sample(list(attributes), 2)
            yield "update", rows_named, {constant: value(), scaled: col(scaled) * 0.5 + 1.0}
        elif kind == "cells":
            first, second = rng.sample(range(rows), 2)
            burst = [(first, value()), (second, value()), (first, value())]
            yield "cells", rng.choice(attributes), burst
        elif kind == "invalid":
            yield "invalid", rng.choice(attributes), None, rng.sample(range(rows), 2)
        else:
            yield "undo", rng.randint(1, 3)


def apply(session: Any, step: tuple[Any, ...]) -> Any:
    """Run one step; an undo reaches no further back than the history."""
    kind = step[0]
    if kind == "update":
        return session.update(step[1], step[2])
    if kind == "cells":
        return session.update_cells(step[1], step[2])
    if kind == "invalid":
        return session.mark_invalid(step[1], predicate=step[2], rows=step[3])
    count = min(step[1], len(session.view.history))
    return session.undo(count) if count else None
