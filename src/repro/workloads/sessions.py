"""Analysis-session workload generators.

The paper's cost model for the Summary Database rests on how analyses
behave: "during the lifetime of an analysis, the statistician may execute
an operation, such as median, repeatedly on the same data set" (SS2.3), and
analyses interleave long exploratory/confirmatory phases with occasional
updates (SS2.2).  These generators produce query/update event streams with
Zipf-skewed (function, attribute) popularity and a configurable update
fraction, which is what the claims tests E1 and E9 (``tests/claims/``)
replay.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import SamplingError


class EventKind(enum.Enum):
    """What one workload event asks the session to do."""

    QUERY = "query"
    UPDATE = "update"


@dataclass(frozen=True)
class SessionEvent:
    """One step of a simulated analysis."""

    kind: EventKind
    function: str = ""
    attribute: str = ""
    row: int = 0
    magnitude: float = 0.0


DEFAULT_FUNCTIONS = (
    "min",
    "max",
    "mean",
    "std",
    "median",
    "count",
    "quantile_5",
    "quantile_95",
    "unique_count",
)


def _zipf_weights(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


class SessionGenerator:
    """Seeded stream of query/update events with temporal locality.

    Parameters
    ----------
    attributes:
        Attribute names the analysis touches.
    functions:
        Function pool ((function, attribute) pairs are ranked and weighted
        by a Zipf law of exponent ``zipf_s`` — real analyses hammer a few
        statistics).
    update_fraction:
        Probability that an event is a point update instead of a query.
    n_rows:
        Row count of the target view, for choosing update positions.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        functions: Sequence[str] = DEFAULT_FUNCTIONS,
        zipf_s: float = 1.1,
        update_fraction: float = 0.0,
        n_rows: int = 1000,
        seed: int = 0,
    ) -> None:
        if not attributes:
            raise SamplingError("at least one attribute is required")
        if not 0.0 <= update_fraction < 1.0:
            raise SamplingError(
                f"update_fraction must be in [0, 1), got {update_fraction}"
            )
        self.attributes = list(attributes)
        self.functions = list(functions)
        self.update_fraction = update_fraction
        self.n_rows = n_rows
        self._rng = random.Random(seed)
        pairs = [
            (fn, attr) for attr in self.attributes for fn in self.functions
        ]
        self._rng.shuffle(pairs)
        self._pairs = pairs
        self._weights = _zipf_weights(len(pairs), zipf_s)

    def events(self, count: int) -> Iterator[SessionEvent]:
        """Generate ``count`` events."""
        for _ in range(count):
            if self._rng.random() < self.update_fraction:
                yield SessionEvent(
                    kind=EventKind.UPDATE,
                    attribute=self._rng.choice(self.attributes),
                    row=self._rng.randrange(self.n_rows),
                    magnitude=self._rng.gauss(0, 1),
                )
            else:
                fn, attr = self._rng.choices(self._pairs, weights=self._weights)[0]
                yield SessionEvent(kind=EventKind.QUERY, function=fn, attribute=attr)

