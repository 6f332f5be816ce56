"""Update-stream generators.

Statistical databases are "relatively static" (SS3.2) — updates are point
corrections discovered during data checking and slow drift when new data
arrives.  These streams drive claim E3 (``tests/claims/``) and
``examples/incremental_maintenance.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import SamplingError
from repro.relational.types import NA


@dataclass(frozen=True)
class PointUpdate:
    """One cell correction: (row, new value)."""

    row: int
    value: object


def correction_stream(
    values: Sequence[float],
    count: int,
    noise_sd: float = 1.0,
    seed: int = 0,
) -> Iterator[PointUpdate]:
    """Point corrections near the existing values (typo fixes): the new

    value is the old plus Gaussian noise, so aggregates drift slowly — the
    regime where the median window rarely regenerates."""
    if count < 0:
        raise SamplingError(f"count must be non-negative, got {count}")
    rng = random.Random(seed)
    n = len(values)
    for _ in range(count):
        row = rng.randrange(n)
        old = values[row]
        base = 0.0 if old is NA else float(old)
        yield PointUpdate(row=row, value=base + rng.gauss(0, noise_sd))


def drift_stream(
    n_rows: int,
    count: int,
    start: float,
    drift_per_step: float,
    noise_sd: float = 1.0,
    seed: int = 0,
) -> Iterator[PointUpdate]:
    """Replacement values that drift upward over time — the regime that

    forces the median window's pointer off the list (SS4.2)."""
    rng = random.Random(seed)
    level = start
    for _ in range(count):
        level += drift_per_step
        yield PointUpdate(row=rng.randrange(n_rows), value=level + rng.gauss(0, noise_sd))

