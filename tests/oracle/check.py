"""One definition of "right" for a Summary Database entry.

The system's contract is F-IVM's: a maintained result equals the same
function re-evaluated over the data as it stands.  An exact or model entry
must equal its re-evaluation up to the rounding a different summation
order leaves; a sketch entry must lie inside the accuracy bound it was
stamped with (``SummaryEntry.epsilon``, read as a relative error).
"""

from __future__ import annotations

import math
from typing import Any

from repro.relational.types import is_na

#: The rounding a maintained float may carry against its batch
#: re-evaluation, relative and (for results near zero) absolute.
ROUNDING = 1e-9


def equal_or_inside_epsilon(entry: Any, truth: Any) -> bool:
    """True when ``entry.result`` agrees with ``truth``, its re-evaluation."""
    tolerance = ROUNDING if entry.epsilon is None else entry.epsilon
    return _agrees(entry.result, truth, tolerance)


def _agrees(result: Any, truth: Any, tolerance: float) -> bool:
    if isinstance(truth, (list, tuple)):
        return (
            isinstance(result, (list, tuple))
            and len(result) == len(truth)
            and all(_agrees(r, t, tolerance) for r, t in zip(result, truth))
        )
    if is_na(truth) or is_na(result):
        return is_na(truth) and is_na(result)
    if isinstance(truth, float) or isinstance(result, float):
        return math.isclose(result, truth, rel_tol=tolerance, abs_tol=ROUNDING)
    return result == truth
