"""A host-speed probe, and times expressed at a reference host speed.

Why: this sandbox runs at two speeds.  For minutes at a time the same
single-threaded Python work takes 1.6x-1.8x longer than it did a minute
before (measured on seven SQL statements, a pure arithmetic loop and an
allocation loop alike: 83 -> 150 ms, 127 -> 180 ms), with shorter episodes
in between; nothing inside the VM shows it (no steal time, no other
process).  A ten-second run sits in one mode or the other, so raw times
from ten runs spread by 20-40%, which would drown any bound a benchmark can
set.

So the benchmark measures the host while it measures the program.  A small
fixed kernel of Python work (``kernel``) is timed at every block boundary
of a workload's op stream; an op's time is divided by the ratio of the
kernel times taken around it to ``REFERENCE_MS`` — the kernel's time on this
host at full speed.  Every time the benchmark reports is therefore "ms at
reference speed": on an undisturbed host it equals the wall time, on a
slowed host it is what the wall time would have been.  Counts, bytes and
memory are never scaled.  The median speed factor of a run is printed with
its results.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Time of ``kernel`` (best of three) on this host when undisturbed.
REFERENCE_MS = 0.75


def kernel() -> float:
    """A fixed mix of arithmetic, allocation, hashing and sorting; ms."""
    started = time.perf_counter_ns()
    total = 0
    table: dict[int, int] = {}
    rows = []
    for i in range(4000):
        total += i * i % 7
        rows.append((i, float(i)))
        table[i & 63] = total
    rows.sort(key=lambda row: -row[1])
    return (time.perf_counter_ns() - started) / 1e6


class HostSpeed:
    """Probe samples on one thread's timeline, and the factor between them."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.factors: list[float] = []

    def sample(self) -> None:
        """Time the kernel now (best of three sheds a preemption)."""
        ms = min(kernel(), kernel(), kernel())
        self.times.append(time.monotonic_ns())
        self.factors.append(ms / REFERENCE_MS)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Slow-down of the host over ``[start, end]``: the mean of the
        samples taken inside it and the nearest two on either side (the host
        changes speed over seconds; one kernel timing wobbles by 10%)."""
        lo = max(0, bisect.bisect_left(self.times, start_ns) - 2)
        hi = min(len(self.times), bisect.bisect_right(self.times, end_ns) + 2)
        return statistics.fmean(self.factors[lo:hi])

    def scaled_ms(self, start_ns: int, end_ns: int) -> float:
        """``end - start`` in ms at reference speed."""
        return (end_ns - start_ns) / 1e6 / self.factor(start_ns, end_ns)

    def median_factor(self) -> float:
        return statistics.median(self.factors)


class Timeline(HostSpeed):
    """Timed ops of one thread, in order, with the probe samples between
    them: ``timed`` runs a callable and records ``(kind, start_ns, end_ns)``."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple[str, int, int]] = []

    def timed(self, kind: str, work):  # type: ignore[no-untyped-def]
        start = time.monotonic_ns()
        result = work()
        self.ops.append((kind, start, time.monotonic_ns()))
        return result

    def latencies(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """Scaled ms of ops ``[first:last]`` by kind."""
        by_kind: dict[str, list[float]] = {}
        for kind, start, end in self.ops[first:last]:
            by_kind.setdefault(kind, []).append(self.scaled_ms(start, end))
        return by_kind
