"""Mergeable sketch summaries: t-digest, HyperLogLog, reservoir, CountMin.

The paper's Summary Database caches *scalar* statistics; the MADlib /
unified in-RDBMS analytics line (PAPERS.md) shows the ambitious version:
approximate-but-mergeable *sketches* living inside the database as
first-class summary entries.  Every sketch here implements the
:class:`~repro.incremental.differencing.IncrementalComputation` protocol
— ``reset`` / ``fold(values, sign)`` / ``value`` plus ``partial_state()``
/ ``merge_partial()`` — so it serves two roles with one state machine:

* a **maintainer** for a ``(function, attributes)`` summary entry that
  stays warm under analyst insert/delete/update;
* a **persistable** state (``to_state``/``from_state``) that round-trips
  through checkpoints, unlike the pointer-chasing order-stat windows.

Determinism: every hashed sketch takes an explicit integer ``seed`` and
hashes through keyed blake2b over canonical value bytes, so results are
reproducible across processes and independent of ``PYTHONHASHSEED`` —
so a persisted sketch reads back to the same answers.

Accuracy contracts (enforced by the property suite):

* :class:`TDigest` — rank error ≤ ``EPSILON_TDIGEST``; *exact* (including
  the even-n two-value interpolation) while the digest holds only
  unit-weight centroids, i.e. for multisets smaller than the compression
  threshold.
* :class:`HyperLogLog` — relative error ≤ ``EPSILON_HLL`` at the default
  precision; *exact* while in sparse mode (below ``sparse_limit``
  distinct hashes).
* :class:`CountMinSketch` — overestimate only, by at most
  ``e/width × total`` with probability ``1 − e^-depth``; deletes and
  merges are exact (linear sketch).
* :class:`ReservoirSample` — each surviving element is a uniform draw;
  deletion support is best-effort (documented slight bias toward
  recently sampled values after heavy deletes).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import struct
from typing import Any, Callable, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import IncrementalComputation
from repro.relational.types import NA, is_na

#: Documented accuracy bounds, surfaced as summary-entry ``epsilon``
#: metadata and gated by tests/property/test_sketch_accuracy.py.
EPSILON_TDIGEST = 0.02  # max rank error at default compression
EPSILON_HLL = 0.025  # max relative cardinality error at p=12
EPSILON_CM = math.e / 1024  # max relative count overestimate at width=1024


def hash64(value: Any, seed: int = 0) -> int:
    """A stable 64-bit hash of one value under an integer seed.

    Numeric values are canonicalized through their float64 encoding so
    ``2`` and ``2.0`` collide — matching Python set semantics and hence
    the exact ``count_distinct`` aggregate.  Keyed blake2b keeps the
    result independent of ``PYTHONHASHSEED`` and cheap to reseed.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        data = struct.pack("<d", float(value))
    elif isinstance(value, str):
        data = b"s" + value.encode("utf-8")
    else:
        data = b"r" + repr(value).encode("utf-8")
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(data, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "big")


class TDigest(IncrementalComputation):
    """A merging t-digest over a dynamic multiset (Dunning & Ertl).

    Centroids are ``(mean, weight)`` pairs sorted by mean; inserts land in
    a buffer that is folded in by :meth:`_compress` once it reaches
    ``4 × compression`` entries.  Compression merges adjacent centroids
    while the combined weight stays within the scale-function budget
    ``4 · n · q(1−q) / compression`` — which is < 1 for small multisets,
    so small digests keep exact unit centroids and interpolate the median
    exactly (both parities), matching ``agg_median`` bit-for-bit.

    Deletion removes weight from the centroid nearest the deleted value;
    when that centroid's mean is not exactly the value, the removal is
    approximate and counted in :attr:`approx_deletes` (observed-error
    metadata, never silent).
    """

    sketch_kind = "tdigest"

    def __init__(self, compression: int = 200) -> None:
        if compression < 20:
            raise StatisticsError(f"compression must be >= 20, got {compression}")
        self.compression = compression
        self.reset()

    # -- maintenance ---------------------------------------------------------

    def reset(self) -> None:
        self._means: list[float] = []
        self._weights: list[float] = []
        self._buffer: list[float] = []
        self._total = 0.0
        self.approx_deletes = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        if sign > 0:
            buffer = self._buffer
            added = 0
            for value in values:
                if is_na(value):
                    continue
                buffer.append(float(value))
                added += 1
            self._total += added
            if len(buffer) >= 4 * self.compression:
                self._compress()
            return
        # Removal is not the mirror of insertion: weight comes off the
        # centroid nearest each value, approximately when means differ.
        for value in values:
            if is_na(value):
                continue
            self._compress()
            if not self._means:
                raise StatisticsError(
                    f"deleting value {value!r} from an empty t-digest"
                )
            target = float(value)
            i = bisect.bisect_left(self._means, target)
            if i >= len(self._means):
                i = len(self._means) - 1
            elif i > 0 and target - self._means[i - 1] < self._means[i] - target:
                i -= 1
            if self._means[i] != target:
                self.approx_deletes += 1
            self._weights[i] -= 1.0
            self._total -= 1.0
            if self._weights[i] <= 0.0:
                del self._means[i]
                del self._weights[i]

    # -- queries -------------------------------------------------------------

    @property
    def count(self) -> float:
        return self._total

    @property
    def value(self) -> Any:
        """The median (``quantile(0.5)``)."""
        return self.quantile(0.5)

    def quantile(self, q: float) -> Any:
        """Interpolated quantile; NA on an empty digest."""
        if not 0.0 <= q <= 1.0:
            raise StatisticsError(f"quantile must be in [0, 1], got {q}")
        self._compress()
        means, weights = self._means, self._weights
        if not means:
            return NA
        if len(means) == 1:
            return means[0]
        target = q * self._total
        cum = 0.0
        prev_mid = None
        prev_mean = means[0]
        for mean, weight in zip(means, weights):
            mid = cum + weight / 2.0
            if target < mid:
                if prev_mid is None:
                    return means[0]
                frac = (target - prev_mid) / (mid - prev_mid)
                return prev_mean + frac * (mean - prev_mean)
            if target == mid:
                return mean
            prev_mid = mid
            prev_mean = mean
            cum += weight
        return means[-1]

    # -- compression ---------------------------------------------------------

    def _compress(self) -> None:
        if not self._buffer and len(self._means) <= self.compression:
            return
        pairs = sorted(
            list(zip(self._means, self._weights))
            + [(v, 1.0) for v in self._buffer]
        )
        self._buffer = []
        if not pairs:
            self._means = []
            self._weights = []
            return
        total = self._total
        budget = 4.0 * total / self.compression
        means: list[float] = [pairs[0][0]]
        weights: list[float] = [pairs[0][1]]
        cum = 0.0
        for mean, weight in pairs[1:]:
            current = weights[-1]
            q = (cum + (current + weight) / 2.0) / total if total else 0.0
            if current + weight <= max(1.0, budget * q * (1.0 - q)):
                merged = current + weight
                means[-1] += (mean - means[-1]) * (weight / merged)
                weights[-1] = merged
            else:
                cum += current
                means.append(mean)
                weights.append(weight)
        self._means = means
        self._weights = weights

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        self._compress()
        return {
            "centroids": list(zip(self._means, self._weights)),
            "n": self._total,
            "approx_deletes": self.approx_deletes,
        }

    def merge_partial(self, state: Any) -> None:
        for mean, weight in state["centroids"]:
            i = bisect.bisect_left(self._means, mean)
            self._means.insert(i, mean)
            self._weights.insert(i, weight)
        self._total += state["n"]
        self.approx_deletes += state.get("approx_deletes", 0)
        if len(self._means) > 2 * self.compression:
            self._compress()

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        self._compress()
        return {
            "compression": self.compression,
            "centroids": [[m, w] for m, w in zip(self._means, self._weights)],
            "n": self._total,
            "approx_deletes": self.approx_deletes,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "TDigest":
        digest = cls(compression=int(state["compression"]))
        digest._means = [float(m) for m, _ in state["centroids"]]
        digest._weights = [float(w) for _, w in state["centroids"]]
        digest._total = float(state["n"])
        digest.approx_deletes = int(state.get("approx_deletes", 0))
        return digest


class HyperLogLog(IncrementalComputation):
    """Distinct-value counter: exact sparse multiset, then HLL registers.

    Below ``sparse_limit`` distinct hashes the sketch keeps an exact
    hash → multiplicity map, so the estimate is exact (up to 64-bit hash
    collisions), deletes are exact, and sparse merges are exact.  Beyond the limit it densifies into
    the classical 2^p register array (relative error ≈ 1.04/√2^p ≈ 1.6 %
    at the default p=12, documented as ``EPSILON_HLL``).

    Dense registers cannot forget: a delete in dense mode marks the
    sketch dirty and the next read rebuilds from ``values_provider`` in
    one pass, or raises if no provider was given — stale-or-correct,
    never silently wrong.
    """

    sketch_kind = "hll"

    def __init__(
        self,
        p: int = 12,
        seed: int = 0,
        values_provider: Callable[[], Iterable[Any]] | None = None,
        sparse_limit: int = 2048,
    ) -> None:
        if not 4 <= p <= 16:
            raise StatisticsError(f"precision p must be in [4, 16], got {p}")
        self.p = p
        self.seed = seed
        self.sparse_limit = sparse_limit
        self._provider = values_provider
        self._m = 1 << p
        self.reset()

    # -- maintenance ---------------------------------------------------------

    def reset(self) -> None:
        self._sparse: dict[int, int] | None = {}
        self._registers: bytearray | None = None
        self._dirty = False

    def _add_hash(self, h: int) -> None:
        if self._sparse is not None:
            self._sparse[h] = self._sparse.get(h, 0) + 1
            if len(self._sparse) > self.sparse_limit:
                self._densify()
            return
        assert self._registers is not None
        idx = h >> (64 - self.p)
        tail = h & ((1 << (64 - self.p)) - 1)
        rank = (64 - self.p) - tail.bit_length() + 1
        if rank > self._registers[idx]:
            self._registers[idx] = rank

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        seed = self.seed
        if sign > 0:
            for value in values:
                if not is_na(value):
                    self._add_hash(hash64(value, seed))
            return
        for value in values:
            if is_na(value):
                continue
            sparse = self._sparse
            if sparse is not None:
                h = hash64(value, seed)
                count = sparse.get(h, 0)
                if count <= 0:
                    raise StatisticsError(
                        f"deleting value {value!r} never counted by this sketch"
                    )
                if count == 1:
                    del sparse[h]
                else:
                    sparse[h] = count - 1
            elif self._provider is None:
                raise StatisticsError(
                    "dense HyperLogLog cannot delete without a values provider"
                )
            else:
                # Dense registers are not invertible; the next read
                # rebuilds from the provider.
                self._dirty = True

    def _densify(self) -> None:
        sparse = self._sparse
        assert sparse is not None
        self._sparse = None
        self._registers = bytearray(self._m)
        for h in sparse:
            self._add_hash(h)

    def _rebuild(self) -> None:
        assert self._provider is not None
        self.reset()
        self.fold(self._provider())

    # -- queries -------------------------------------------------------------

    @property
    def value(self) -> Any:
        """The distinct count, as an int (exact in sparse mode)."""
        if self._dirty:
            self._rebuild()
        if self._sparse is not None:
            return len(self._sparse)
        registers = self._registers
        assert registers is not None
        m = self._m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = 0.0
        zeros = 0
        for reg in registers:
            harmonic += 2.0 ** -reg
            if reg == 0:
                zeros += 1
        estimate = alpha * m * m / harmonic
        if estimate <= 2.5 * m and zeros > 0:
            estimate = m * math.log(m / zeros)
        return int(round(estimate))

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        if self._dirty:
            self._rebuild()
        if self._sparse is not None:
            return {"mode": "sparse", "p": self.p, "counts": dict(self._sparse)}
        assert self._registers is not None
        return {"mode": "dense", "p": self.p, "registers": bytes(self._registers)}

    def merge_partial(self, state: Any) -> None:
        if state["p"] != self.p:
            raise StatisticsError(
                f"cannot merge HLL precisions {state['p']} and {self.p}"
            )
        if self._dirty:
            self._rebuild()
        if state["mode"] == "sparse":
            if self._sparse is not None:
                for h, count in state["counts"].items():
                    self._sparse[h] = self._sparse.get(h, 0) + count
                if len(self._sparse) > self.sparse_limit:
                    self._densify()
            else:
                for h in state["counts"]:
                    self._add_hash(h)
            return
        if self._sparse is not None:
            self._densify()
        assert self._registers is not None
        for i, reg in enumerate(state["registers"]):
            if reg > self._registers[i]:
                self._registers[i] = reg

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        if self._dirty:
            self._rebuild()
        base: dict[str, Any] = {
            "p": self.p,
            "seed": self.seed,
            "sparse_limit": self.sparse_limit,
        }
        if self._sparse is not None:
            base["mode"] = "sparse"
            base["counts"] = [[h, c] for h, c in sorted(self._sparse.items())]
        else:
            assert self._registers is not None
            base["mode"] = "dense"
            base["registers"] = bytes(self._registers).hex()
        return base

    @classmethod
    def from_state(
        cls,
        state: dict[str, Any],
        values_provider: Callable[[], Iterable[Any]] | None = None,
    ) -> "HyperLogLog":
        sketch = cls(
            p=int(state["p"]),
            seed=int(state["seed"]),
            values_provider=values_provider,
            sparse_limit=int(state["sparse_limit"]),
        )
        if state["mode"] == "sparse":
            sketch._sparse = {int(h): int(c) for h, c in state["counts"]}
        else:
            sketch._sparse = None
            sketch._registers = bytearray(bytes.fromhex(state["registers"]))
        return sketch


class ReservoirSample(IncrementalComputation):
    """A fixed-size uniform sample of a stream (Vitter's Algorithm R).

    The ``seed`` drives a private :class:`random.Random`, so replaying the
    same stream reproduces the same sample.  Deletion removes the value
    from the sample when present and always shrinks the population
    counter; after heavy deletes the sample under-fills rather than
    resampling (documented bias, exercised by the chi-square property
    test only over insert-dominated streams).
    """

    sketch_kind = "reservoir"

    def __init__(self, k: int = 64, seed: int = 0) -> None:
        if k < 1:
            raise StatisticsError(f"reservoir size must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._sample: list[Any] = []
        self._n = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        sample = self._sample
        if sign > 0:
            for value in values:
                if is_na(value):
                    continue
                self._n += 1
                if len(sample) < self.k:
                    sample.append(value)
                else:
                    j = self._rng.randrange(self._n)
                    if j < self.k:
                        sample[j] = value
            return
        # Removal shrinks the population and drops the value from the
        # sample when present; it never resamples (documented bias).
        for value in values:
            if is_na(value):
                continue
            if self._n <= 0:
                raise StatisticsError(
                    f"deleting value {value!r} from an empty reservoir population"
                )
            self._n -= 1
            try:
                sample.remove(value)
            except ValueError:
                pass

    @property
    def population(self) -> int:
        return self._n

    @property
    def value(self) -> Any:
        """The sample as a tuple (stable, encodable)."""
        return tuple(self._sample)

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        return {"sample": list(self._sample), "n": self._n, "k": self.k}

    def merge_partial(self, state: Any) -> None:
        """Weighted merge: keep each side's items in proportion to its
        population, using the seeded rng for the coin flips."""
        other_sample = list(state["sample"])
        other_n = state["n"]
        if other_n == 0:
            return
        if self._n == 0:
            self._sample = other_sample[: self.k]
            self._n = other_n
            return
        mine = list(self._sample)
        merged: list[Any] = []
        total_mine, total_other = self._n, other_n
        while len(merged) < self.k and (mine or other_sample):
            pick_mine = False
            if mine and other_sample:
                pick_mine = (
                    self._rng.random() < total_mine / (total_mine + total_other)
                )
            elif mine:
                pick_mine = True
            merged.append(mine.pop(0) if pick_mine else other_sample.pop(0))
        self._sample = merged
        self._n = total_mine + total_other

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "seed": self.seed,
            "sample": list(self._sample),
            "n": self._n,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "ReservoirSample":
        sketch = cls(k=int(state["k"]), seed=int(state["seed"]))
        sketch._sample = list(state["sample"])
        sketch._n = int(state["n"])
        return sketch


class CountMinSketch(IncrementalComputation):
    """Frequency sketch with exact deletes and merges (linear sketch).

    ``estimate(v)`` overestimates the true multiplicity of ``v`` by at
    most ``(e / width) × total`` with probability ``1 − e^-depth``; it
    never underestimates.  Because the state is a linear function of the
    input multiset, deletes subtract exactly and merges add exactly.
    """

    sketch_kind = "countmin"

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0) -> None:
        if width < 8 or depth < 1:
            raise StatisticsError(
                f"need width >= 8 and depth >= 1, got {width}x{depth}"
            )
        self.width = width
        self.depth = depth
        self.seed = seed
        self.reset()

    def _positions(self, value: Any) -> list[int]:
        base = self.seed * 0x9E3779B9
        return [
            hash64(value, base + level) % self.width
            for level in range(self.depth)
        ]

    def reset(self) -> None:
        self._rows = [[0] * self.width for _ in range(self.depth)]
        self._total = 0

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        rows = self._rows
        for value in values:
            if is_na(value):
                continue
            for level, position in enumerate(self._positions(value)):
                rows[level][position] += sign
            self._total += sign
        self._require_tracked(self._total)

    def estimate(self, value: Any) -> int:
        """Point-frequency estimate (never an underestimate)."""
        return min(
            self._rows[level][position]
            for level, position in enumerate(self._positions(value))
        )

    @property
    def value(self) -> Any:
        """Total tracked (non-NA) count — exact."""
        return float(self._total)

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        return {"rows": [list(row) for row in self._rows], "total": self._total}

    def merge_partial(self, state: Any) -> None:
        for mine, theirs in zip(self._rows, state["rows"]):
            for i, count in enumerate(theirs):
                mine[i] += count
        self._total += state["total"]

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "rows": [list(row) for row in self._rows],
            "total": self._total,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "CountMinSketch":
        sketch = cls(
            width=int(state["width"]),
            depth=int(state["depth"]),
            seed=int(state["seed"]),
        )
        sketch._rows = [list(row) for row in state["rows"]]
        sketch._total = int(state["total"])
        return sketch


class HeavyHitterSketch(IncrementalComputation):
    """Top-k frequent values backed by a :class:`CountMinSketch`.

    The classic CM + candidate-heap construction: the linear sketch tracks
    every (non-NA) value exactly under inserts/deletes/merges, and a
    bounded candidate table (``4 × k`` slots) remembers *which* values are
    currently believed heavy.  Each insert re-estimates the inserted value
    and promotes it into the table when it beats the weakest candidate, so
    any value whose true frequency grows keeps getting reconsidered; each
    reported count is the CM point estimate — an overestimate of the true
    multiplicity by at most ``EPSILON_CM × total``, never an underestimate.

    ``value`` is a tuple of ``(value, count)`` pairs, count-descending with
    ties broken by ``repr`` so identical multisets report identical tuples
    regardless of arrival order or process.
    """

    sketch_kind = "heavy_hitters"

    def __init__(
        self,
        k: int = 10,
        width: int = 1024,
        depth: int = 4,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise StatisticsError(f"need k >= 1, got {k}")
        self.k = k
        self.capacity = 4 * k
        self._cm = CountMinSketch(width=width, depth=depth, seed=seed)
        self._candidates: dict[Any, int] = {}

    def reset(self) -> None:
        self._cm.reset()
        self._candidates = {}

    def _consider(self, value: Any) -> None:
        estimate = self._cm.estimate(value)
        if value in self._candidates:
            self._candidates[value] = estimate
            return
        if len(self._candidates) < self.capacity:
            self._candidates[value] = estimate
            return
        weakest = min(self._candidates, key=lambda v: (self._candidates[v], repr(v)))
        if estimate > self._candidates[weakest]:
            del self._candidates[weakest]
            self._candidates[value] = estimate

    def fold(self, values: Iterable[Any], sign: int = 1) -> None:
        clean = [v for v in values if not is_na(v)]
        self._cm.fold(clean, sign)
        candidates = self._candidates
        for value in dict.fromkeys(clean):
            if sign > 0:
                self._consider(value)
            elif value in candidates:
                estimate = self._cm.estimate(value)
                if estimate <= 0:
                    del candidates[value]
                else:
                    candidates[value] = estimate

    @property
    def value(self) -> tuple[tuple[Any, float], ...]:
        ranked = sorted(
            ((v, self._cm.estimate(v)) for v in self._candidates),
            key=lambda pair: (-pair[1], repr(pair[0])),
        )
        return tuple((v, float(count)) for v, count in ranked[: self.k] if count > 0)

    # -- mergeable partial states ---------------------------------------------

    def partial_state(self) -> Any:
        return {
            "cm": self._cm.partial_state(),
            "candidates": list(self._candidates),
        }

    def merge_partial(self, state: Any) -> None:
        self._cm.merge_partial(state["cm"])
        for value in state["candidates"]:
            self._candidates.setdefault(value, 0)
        for value in list(self._candidates):
            self._candidates[value] = self._cm.estimate(value)
        if len(self._candidates) > self.capacity:
            ranked = sorted(
                self._candidates,
                key=lambda v: (-self._candidates[v], repr(v)),
            )
            self._candidates = {v: self._candidates[v] for v in ranked[: self.capacity]}

    # -- persistence ---------------------------------------------------------

    _STATE_TAGS: dict[type, str] = {int: "i", float: "f", str: "s"}

    def to_state(self) -> dict[str, Any]:
        candidates = []
        for value in self._candidates:
            tag = self._STATE_TAGS.get(type(value))
            if tag is None:
                # Exotic value types have no durable encoding; the
                # checkpoint layer degrades this maintainer to a
                # detached, stale entry rather than persist a lossy key.
                raise StatisticsError(
                    f"heavy-hitter candidate {value!r} is not persistable"
                )
            candidates.append([tag, value])
        return {
            "k": self.k,
            "cm": self._cm.to_state(),
            "candidates": candidates,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "HeavyHitterSketch":
        cm = CountMinSketch.from_state(state["cm"])
        sketch = cls(k=int(state["k"]), width=cm.width, depth=cm.depth, seed=cm.seed)
        sketch._cm = cm
        restorers: dict[str, Callable[[Any], Any]] = {
            "i": int, "f": float, "s": str,
        }
        sketch._candidates = {
            restorers[tag](value): 0 for tag, value in state["candidates"]
        }
        for value in list(sketch._candidates):
            sketch._candidates[value] = cm.estimate(value)
        return sketch
