"""Buffer pool with pluggable page-replacement policies.

This is the WiSS-style substrate the paper planned to build on (SS5.2): all
higher storage structures (heap files, transposed files, the stored Summary
Database) fetch pages through a :class:`BufferPool`, so cache hits avoid
disk I/O and the replacement policy determines which pages survive.

The paper notes (SS2.4) that statistical scans clash with general-purpose
memory management; the pool therefore supports multiple policies (LRU,
Clock, FIFO, MRU); claim E15 (``tests/claims/``) counts MRU's advantage on
repeated full-column scans larger than the pool.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import BufferPoolError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.storage.disk import SimulatedDisk


class ReplacementPolicy:
    """Strategy deciding which unpinned frame to evict.

    Subclasses receive notifications about page residency and accesses and
    must implement :meth:`victim`.
    """

    def on_admit(self, block_no: int) -> None:
        """A page was brought into the pool."""

    def on_access(self, block_no: int) -> None:
        """A resident page was accessed (hit)."""

    def on_evict(self, block_no: int) -> None:
        """A page left the pool."""

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        """Choose a resident block to evict, or ``None`` if none qualifies.

        ``evictable(block_no)`` says whether a block may go (it is unpinned);
        a policy asks it only of the candidates it reaches, in its own order.
        """
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used evictable page."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_admit(self, block_no: int) -> None:
        self._order[block_no] = None
        self._order.move_to_end(block_no)

    def on_access(self, block_no: int) -> None:
        if block_no in self._order:
            self._order.move_to_end(block_no)

    def on_evict(self, block_no: int) -> None:
        self._order.pop(block_no, None)

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        return next(filter(evictable, self._order), None)


class MRUPolicy(LRUPolicy):
    """Evict the most recently used evictable page.

    MRU is the classic antidote to sequential flooding: under repeated
    full-column scans slightly larger than the pool, LRU evicts every page
    just before it is needed again while MRU retains a useful prefix.
    """

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        return next(filter(evictable, reversed(self._order)), None)


class FIFOPolicy(ReplacementPolicy):
    """Evict the page resident longest, ignoring accesses."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_admit(self, block_no: int) -> None:
        if block_no not in self._order:
            self._order[block_no] = None

    def on_evict(self, block_no: int) -> None:
        self._order.pop(block_no, None)

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        return next(filter(evictable, self._order), None)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (clock) replacement."""

    def __init__(self) -> None:
        self._ring: list[int] = []
        self._ref: dict[int, bool] = {}
        self._hand = 0

    def on_admit(self, block_no: int) -> None:
        if block_no not in self._ref:
            self._ring.append(block_no)
        self._ref[block_no] = True

    def on_access(self, block_no: int) -> None:
        if block_no in self._ref:
            self._ref[block_no] = True

    def on_evict(self, block_no: int) -> None:
        if block_no in self._ref:
            del self._ref[block_no]
            index = self._ring.index(block_no)
            self._ring.pop(index)
            if index < self._hand:
                self._hand -= 1
            if self._ring:
                self._hand %= len(self._ring)
            else:
                self._hand = 0

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        if not self._ring:
            return None
        spins = 0
        limit = 2 * len(self._ring) + 1
        while spins < limit:
            block_no = self._ring[self._hand]
            if evictable(block_no):
                if self._ref[block_no]:
                    self._ref[block_no] = False
                else:
                    return block_no
            self._hand = (self._hand + 1) % len(self._ring)
            spins += 1
        # Every evictable page had its bit re-set within one lap; take the
        # first evictable page under the hand.
        for offset in range(len(self._ring)):
            block_no = self._ring[(self._hand + offset) % len(self._ring)]
            if evictable(block_no):
                return block_no
        return None


POLICIES = {
    "lru": LRUPolicy,
    "mru": MRUPolicy,
    "fifo": FIFOPolicy,
    "clock": ClockPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (lru, mru, fifo, clock)."""
    try:
        return POLICIES[name.lower()]()
    except KeyError:
        raise BufferPoolError(
            f"unknown replacement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None


@dataclass
class BufferStats:
    """Hit/miss/eviction counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served without disk I/O."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0


class _Frame:
    __slots__ = ("data", "pin_count", "dirty")

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """A fixed-capacity cache of disk blocks with pin/unpin semantics.

    Callers *pin* a page with :meth:`fetch_page` (receiving a mutable
    ``bytearray``) and must :meth:`unpin` it, flagging whether they dirtied
    it.  Pinned pages are never evicted; requesting a page when every frame
    is pinned raises :class:`BufferPoolError`.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = 64,
        policy: ReplacementPolicy | str = "lru",
        tracer: AbstractTracer | None = None,
    ) -> None:
        if capacity <= 0:
            raise BufferPoolError(f"capacity must be positive, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.stats = BufferStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._frames: dict[int, _Frame] = {}

    # -- page lifecycle ----------------------------------------------------

    def new_page(self) -> tuple[int, bytearray]:
        """Allocate a fresh disk block and pin it, returning (block_no, data).

        The page starts dirty so it reaches disk even if never written again.
        """
        block_no = self.disk.allocate()
        self._ensure_room()
        frame = _Frame(bytearray(self.disk.block_size))
        frame.pin_count = 1
        frame.dirty = True
        self._frames[block_no] = frame
        self.policy.on_admit(block_no)
        return block_no, frame.data

    def fetch_page(self, block_no: int) -> bytearray:
        """Pin a page, reading it from disk on a miss, and return its data."""
        frame = self._frames.get(block_no)
        if frame is not None:
            self.stats.hits += 1
            self.tracer.add("pool.hit")
            self.policy.on_access(block_no)
        else:
            self.stats.misses += 1
            self.tracer.add("pool.miss")
            self._ensure_room()
            data = bytearray(self.disk.read_block(block_no))
            frame = _Frame(data)
            self._frames[block_no] = frame
            self.policy.on_admit(block_no)
        frame.pin_count += 1
        return frame.data

    def unpin(self, block_no: int, dirty: bool = False) -> None:
        """Release one pin on a page, optionally marking it dirty."""
        frame = self._frames.get(block_no)
        if frame is None:
            raise BufferPoolError(f"page {block_no} is not resident")
        if frame.pin_count <= 0:
            raise BufferPoolError(f"page {block_no} is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True

    def pin_count(self, block_no: int) -> int:
        """Current pin count of a page (0 if resident-unpinned or absent)."""
        frame = self._frames.get(block_no)
        return 0 if frame is None else frame.pin_count

    def is_resident(self, block_no: int) -> bool:
        """Whether the page currently occupies a frame."""
        return block_no in self._frames

    def flush_page(self, block_no: int) -> None:
        """Write a resident dirty page back to disk (keeps it resident)."""
        frame = self._frames.get(block_no)
        if frame is None:
            raise BufferPoolError(f"page {block_no} is not resident")
        if frame.dirty:
            self.disk.write_block(block_no, bytes(frame.data))
            frame.dirty = False

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        for block_no in sorted(self._frames):
            self.flush_page(block_no)

    def clear(self) -> None:
        """Flush everything and drop all frames (all pins must be released)."""
        for block_no, frame in self._frames.items():
            if frame.pin_count > 0:
                raise BufferPoolError(f"cannot clear: page {block_no} is pinned")
        self.flush_all()
        for block_no in list(self._frames):
            self.policy.on_evict(block_no)
        self._frames.clear()

    # -- internals ---------------------------------------------------------

    def _ensure_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        frames = self._frames
        victim = self.policy.victim(lambda block_no: frames[block_no].pin_count == 0)
        if victim is None:
            raise BufferPoolError(
                f"all {self.capacity} frames are pinned; cannot evict"
            )
        frame = frames[victim]
        if frame.dirty:
            self.disk.write_block(victim, bytes(frame.data))
            self.stats.dirty_writebacks += 1
        del self._frames[victim]
        self.policy.on_evict(victim)
        self.stats.evictions += 1
        self.tracer.add("pool.eviction")
