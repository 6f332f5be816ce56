"""E15: LRU floods under repeated column scans; MRU keeps a prefix (§2.4).

General-purpose packages manage memory "according to some scheme which is
not necessarily suited to the access patterns exhibited for statistical
databases".  Re-scanning a column slightly larger than the buffer pool
makes LRU evict each page just before its next use, while MRU keeps a
resident prefix.  Add a hot set of point reads and the ranking flips, so no
one policy serves both.
"""

import random

import pytest

from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool

POLICIES = ("lru", "fifo", "clock", "mru")
CAPACITY = 16


def build_pool(policy, n_pages):
    pool = BufferPool(SimulatedDisk(block_size=256), capacity=CAPACITY, policy=policy)
    pages = []
    for _ in range(n_pages):
        block, _ = pool.new_page()
        pool.unpin(block, dirty=True)
        pages.append(block)
    pool.flush_all()
    pool.stats.reset()
    return pool, pages


def read(pool, blocks):
    for block in blocks:
        pool.fetch_page(block)
        pool.unpin(block)


@pytest.mark.parametrize("overflow", [1.25, 2.0, 4.0])
def test_lru_floods_where_mru_keeps_a_prefix(overflow):
    ratios = {}
    for policy in ("lru", "mru"):
        pool, pages = build_pool(policy, int(CAPACITY * overflow))
        for _ in range(8):
            read(pool, pages)
        ratios[policy] = pool.stats.hit_ratio
    assert ratios["mru"] > ratios["lru"]
    if overflow <= 2.0:
        assert ratios["mru"] > 0.3
        assert ratios["lru"] < 0.05  # the classic flooding collapse


def test_a_hot_set_flips_the_ranking():
    rng = random.Random(3)
    ratios = {}
    for policy in POLICIES:
        pool, pages = build_pool(policy, 32)
        hot = pages[-4:]  # the most recently scanned pages stay interesting
        for _ in range(4):
            read(pool, pages)
            read(pool, [rng.choice(hot) for _ in range(64)])
        ratios[policy] = pool.stats.hit_ratio
    assert ratios["lru"] > ratios["mru"]  # the opposite of the pure-scan case
