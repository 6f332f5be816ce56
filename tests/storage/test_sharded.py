"""Sharded transposed files: routing, merged scans, and chain integrity."""

import pytest

from repro.core.errors import StorageError
from repro.relational.types import NA, DataType
from repro.storage.sharded import ShardedTransposedFile, ShardRouter


def rows_fixture(n=25):
    return [(float(i), i, f"g{i % 3}") for i in range(n)]


def make_sharded(rows, shards=4, **kwargs):
    storage = ShardedTransposedFile(
        [DataType.FLOAT, DataType.INT, DataType.STR], shards=shards, **kwargs
    )
    storage.append_rows(rows)
    return storage


class TestShardRouter:
    def test_round_robin_assignment(self):
        router = ShardRouter(4)
        assert [router.shard_of(r) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_local_global_round_trip(self):
        router = ShardRouter(3)
        for r in range(30):
            shard = router.shard_of(r)
            local = router.local_row(r)
            assert local * 3 + shard == r

    def test_single_shard_is_identity(self):
        router = ShardRouter(1)
        assert router.shard_of(7) == 0
        assert router.local_row(7) == 7

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(StorageError):
            ShardRouter(0)


class TestShardedTransposedFile:
    def test_append_distributes_round_robin(self):
        storage = make_sharded(rows_fixture(10), shards=4)
        assert [len(file) for file in storage._files] == [3, 3, 2, 2]
        assert len(storage) == 10

    def test_get_value_routes_to_owner(self):
        rows = rows_fixture(13)
        storage = make_sharded(rows, shards=4)
        for r, row in enumerate(rows):
            for c in range(3):
                assert storage.get_value(r, c) == row[c]

    def test_scan_column_preserves_global_order(self):
        rows = rows_fixture(17)
        storage = make_sharded(rows, shards=4)
        assert list(storage.scan_column(1)) == [row[1] for row in rows]

    def test_scan_rows_round_trip(self):
        rows = rows_fixture(9)
        storage = make_sharded(rows, shards=3)
        assert [tuple(r) for r in storage.scan_rows()] == rows

    def test_scan_column_chunks_match_plain_scan(self):
        rows = rows_fixture(23)
        storage = make_sharded(rows, shards=4)
        chunks = list(storage.scan_column_chunks([0, 2], chunk_size=7))
        cols = list(zip(*rows))
        got0, got2 = [], []
        for piece in chunks:
            got0.extend(piece[0])
            got2.extend(piece[1])
        assert got0 == list(cols[0])
        assert got2 == list(cols[2])

    def test_na_round_trips(self):
        storage = make_sharded([(NA, 1, "a"), (2.0, NA, "b")], shards=2)
        assert storage.get_value(0, 0) is NA
        assert storage.get_value(1, 1) is NA

    def test_bad_row_in_a_batch_appends_nothing(self):
        rows = rows_fixture(10)
        storage = make_sharded(rows, shards=4)
        # The short row (global row 11) belongs to shard 3, the last one
        # written; shards 0 and 2 take their rows of the batch before it.
        batch = [(100.0, 100, "x"), (101.0, 101, "x"), (102.0, 102, "x")]
        with pytest.raises(StorageError, match="2 fields"):
            storage.append_rows([batch[0], batch[1][:2], batch[2]])
        assert len(storage) == 10
        assert [len(file) for file in storage._files] == [3, 3, 2, 2]
        # The next append still lands every row on its own global position.
        storage.append_rows(batch)
        assert [tuple(r) for r in storage.scan_rows()] == rows + batch

    def test_truncated_shard_chain_raises_storage_error(self):
        storage = make_sharded(rows_fixture(12), shards=3)
        # Doctor shard 1: drop its last page for column 0 so the merged
        # scan runs dry before the advertised row count.
        storage._files[1]._columns[0].pages.pop()
        with pytest.raises(StorageError):
            list(storage.scan_column(0))

    def test_truncated_chain_raises_in_chunked_scan(self):
        storage = make_sharded(rows_fixture(12), shards=3)
        storage._files[2]._columns[1].pages.pop()
        with pytest.raises(StorageError):
            list(storage.scan_column_chunks([1], chunk_size=4))
