"""Tests for transposed (column) files."""

import pytest

from repro.core.errors import PageError, StorageError
from repro.relational.types import NA, DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile


def make_tf(types, block_size=256, pool_pages=64, compress=None):
    disk = SimulatedDisk(block_size=block_size)
    pool = BufferPool(disk, capacity=pool_pages)
    return disk, pool, TransposedFile(pool, types, compress=compress)


class TestBasics:
    def test_append_and_scan(self):
        _, _, tf = make_tf([DataType.INT, DataType.FLOAT])
        tf.append_rows([(i, i * 0.5) for i in range(100)])
        assert list(tf.scan_column(0)) == list(range(100))
        assert list(tf.scan_column(1)) == [i * 0.5 for i in range(100)]

    def test_row_reconstruction(self):
        _, _, tf = make_tf([DataType.INT, DataType.STR])
        tf.append_rows([(i, f"s{i}") for i in range(50)])
        assert tf.get_row(37) == (37, "s37")
        assert list(tf.scan_rows())[10] == (10, "s10")

    def test_arity_checked(self):
        _, _, tf = make_tf([DataType.INT, DataType.INT])
        with pytest.raises(StorageError, match="fields"):
            tf.append_row((1,))

    def test_na_values(self):
        _, _, tf = make_tf([DataType.FLOAT])
        tf.append_rows([(1.0,), (NA,), (3.0,)])
        assert list(tf.scan_column(0)) == [1.0, NA, 3.0]

    def test_point_update(self):
        _, _, tf = make_tf([DataType.INT])
        tf.append_rows([(i,) for i in range(300)])
        tf.set_value(250, 0, -1)
        assert tf.get_value(250, 0) == -1
        assert list(tf.scan_column(0))[250] == -1

    def test_update_then_append_consistent(self):
        _, _, tf = make_tf([DataType.INT])
        tf.append_rows([(i,) for i in range(10)])
        tf.set_value(9, 0, 99)  # update in the open page
        tf.append_row((10,))
        assert list(tf.scan_column(0)) == list(range(9)) + [99, 10]

    def test_out_of_range_row(self):
        _, _, tf = make_tf([DataType.INT])
        tf.append_row((1,))
        with pytest.raises(PageError, match="out of range"):
            tf.get_value(5, 0)


class TestIOPattern:
    def test_column_scan_reads_only_that_column(self):
        """The SS2.6 claim: q-of-m column scans touch q/m of the pages."""
        disk, pool, tf = make_tf([DataType.INT] * 4, block_size=128, pool_pages=2)
        tf.append_rows([(i, i, i, i) for i in range(500)])
        pool.clear()
        disk.reset_stats()
        list(tf.scan_column(2))
        one_column = disk.stats.block_reads
        assert one_column == tf.column_page_count(2)
        pool.clear()
        disk.reset_stats()
        list(tf.scan_rows())
        all_columns = disk.stats.block_reads
        assert all_columns >= 4 * one_column - 3

    def test_informational_query_touches_every_column(self):
        disk, pool, tf = make_tf([DataType.INT] * 6, block_size=128, pool_pages=2)
        tf.append_rows([tuple(range(6)) for _ in range(300)])
        pool.clear()
        disk.reset_stats()
        tf.get_row(299)
        assert disk.stats.block_reads == 6  # one page per column


class TestCompression:
    def test_rle_roundtrip(self):
        _, _, tf = make_tf([DataType.CATEGORY], compress="rle")
        values = [i // 50 for i in range(1000)]
        for v in values:
            tf.append_row((v,))
        assert list(tf.scan_column(0)) == values

    def test_rle_fewer_pages_on_runs(self):
        _, _, plain = make_tf([DataType.CATEGORY], block_size=128)
        _, _, rle = make_tf([DataType.CATEGORY], block_size=128, compress="rle")
        values = [i // 100 for i in range(2000)]
        for v in values:
            plain.append_row((v,))
            rle.append_row((v,))
        assert rle.column_page_count(0) < plain.column_page_count(0)

    def test_rle_update_roundtrip(self):
        _, _, tf = make_tf([DataType.CATEGORY], compress="rle")
        for i in range(100):
            tf.append_row((i // 10,))
        tf.set_value(55, 0, 42)
        got = list(tf.scan_column(0))
        assert got[55] == 42
        assert got[54] == 5 and got[56] == 5

    def test_rle_random_data_roundtrip(self):
        import random

        rng = random.Random(5)
        _, _, tf = make_tf([DataType.INT], compress="rle")
        values = [rng.randrange(1000) for _ in range(500)]
        for v in values:
            tf.append_row((v,))
        assert list(tf.scan_column(0)) == values

    def test_unknown_compression_rejected(self):
        with pytest.raises(StorageError, match="unsupported compression"):
            make_tf([DataType.INT], compress="lz4")


class TestChainIntegrity:
    """A truncated page chain must fail loudly, not stop the chunk stream.

    Before the fix, ``scan_column_chunks`` raised ``StopIteration`` inside
    the generator when a column's chain ran dry, which PEP 479 converts to
    an opaque ``RuntimeError`` in the consuming pipeline.
    """

    def test_truncated_chain_raises_storage_error(self):
        _, _, tf = make_tf([DataType.INT, DataType.FLOAT], block_size=128)
        for i in range(200):
            tf.append_row((i, float(i)))
        tf._columns[0].pages.pop()  # doctor: drop the column's last page
        with pytest.raises(StorageError, match="column 0"):
            for _ in tf.scan_column_chunks([0, 1], chunk_size=64):
                pass

    def test_error_names_the_shortfall(self):
        _, _, tf = make_tf([DataType.INT], block_size=128)
        for i in range(200):
            tf.append_row((i,))
        tf._columns[0].pages.pop()
        with pytest.raises(StorageError, match="missing"):
            list(tf.scan_column_chunks([0], chunk_size=50))

    def test_intact_chain_never_raises(self):
        _, _, tf = make_tf([DataType.INT], block_size=128)
        values = list(range(150))
        for v in values:
            tf.append_row((v,))
        flat = [v for chunk in tf.scan_column_chunks([0], 64) for v in chunk[0]]
        assert flat == values


class TestDamagedPage:
    """A page that cannot hold what its count says fails typed, naming itself."""

    def damaged(self, compress, damage):
        disk, pool, tf = make_tf([DataType.FLOAT, DataType.INT], compress=compress)
        tf.append_rows([(float(i), i) for i in range(300)])
        pool.clear()
        meta = tf._columns[0].pages[1]
        block = disk._state.blocks[meta.page_no]
        disk._state.blocks[meta.page_no] = damage(block)
        return tf, meta

    @pytest.mark.parametrize("compress", [None, "rle"])
    def test_truncated_block(self, compress):
        tf, meta = self.damaged(compress, lambda block: block[:40])
        message = rf"page {meta.page_no} .*{meta.count} values .*38 bytes available"
        with pytest.raises(PageError, match=message):
            list(tf.scan_column_chunks([0, 1], chunk_size=64))
        with pytest.raises(PageError, match=message):
            tf.get_value(meta.first_row, 0)
        with pytest.raises(PageError, match=message):
            tf.set_value(meta.first_row, 0, 1.0)
        # The other column and the pages before the damage still read.
        assert list(tf.scan_column(1)) == list(range(300))
        assert tf.get_value(0, 0) == 0.0

    @pytest.mark.parametrize("compress", [None, "rle"])
    def test_zeroed_block(self, compress):
        tf, meta = self.damaged(compress, lambda block: bytes(len(block)))
        message = f"page {meta.page_no} holds 0 values, metadata says {meta.count}"
        with pytest.raises(PageError, match=message):
            list(tf.scan_column_chunks([0], chunk_size=64))
        with pytest.raises(PageError, match=message):
            tf.get_value(meta.first_row, 0)
        with pytest.raises(PageError, match=message):
            tf.set_value(meta.first_row, 0, 1.0)

    def test_zeroed_tail_of_an_rle_block(self):
        # In a plain page zeros are NA markers; in an RLE page they are runs
        # of no values, and the page no longer adds up to its count.
        tf, meta = self.damaged("rle", lambda block: block[:60] + bytes(len(block) - 60))
        message = f"page {meta.page_no} .* values, its count says {meta.count}"
        with pytest.raises(PageError, match=message):
            list(tf.scan_column_chunks([0], chunk_size=64))
        with pytest.raises(PageError, match=message):
            tf.get_value(meta.first_row, 0)
        with pytest.raises(PageError, match=message):
            tf.set_value(meta.first_row, 0, 1.0)


class TestRewriteThatDoesNotFit:
    def test_refused_set_leaves_the_page_readable_as_it_is(self):
        _, _, tf = make_tf([DataType.FLOAT], block_size=64, compress="rle")
        # Four runs fill a 64-byte page; the fifth value starts the next.
        tf.append_rows([(0.0,)] * 10 + [(1.0,), (2.0,), (3.0,), (4.0,)])
        assert [p.count for p in tf._columns[0].pages] == [13, 1]
        assert tf.get_value(5, 0) == 0.0  # memoizes the page
        with pytest.raises(StorageError, match="no longer fits"):
            tf.set_value(5, 0, -1.0)  # would split the first run in three
        assert tf.get_value(5, 0) == 0.0
