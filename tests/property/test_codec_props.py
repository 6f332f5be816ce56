"""The page codec against its written-down spec.

``encode_values`` and ``rle_encode_bytes`` pack a run of fixed-width values
per ``struct`` call; ``decode_column`` and ``rle_decode_column`` read a page
into a typed array, one ``np.frombuffer`` per run, and ``decode_values`` /
``rle_decode_bytes`` are their list views.  ``_encode_value`` /
``_decode_value`` are the same format one value at a time.  The bulk codec
has to produce the reference's bytes and read them back to the reference's
values, whatever the NA density, and a file appended in bulk has to be the
file appended row by row.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PageError
from repro.relational.types import ARRAY_DTYPES, NA, DataType, is_na
from repro.storage import compression as comp
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile

INT64 = (-(2**63), 2**63 - 1)
VALUES = {
    DataType.INT: st.one_of(st.integers(*INT64), st.sampled_from([*INT64, 0, -1])),
    DataType.FLOAT: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), 5e-324]),
    ),
    DataType.CATEGORY: st.integers(-(2**31), 2**31 - 1),
    DataType.BOOL: st.booleans(),
    DataType.STR: st.text(max_size=12),
}
NA_DENSITIES = (0.0, 0.02, 0.5, 1.0)


@st.composite
def typed_columns(draw, max_size=700):
    """(dtype, values): a column at one of the NA densities."""
    dtype = draw(st.sampled_from(sorted(VALUES, key=lambda d: d.value)))
    density = draw(st.sampled_from(NA_DENSITIES))
    cells = draw(
        st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), VALUES[dtype]),
            max_size=max_size,
        )
    )
    return dtype, [NA if u < density else v for u, v in cells]


def spelled(values):
    """Values as text: tells -0.0 from 0.0 and True from 1, as ``==`` does not."""
    return [repr(NA if is_na(v) else v) for v in values]


def reference_encode(values, dtype):
    return b"".join(comp._encode_value(v, dtype) for v in values)


def reference_decode(buf, dtype, count):
    out, pos = [], 0
    for _ in range(count):
        value, pos = comp._decode_value(buf, pos, dtype)
        out.append(value)
    return out


def reference_rle_encode(values, dtype):
    runs = comp.rle_runs(values)
    return struct.pack("<I", len(runs)) + b"".join(
        comp._encode_value(v, dtype) + struct.pack("<I", n) for v, n in runs
    )


def reference_rle_decode(buf, dtype):
    (n_runs,) = struct.unpack_from("<I", buf, 0)
    out, pos = [], 4
    for _ in range(n_runs):
        value, pos = comp._decode_value(buf, pos, dtype)
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        out.extend([value] * n)
    return out


@given(typed_columns(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_plain_codec_is_the_reference(column, padding):
    dtype, values = column
    raw = comp.encode_values(values, dtype)
    assert raw == reference_encode(values, dtype)
    padded = raw + bytes(padding)
    decoded = comp.decode_values(padded, dtype, len(values))
    assert spelled(decoded) == spelled(reference_decode(padded, dtype, len(values)))
    assert spelled(decoded) == spelled(values)
    assert comp.encoded_sizes(values, dtype) == [
        len(comp._encode_value(v, dtype)) for v in values
    ]


@given(typed_columns(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_rle_codec_is_the_reference(column, padding):
    dtype, values = column
    raw = comp.rle_encode_bytes(values, dtype)
    assert raw == reference_rle_encode(values, dtype)
    padded = raw + bytes(padding)
    decoded = comp.rle_decode_bytes(padded, dtype)
    assert spelled(decoded) == spelled(reference_rle_decode(padded, dtype))
    # A run keeps its first value, so 0.0 may stand for the -0.0 after it.
    assert decoded == [NA if is_na(v) else v for v in values]


def assert_typed(vector, dtype, reference):
    """``vector`` is ``dtype``'s array form of the ``reference`` values."""
    assert vector.kind == ARRAY_DTYPES[dtype].name
    assert spelled(vector.to_list()) == spelled(reference)
    assert [vector.item(i) for i in range(len(vector))] == vector.to_list()
    missing = [v is NA for v in reference]
    if vector.mask is None:
        assert not any(missing)
    else:
        assert vector.mask.tolist() == missing
        assert not vector.data[vector.mask].any()  # a masked slot holds zero


fixed_columns = typed_columns().filter(lambda column: column[0] in ARRAY_DTYPES)


@given(fixed_columns, st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_array_decoder_is_the_reference(column, padding):
    dtype, values = column
    plain = comp.encode_values(values, dtype) + bytes(padding)
    vector = comp.decode_column(plain, dtype, len(values))
    assert_typed(vector, dtype, reference_decode(plain, dtype, len(values)))
    rle = comp.rle_encode_bytes(values, dtype) + bytes(padding)
    for count in (None, len(values)):
        vector = comp.rle_decode_column(rle, dtype, count)
        assert_typed(vector, dtype, reference_rle_decode(rle, dtype))
    with pytest.raises(PageError, match="its runs hold"):
        comp.rle_decode_column(rle, dtype, len(values) + 1)


@given(typed_columns(max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_a_buffer_cut_short_is_a_page_error(column, data):
    dtype, values = column
    for raw, decode in (
        (comp.encode_values(values, dtype), lambda b: comp.decode_values(b, dtype, len(values))),
        (comp.encode_values(values, dtype), lambda b: comp.decode_column(b, dtype, len(values))),
        (comp.rle_encode_bytes(values, dtype), lambda b: comp.rle_decode_bytes(b, dtype)),
        (comp.rle_encode_bytes(values, dtype), lambda b: comp.rle_decode_column(b, dtype)),
    ):
        if not values:
            continue
        cut = data.draw(st.integers(0, len(raw) - 1))
        for buf in (raw[:cut], memoryview(bytearray(raw[:cut]))):
            with pytest.raises(PageError, match="bytes available"):
                decode(buf)


EDGES = {
    DataType.INT: [INT64[0], INT64[1], 0, -1],
    DataType.FLOAT: [-0.0, float("nan"), float("inf"), 1.5, 5e-324],
    DataType.CATEGORY: [-(2**31), 2**31 - 1, 7],
    DataType.BOOL: [True, False],
    DataType.STR: ["", "é", "x" * 300],
}


@pytest.mark.parametrize("dtype", list(EDGES), ids=lambda d: d.value)
def test_edge_pages(dtype):
    edges = EDGES[dtype]
    long_run = comp._MAX_RUN * 2 + 3  # more than one format's worth
    for values in (
        [edges[0]],
        [NA],
        [NA] * 9,
        [NA, *edges],
        [*edges, NA],
        [NA, *edges, NA, NA, *edges, NA],
        edges * (long_run // len(edges) + 1),
        # NA in every other slot takes the decoder to its per-value path, from
        # the start of the page and from part-way through it.
        [v for edge in edges * 30 for v in (edge, NA)],
        edges * 10 + [v for edge in edges * 60 for v in (NA, edge)],
        [],
    ):
        for encode, decode, reference in (
            (comp.encode_values, lambda b: comp.decode_values(b, dtype, len(values)), reference_encode),
            (comp.rle_encode_bytes, lambda b: comp.rle_decode_bytes(b, dtype), reference_rle_encode),
        ):
            raw = encode(values, dtype)
            assert raw == reference(values, dtype)
            for buf in (raw, raw + bytes(17), memoryview(bytearray(raw))):
                assert spelled(decode(buf)) == spelled(values)
        if dtype in ARRAY_DTYPES:
            buf = memoryview(bytearray(comp.encode_values(values, dtype) + bytes(17)))
            written = [NA if is_na(v) else v for v in values]
            assert_typed(comp.decode_column(buf, dtype, len(values)), dtype, written)


@given(typed_columns(max_size=200), st.sampled_from([None, "rle"]), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_a_page_whose_count_is_off_is_a_page_error(column, compress, off, data):
    dtype, values = column
    if not values:
        return
    pool = BufferPool(SimulatedDisk(block_size=128), capacity=2)
    file = TransposedFile(pool, [dtype], compress=compress)
    file.append_rows([(v,) for v in values])
    pool.flush_all()
    pool.clear()
    meta = data.draw(st.sampled_from(file._columns[0].pages))
    block = pool.disk._state.blocks[meta.page_no]
    (count,) = struct.unpack_from("<H", block, 0)
    pool.disk._state.blocks[meta.page_no] = struct.pack("<H", count + off) + block[2:]
    with pytest.raises(PageError, match=f"page {meta.page_no} "):
        list(file.scan_column_chunks([0], 64))
    with pytest.raises(PageError, match=f"page {meta.page_no} "):
        file.get_value(meta.first_row, 0)


@given(fixed_columns, st.data())
@settings(max_examples=100, deadline=None)
def test_a_value_written_in_place_leaves_the_page_encoded_afresh(column, data):
    dtype, values = column
    pool = BufferPool(SimulatedDisk(block_size=128), capacity=2)
    file = TransposedFile(pool, [dtype])
    file.append_rows([(v,) for v in values])
    present = [i for i, v in enumerate(values) if not is_na(v)]
    if present:
        for _ in range(data.draw(st.integers(1, 5))):
            row = data.draw(st.sampled_from(present))
            value = data.draw(VALUES[dtype].filter(lambda v: not is_na(v)))
            file.set_value(row, 0, value)
            values[row] = value
    pool.flush_all()
    for meta in file._columns[0].pages:
        block = pool.disk._state.blocks[meta.page_no]
        cells = values[meta.first_row : meta.first_row + meta.count]
        encoded = struct.pack("<H", meta.count) + comp.encode_values(cells, dtype)
        assert block == encoded + bytes(len(block) - len(encoded))


def test_out_of_range_int_is_refused_as_before():
    for dtype, value in ((DataType.INT, 2**63), (DataType.CATEGORY, 2**31)):
        with pytest.raises(struct.error):
            comp._encode_value(value, dtype)
        with pytest.raises(struct.error):
            comp.encode_values([1, value], dtype)


# -- layout: bulk append == row-at-a-time append ---------------------------------

ROW_TYPES = [DataType.INT, DataType.FLOAT, DataType.CATEGORY, DataType.BOOL, DataType.STR]
rows_strategy = st.lists(
    st.tuples(
        *(
            st.one_of(st.just(NA), VALUES[dtype] if dtype is not DataType.STR else st.text(max_size=24))
            for dtype in ROW_TYPES
        ),
        # A run-heavy column, so RLE pages hold long runs and short ones.
        st.sampled_from([0.0, 1.0, NA]),
    ),
    max_size=150,
)


def image(file):
    """Device blocks and page metadata of a flushed transposed file."""
    file.pool.flush_all()
    meta = [[(p.page_no, p.first_row, p.count) for p in c.pages] for c in file._columns]
    return dict(file.pool.disk._state.blocks), meta


def same_cells(got, rows, compress):
    got = [v for row in got for v in row]
    want = [NA if is_na(v) else v for row in rows for v in row]
    # An RLE run keeps its first value, so 0.0 may stand for the -0.0 after it.
    return got == want if compress else spelled(got) == spelled(want)


def batches(rows, cuts):
    edges = sorted({0, len(rows), *(c % (len(rows) + 1) for c in cuts)})
    return [rows[a:b] for a, b in zip(edges, edges[1:])]


@given(rows_strategy, st.lists(st.integers(0, 150), max_size=6), st.sampled_from([None, "rle"]))
@settings(max_examples=120, deadline=None)
def test_bulk_append_lays_pages_out_as_a_row_loop_does(rows, cuts, compress):
    types = [*ROW_TYPES, DataType.FLOAT]

    def build():
        return TransposedFile(
            BufferPool(SimulatedDisk(block_size=128), capacity=8), types, compress=compress
        )

    looped, bulk, batched = build(), build(), build()
    for row in rows:
        looped.append_row(row)
    bulk.append_rows(rows)
    for part in batches(rows, cuts):
        batched.append_rows(part)
    assert image(bulk) == image(looped)
    assert image(batched) == image(looped)
    assert same_cells(bulk.scan_rows(), rows, compress)


@given(rows_strategy, st.lists(st.integers(0, 150), max_size=4), st.sampled_from([None, "rle"]))
@settings(max_examples=60, deadline=None)
def test_sharded_bulk_append_lays_shards_out_as_a_row_loop_does(rows, cuts, compress):
    types = [*ROW_TYPES, DataType.FLOAT]

    def build():
        return ShardedTransposedFile(types, shards=2, compress=compress, block_size=128)

    looped, batched = build(), build()
    for row in rows:
        looped.append_row(row)
    for part in batches(rows, cuts):
        batched.append_rows(part)
    for shard in range(2):
        assert image(batched._files[shard]) == image(looped._files[shard])
    assert len(batched) == len(looped) == len(rows)
    assert same_cells(batched.scan_rows(), rows, compress)
