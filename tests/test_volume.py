import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.packing import pack_color, unpack_color
from probestream.volume import (
    AtlasKind,
    ProbeAtlas,
    ProbeVolume,
    changed_blocks,
    default_probes_per_row,
    oct_decode,
    oct_encode,
    texel_directions,
    throughput_bps,
)


def uniform_sphere(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestGridIndex:
    """Probe positions follow the row-major grid order, i fastest; with unit
    spacing at the origin, a probe's position is its (i, j, k)."""

    def test_origin(self):
        vol = ProbeVolume((16, 8, 16))
        np.testing.assert_array_equal(vol.probe_positions([0]), [[0, 0, 0]])

    def test_far_corner_matches_row_major_oracle(self):
        vol = ProbeVolume((16, 8, 16))
        # independent oracle: explicit enumeration position
        order = [
            (i, j, k) for k in range(16) for j in range(8) for i in range(16)
        ]
        assert order.index((15, 7, 15)) == 2047
        np.testing.assert_array_equal(vol.probe_positions([2047]), [[15, 7, 15]])

    def test_minimal_grid(self):
        vol = ProbeVolume((2, 2, 2))
        np.testing.assert_array_equal(vol.probe_positions([1]), [[1, 0, 0]])

    def test_out_of_range_rejected(self):
        vol = ProbeVolume((4, 4, 4))
        with pytest.raises(IndexError):
            vol.probe_positions([64])
        with pytest.raises(IndexError):
            vol.probe_positions([3, -1])

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(1, 64), st.integers(1, 64), st.integers(1, 64)
        ),
        sample=st.integers(0, 2**30),
    )
    def test_bijection(self, dims, sample):
        vol = ProbeVolume(dims)
        index = sample % vol.probe_count
        i, j, k = vol.probe_positions([index])[0].astype(np.int64)
        nx, ny, nz = dims
        assert 0 <= i < nx and 0 <= j < ny and 0 <= k < nz
        assert i + nx * (j + ny * k) == index

    def test_positions(self):
        vol = ProbeVolume((2, 2, 2), origin=(1.0, 2.0, 3.0), spacing=(0.5, 1.0, 2.0))
        np.testing.assert_allclose(
            vol.probe_positions(np.array([0, 7])), [[1.0, 2.0, 3.0], [1.5, 3.0, 5.0]]
        )


class TestOctahedral:
    def test_pole_maps_to_center(self):
        np.testing.assert_allclose(oct_encode(np.array([0.0, 0.0, 1.0])), [0.5, 0.5])

    def test_round_trip_1024_uniform(self):
        dirs = uniform_sphere(1024, seed=7)
        back = oct_decode(oct_encode(dirs))
        dots = np.clip(np.sum(dirs * back, axis=1), -1.0, 1.0)
        assert np.arccos(dots).max() < 1e-5

    def test_negative_pole_fold(self):
        uv = oct_encode(np.array([0.0, 0.0, -1.0]))
        # lower pole folds to a square corner
        assert np.all(np.isin(uv, [0.0, 1.0]))
        np.testing.assert_allclose(oct_decode(uv), [0.0, 0.0, -1.0], atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            oct_encode(np.zeros(3))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            oct_encode(np.array([0.0, 0.0, 2.0]))

    def test_texel_directions_are_unit(self):
        d = texel_directions(8)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)


class TestSizes:
    def test_color_block_bits(self):
        assert AtlasKind.COLOR.bits_per_probe == 10 * 10 * 32 == 3200

    def test_visibility_block_bits(self):
        assert AtlasKind.VISIBILITY.bits_per_probe == 18 * 18 * 32 == 10368

    def test_throughput_color(self):
        assert throughput_bps(10, 2048, AtlasKind.COLOR) / 2**20 == 62.5

    def test_throughput_visibility(self):
        assert throughput_bps(10, 2048, AtlasKind.VISIBILITY) / 2**20 == 202.5

    def test_throughput_zero_rate(self):
        assert throughput_bps(0, 2048, AtlasKind.COLOR) == 0
        assert throughput_bps(0, 2048, AtlasKind.VISIBILITY) == 0

    def test_combined_throughput(self):
        total = throughput_bps(10, 2048, AtlasKind.COLOR) + throughput_bps(
            10, 2048, AtlasKind.VISIBILITY
        )
        assert abs(total / 2**20 - 265.0) / 265.0 < 0.001


class TestAtlas:
    def test_default_probes_per_row(self):
        assert default_probes_per_row(256) == 16
        assert default_probes_per_row(128) == 16
        assert default_probes_per_row(2048) == math.ceil(math.sqrt(2048))
        # the default stands in only for an unset row width
        assert ProbeAtlas(AtlasKind.COLOR, 2048).probes_per_row == 46
        assert ProbeAtlas(AtlasKind.COLOR, 2048, 1).probes_per_row == 1
        for per_row in (0, -1):
            with pytest.raises(ValueError):
                ProbeAtlas(AtlasKind.COLOR, 2048, per_row)

    def test_block_extract_insert_identity(self):
        rng = np.random.default_rng(3)
        atlas = ProbeAtlas(AtlasKind.COLOR, 20, probes_per_row=4)
        atlas.texels[:] = rng.integers(0, 2**30, size=atlas.texels.shape)
        for probe in (0, 7, 19):
            y, x = 10 * (probe // 4), 10 * (probe % 4)
            index = atlas.block_index([probe])
            block = atlas.blocks()[index]
            assert np.array_equal(block[0], atlas.texels[y : y + 10, x : x + 10])
            atlas.blocks()[index] = 0
            assert not atlas.texels[y : y + 10, x : x + 10].any()
            atlas.blocks()[index] = block
            assert np.array_equal(atlas.blocks()[index], block)

    def test_core_is_interior(self):
        atlas = ProbeAtlas(AtlasKind.VISIBILITY, 4, probes_per_row=2)
        rows, cols = atlas.block_index([3])
        atlas.blocks()[rows, cols, 1:-1, 1:-1] = 5
        block = atlas.texels[18:36, 18:36]
        assert np.all(block[1:-1, 1:-1] == 5)
        assert np.all(block[0, :] == 0) and np.all(block[:, 0] == 0)

    def test_block_index_rejects_ids_outside_the_volume(self):
        # 18 probes in rows of 4: blocks 18 and 19 are padding
        atlas = ProbeAtlas(AtlasKind.COLOR, 18, probes_per_row=4)
        rows, cols = atlas.block_index([0, 5, 17])
        assert list(rows) == [0, 1, 4] and list(cols) == [0, 1, 1]
        for probe in (-1, 18, 19):
            with pytest.raises(IndexError):
                atlas.block_index([0, probe])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_channel_round_trip(self, r, g, b):
        # R in bits 0..9, G in 10..19, B in 20..29, as the atlas stores them
        texels = np.array([[r | (g << 10) | (b << 20)]], dtype=np.uint32)
        planes = pack_color(texels)
        assert tuple(planes[:, 0, 0]) == (r, g, b)
        assert np.array_equal(unpack_color(planes), texels)


def _reference_changed_blocks(cur, ref, side):
    """One block at a time, one (row, column) entry at a time, in Python
    integers: a block differs where any of its entries, with every trailing
    axis, does."""
    by, bx = cur.shape[0] // side, cur.shape[1] // side
    a, b = cur.tolist(), ref.tolist()
    out = np.zeros((by, bx), dtype=bool)
    for r in range(by):
        for c in range(bx):
            out[r, c] = any(
                a[y][x] != b[y][x]
                for y in range(r * side, (r + 1) * side)
                for x in range(c * side, (c + 1) * side)
            )
    return out


def _planes(rng, dtype, shape, transposed):
    """Random elements; `transposed` lays the last axis out outermost, as
    C-order (3, h, w) planes lie under their (h, w, 3) view, and a 2-D
    array column by column."""
    if transposed:
        return np.moveaxis(_planes(rng, dtype, (shape[-1], *shape[:-1]), False), 0, -1)
    return rng.integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype, endpoint=True)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(), (1,), (2,), (3,), (2, 3)]),
    st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]),
    st.sampled_from([10, 16, 18]),
    st.booleans(),
    st.data(),
)
def test_changed_blocks_match_scalar_reference(trailing, dtype, side, transposed, data):
    # trailing axes ride along inside the block; block rows of side x entry
    # bytes, whole words or not (side 10 of uint8 is five 2-byte words).
    # Bits flip in C-order bytes: in the block's first or last entry, in any
    # byte, at either side of a word boundary, and at the first and last
    # byte of a block row
    by = data.draw(st.integers(1, 3))
    bx = data.draw(st.integers(1, 3))
    h, w = by * side, bx * side
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ref = _planes(rng, dtype, (h, w, *trailing), transposed)
    entry = math.prod(trailing) * np.dtype(dtype).itemsize
    row_bytes = side * entry
    word = next(size for size in (8, 4, 2, 1) if row_bytes % size == 0)  # the words compared
    flipped = np.ascontiguousarray(ref).copy()
    flat = flipped.reshape(-1).view(np.uint8)
    place = st.tuples(
        st.sampled_from(["first", "last", "any", "word_edge", "row_first", "row_last"]),
        st.integers(0, by - 1),
        st.integers(0, bx - 1),
        st.integers(0, side - 1),
        st.integers(0, 7),
    )
    for where, r, c, y, bit in data.draw(st.lists(place, max_size=4)):
        if where in ("first", "last"):
            y = 0 if where == "first" else side - 1
        if where == "first":
            offset = data.draw(st.integers(0, entry - 1))
        elif where == "last":
            offset = data.draw(st.integers(row_bytes - entry, row_bytes - 1))
        elif where == "any":
            offset = data.draw(st.integers(0, row_bytes - 1))
        elif where == "word_edge":
            boundary = word * data.draw(st.integers(1, row_bytes // word))
            offset = min(boundary + data.draw(st.sampled_from([-1, 0])), row_bytes - 1)
        else:
            offset = 0 if where == "row_first" else row_bytes - 1
        flat[((r * side + y) * w + c * side) * entry + offset] ^= 1 << bit
    cur = ref.copy(order="K")
    cur[...] = flipped
    got = changed_blocks(cur, ref, side)
    assert got.shape == (by, bx)
    np.testing.assert_array_equal(got, _reference_changed_blocks(cur, ref, side))


@pytest.mark.parametrize(
    "shape, dtype, side, transposed",
    [
        ((810, 828), np.uint32, 18, False),  # a 2048-probe visibility atlas, a texel read as one uint32
        ((450, 460), np.uint32, 10, False),  # a 2048-probe colour atlas, as `detect_changed` reads it
        ((688, 1024, 3), np.uint8, 16, True),  # 2048-slot visibility planes in C order, copied to their row streams
        ((1056, 384), np.uint16, 16, False),  # 2048-slot colour planes as one (3h, w) array, as the codec reads them
        ((810, 828, 2), np.uint16, 18, False),  # a 2048-probe visibility atlas, as `detect_changed` reads it
        ((688, 1024, 3), np.uint8, 16, False),  # 2048-slot visibility row streams, as the codec reads them
    ],
)
def test_changed_blocks_match_scalar_reference_at_call_sizes(shape, dtype, side, transposed):
    # the benchmark's call sizes and layouts; bits flip in the first and the
    # last block row and in the last element
    height, width, *trailing = shape
    rng = np.random.default_rng(height)
    ref = _planes(rng, dtype, shape, transposed)
    cur = ref.copy(order="K")
    last = tuple(n - 1 for n in trailing)
    cur[(0, width // 3, *last)] ^= 1
    cur[(side - 1, width - 1, *last)] ^= 2
    cur[(height - side, 0, *last)] ^= 1
    cur[(height - 1, width // 2, *last)] ^= 2
    cur[(-1, -1, ...)] ^= 4
    np.testing.assert_array_equal(changed_blocks(cur, ref, side), _reference_changed_blocks(cur, ref, side))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(), (3,)]),
    st.sampled_from([10, 16, 18]),
    st.integers(0, 40),
    st.integers(0, 80),
)
def test_changed_blocks_refuse_shapes_that_are_not_whole_blocks(trailing, side, h, w):
    planes = np.zeros((h, w, *trailing), np.uint16)
    if h % side or w % side:
        with pytest.raises(ValueError, match="not whole"):
            changed_blocks(planes, planes, side)
    else:
        assert changed_blocks(planes, planes, side).shape == (h // side, w // side)


@pytest.mark.parametrize(
    "cur, ref",
    [
        # a broadcast would compare each plane with the one array
        (np.zeros((3, 16, 16), np.uint16), np.zeros((16, 16), np.uint16)),
        (np.zeros((16, 16), np.uint16), np.zeros((16, 16, 1), np.uint16)),
        # equal values of other element types, or of another byte order
        (np.zeros((16, 16), np.uint16), np.zeros((16, 16), np.uint8)),
        (np.zeros((16, 16), np.uint16), np.zeros((16, 16), ">u2")),
        (np.zeros((16, 16), np.uint32), np.zeros((16, 16), np.int32)),
    ],
    ids=["broadcast", "trailing-axis", "itemsize", "byte-order", "signedness"],
)
def test_changed_blocks_refuse_unequal_shapes_and_dtypes(cur, ref):
    for a, b in ((cur, ref), (ref, cur)):
        with pytest.raises(ValueError):
            changed_blocks(a, b, 16)


def test_changed_blocks_need_two_axes():
    with pytest.raises(ValueError):
        changed_blocks(np.zeros(16, np.uint8), np.zeros(16, np.uint8), 16)
