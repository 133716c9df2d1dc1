import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probestream.codec import CodecStreamState, decode_frame, encode_frame
from probestream.packing import (
    PlaneSet,
    SlotOverflowError,
    UpdateAtlasLayout,
    apply_update_entries,
    build_update_atlas,
    pack_color,
    pack_texels,
    reconstruct_guard_band,
    unpack_color,
    unpack_texels,
    widened_width,
)
from probestream.volume import BLOCK_SIDE, AtlasKind, ProbeAtlas


def random_color_texels(rng, h, w):
    return rng.integers(0, 2**30, size=(h, w), dtype=np.uint32)


def random_visibility_texels(rng, h, w):
    """Visibility texels as the update atlas holds them: big-endian halves."""
    return rng.integers(0, 2**16, size=(h, w, 2), dtype=np.uint16).astype(">u2")


class TestColorPacking:
    def test_direct_channel_copy(self):
        texel = np.array([[1023 | (0 << 10) | (512 << 20)]], dtype=np.uint32)
        planes = pack_color(texel)
        assert planes[0, 0, 0] == 1023
        assert planes[1, 0, 0] == 0
        assert planes[2, 0, 0] == 512

    def test_random_64x64_round_trip(self):
        rng = np.random.default_rng(5)
        texels = random_color_texels(rng, 64, 64)
        planes = pack_color(texels)
        out = unpack_color(planes)
        # alpha bits are dropped by design; RGB bits survive exactly
        assert np.array_equal(out, texels & 0x3FFFFFFF)

    def test_all_zero(self):
        planes = pack_color(np.zeros((8, 8), dtype=np.uint32))
        assert not planes.any()

    @pytest.mark.parametrize("plane", [0, 1, 2])
    def test_unpack_rejects_elements_past_10_bits(self, plane):
        # the 10-bit check is `unpack_texels`'s, over the whole planes
        data = np.zeros((3, 2, 3), dtype=np.uint16)
        data[plane, 1, 2] = 1024
        with pytest.raises(ValueError, match="10-bit"):
            unpack_texels(PlaneSet(AtlasKind.COLOR, data), AtlasKind.COLOR, 3)
        data[plane, 1, 2] = 1023
        assert np.array_equal(unpack_texels(PlaneSet(AtlasKind.COLOR, data), AtlasKind.COLOR, 3), data)

    def test_elements_stay_below_1024(self):
        rng = np.random.default_rng(6)
        texels = rng.integers(0, 2**32, size=(32, 32), dtype=np.uint32)
        planes = pack_color(texels)
        assert planes.max() < 1024

    @pytest.mark.parametrize("shape", [(), (5,), (4, 8, 8), (2, 3, 4, 5)])
    def test_texels_of_any_shape(self, shape):
        # one plane axis in front of the texels' own, whatever they are
        texels = np.random.default_rng(7).integers(0, 2**30, size=shape, dtype=np.uint32)
        planes = pack_color(texels)
        assert planes.shape == (3, *shape) and planes.dtype == np.uint16
        assert np.array_equal(unpack_color(planes), texels)

    def test_alpha_bits_dropped(self):
        texel = np.array([[(3 << 30) | 7]], dtype=np.uint32)
        assert unpack_color(pack_color(texel))[0, 0] == 7


class TestWidenedWidth:
    """A visibility row is whole 3-texel groups, so its planes are exactly
    4/3 as wide; any other width is refused."""

    def test_examples(self):
        assert widened_width(3) == 4
        assert widened_width(18) == 24
        assert widened_width(0) == 0
        assert widened_width(768) == 1024  # the update atlas of 2048 slots
        for x in (1, 2, 4, 17, -3):
            with pytest.raises(ValueError):
                widened_width(x)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-10, 10_000))
    def test_formula(self, x):
        if x < 0 or x % 3:
            with pytest.raises(ValueError):
                widened_width(x)
        else:
            assert widened_width(x) == 4 * x // 3


class TestVisibilityPacking:
    def test_three_texels_fill_four_triples(self):
        texels = np.tile(
            np.array([[0x1234, 0xABCD]], dtype=np.uint16), (1, 3)
        ).reshape(1, 3, 2).astype(">u2")
        planes = pack_texels(texels, AtlasKind.VISIBILITY)
        assert planes.data.shape == (3, 1, 4)
        stream = planes.data.transpose(1, 2, 0).reshape(-1)
        expected = bytes([0x12, 0x34, 0xAB, 0xCD] * 3)
        assert stream.tobytes() == expected  # 12 bytes, no pad

    def test_single_texel_row_layout(self):
        # a row of one texel is no whole 3-texel group: refused both ways
        kind = AtlasKind.VISIBILITY
        texels = np.array([[[0x0102, 0x0304]]], dtype=">u2")
        with pytest.raises(ValueError):
            pack_texels(texels, kind)
        with pytest.raises(ValueError):
            unpack_texels(PlaneSet(kind, np.zeros((3, 1, 2), np.uint8)), kind, 1)
        # the same texel first in a row of three
        planes = pack_texels(np.concatenate([texels, np.zeros((1, 2, 2), ">u2")], axis=1, dtype=">u2"), kind)
        y, u, v = planes.data
        assert (y[0, 0], u[0, 0], v[0, 0], y[0, 1]) == (1, 2, 3, 4)

    def test_random_block_round_trip_with_extremes(self):
        rng = np.random.default_rng(9)
        texels = random_visibility_texels(rng, 18, 18)
        texels[0, 0] = (0xFFFF, 0xFFFF)
        texels[1, 1] = (0x7FFF, 0x8000)  # NaN payload and signed zero patterns
        planes = pack_texels(texels, AtlasKind.VISIBILITY)
        out = unpack_texels(planes, AtlasKind.VISIBILITY, 18)
        assert np.array_equal(out, texels)

    def test_pad_bytes_zero(self):
        # a row of 5 texels would need pad bytes: refused both ways
        rng, kind = np.random.default_rng(10), AtlasKind.VISIBILITY
        with pytest.raises(ValueError):
            pack_texels(random_visibility_texels(rng, 4, 5), kind)
        with pytest.raises(ValueError):
            unpack_texels(PlaneSet(kind, np.zeros((3, 4, 7), np.uint8)), kind, 5)
        # a row of 6 holds no pad byte: its stream is the texel bytes alone
        texels = random_visibility_texels(rng, 4, 6)
        stream = pack_texels(texels, kind).data.transpose(1, 2, 0).reshape(4, -1)
        assert stream.tobytes() == texels.tobytes()

    def test_planes_in_any_layout_unpack(self):
        # `pack_texels`'s planes unpack to a view; planar-contiguous
        # copies of them unpack to equal texels through one copy
        kind = AtlasKind.VISIBILITY
        texels = random_visibility_texels(np.random.default_rng(11), 16, 48)
        planes = pack_texels(texels, kind)
        assert planes.data.transpose(1, 2, 0).flags.c_contiguous
        assert np.shares_memory(unpack_texels(planes, kind, 48), planes.data)
        planar = PlaneSet(kind, np.ascontiguousarray(planes.data))
        out = unpack_texels(planar, kind, 48)
        assert not np.shares_memory(out, planar.data)
        assert np.array_equal(out, texels) and not out.flags.writeable

    def test_planes_are_read_only_for_texels_in_any_layout(self):
        # every other texel of a row: not C-contiguous, so packed through a
        # copy, which is read-only as the view of contiguous texels is
        kind = AtlasKind.VISIBILITY
        texels = random_visibility_texels(np.random.default_rng(12), 16, 96)[:, ::2]
        planes = pack_texels(texels, kind)
        assert not planes.data.flags.writeable
        assert np.array_equal(unpack_texels(planes, kind, 48), texels)

    def test_width_mismatch_rejected(self):
        planes = pack_texels(np.zeros((2, 3, 2), dtype=">u2"), AtlasKind.VISIBILITY)
        for width in (4, 6):
            with pytest.raises(ValueError):
                unpack_texels(planes, AtlasKind.VISIBILITY, width)

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 24),
        seed=st.integers(0, 2**20),
    )
    def test_round_trip_property(self, h, w, seed):
        rng = np.random.default_rng(seed)
        texels = random_visibility_texels(rng, h, w)
        kind = AtlasKind.VISIBILITY
        if w % 3:
            with pytest.raises(ValueError):
                pack_texels(texels, kind)
            return
        assert np.array_equal(unpack_texels(pack_texels(texels, kind), kind, w), texels)


def _reference_visibility_planes(texels):
    """Byte distribution one texel and one byte at a time: per row the
    stream s holds each half most significant byte first, and
    Y[p] = s[3p], U[p] = s[3p+1], V[p] = s[3p+2]."""
    h, w, _ = texels.shape
    planes = np.zeros((3, h, 4 * w // 3), dtype=np.uint8)
    for y, row in enumerate(texels.tolist()):
        s = []
        for r, g in row:
            s += [r >> 8, r & 0xFF, g >> 8, g & 0xFF]
        for c in range(3):
            planes[c, y] = s[c::3]
    return planes


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 26)),
    seed=st.integers(0, 2**20),
)
# the visibility update atlas of 2048 slots
@example(h=688, w=768, seed=5)
def test_visibility_packing_matches_scalar_reference(h, w, seed):
    rng = np.random.default_rng(seed)
    values = np.array([0x0000, 0x00FF, 0xFF00, 0xFFFF], dtype=np.uint16)
    texels = rng.choice(values, size=(h, w, 2)).astype(">u2")
    kind = AtlasKind.VISIBILITY
    if w % 3:
        # a row that is not whole 3-texel groups is refused both ways
        with pytest.raises(ValueError):
            pack_texels(texels, kind)
        with pytest.raises(ValueError):
            unpack_texels(PlaneSet(kind, np.zeros((3, h, -(-4 * w // 3)), np.uint8)), kind, w)
        return
    planes = pack_texels(texels, kind)
    out = unpack_texels(planes, kind, w)
    assert planes.data.dtype == np.uint8
    assert np.array_equal(planes.data, _reference_visibility_planes(texels))
    assert out.dtype == np.dtype(">u2") and out.shape == (h, w, 2)
    assert not out.flags.writeable
    assert np.array_equal(out, texels)


# --- per-probe reference for the batched slot copies ---------------------------


def reference_block(atlas, probe):
    """Probe's block by explicit origin arithmetic, as a writable view."""
    side = atlas.kind.block_side
    y, x = side * (probe // atlas.probes_per_row), side * (probe % atlas.probes_per_row)
    return atlas.texels[y : y + side, x : x + side]


def reference_slot(layout, texels, slot):
    """Slot's core region by explicit origin arithmetic, as a writable view."""
    s = layout.core_side
    y, x = s * (slot // layout.slots_per_row), s * (slot % layout.slots_per_row)
    return texels[y : y + s, x : x + s]


def packed_the_old_way(texels, kind):
    """Planes of an update atlas held as probe atlas texels (uint32 colour,
    native visibility pairs), converted whole."""
    if kind is AtlasKind.COLOR:
        return PlaneSet(kind, pack_color(texels))
    return pack_texels(texels.astype(">u2"), kind)


def unpacked_the_old_way(planes, kind):
    """Planes unpacked whole to probe atlas texels; colour's alpha bits,
    which no plane holds, come back zero."""
    if kind is AtlasKind.COLOR:
        return unpack_color(unpack_texels(planes, kind, planes.width))
    return unpack_texels(planes, kind, planes.width * 3 // 4)


def as_atlas_texels(update_texels, kind):
    """An update atlas as probe atlas texels, unpacked whole."""
    return unpacked_the_old_way(pack_texels(update_texels, kind), kind)


def reference_build(selected, layout, source, update_texels):
    entries = layout.assign(selected)
    for slot, probe in entries:
        reference_slot(layout, update_texels, slot)[:] = reference_block(source, probe)[1:-1, 1:-1]
    return entries


def reference_apply(entries, update_texels, layout, target):
    for slot, probe in entries:
        core = reference_slot(layout, update_texels, slot)
        reference_block(target, probe)[:] = reconstruct_guard_band(core)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(AtlasKind)),
    probe_count=st.integers(1, 30),
    per_row=st.integers(1, 7),
    slot_count=st.integers(1, 9),
    history=st.lists(st.lists(st.integers(0, 10**6), max_size=9), max_size=8),
    seed=st.integers(0, 2**20),
)
# 11 probes in rows of 3 and 7 slots in a 3x3 grid: both end in padding; the
# second update selects nothing, and the third and fourth evict
@example(
    kind=AtlasKind.VISIBILITY, probe_count=11, per_row=3, slot_count=7,
    history=[[0, 10], [], [1, 2, 3, 4, 5, 6], [7, 8], [10, 2]], seed=0,
)
def test_batched_slot_copies_match_per_probe_reference(
    kind, probe_count, per_row, slot_count, history, seed
):
    rng = np.random.default_rng(seed)
    source = ProbeAtlas(kind, probe_count, probes_per_row=per_row)
    target = ProbeAtlas(kind, probe_count, probes_per_row=per_row)
    expect_target = copy.deepcopy(target)
    layout = UpdateAtlasLayout(slot_count, kind.core_side)
    twin = UpdateAtlasLayout(slot_count, kind.core_side)
    texels = np.zeros(layout.texel_shape(kind), layout.texel_dtype(kind))
    # the reference holds its atlas the old way, as probe atlas texels
    expect_texels = np.zeros((layout.height, layout.width, *source.texels.shape[2:]), source.texels.dtype)
    for ids in history:
        # ids folded into the volume, no more than the slots hold
        selected = sorted({i % probe_count for i in ids})[:slot_count]
        source.texels[:] = rng.integers(
            0, np.iinfo(source.texels.dtype).max, source.texels.shape, source.texels.dtype, True
        )
        texels, entries = build_update_atlas(selected, layout, source, texels)
        assert entries == reference_build(selected, twin, source, expect_texels)
        planes = packed_the_old_way(expect_texels, kind)
        assert pack_texels(texels, kind).equals(planes)
        apply_update_entries(entries, texels, layout, target)
        reference_apply(entries, unpacked_the_old_way(planes, kind), twin, expect_target)
        assert np.array_equal(target.texels, expect_target.texels)


def test_client_atlas_stays_native_and_bit_exact_through_unpacked_views():
    """Decoded visibility planes unpack to read-only big-endian views;
    `apply_update_entries` byteswaps only the cores it copies, so the client
    atlas stays native ``uint16`` and equal to the source, frame after frame."""
    rng = np.random.default_rng(40)
    kind = AtlasKind.VISIBILITY
    source = ProbeAtlas(kind, 20, probes_per_row=5)
    target = ProbeAtlas(kind, 20, probes_per_row=5)
    layout, twin = UpdateAtlasLayout(9, kind.core_side), UpdateAtlasLayout(9, kind.core_side)
    enc, dec = CodecStreamState(1, "encoder"), CodecStreamState(1, "decoder")
    texels = None
    for selected in ([0, 3, 19], [3, 4], [], [1, 2, 5, 6, 7, 8, 9, 10, 11]):
        source.texels[:] = rng.integers(0, 2**16, source.texels.shape, np.uint16)
        texels, entries = build_update_atlas(selected, layout, source, texels)
        decoded = decode_frame(encode_frame(pack_texels(texels, kind), enc), dec)
        unpacked = unpack_texels(decoded, kind, twin.width)
        assert unpacked.dtype == np.dtype(">u2") and not unpacked.flags.writeable
        assert np.shares_memory(unpacked, decoded.data)
        assert twin.assign(selected) == entries
        apply_update_entries(entries, unpacked, twin, target)
        assert target.texels.dtype == np.uint16 and target.texels.dtype.isnative
        for probe in selected:
            expect = reconstruct_guard_band(reference_block(source, probe)[1:-1, 1:-1])
            assert np.array_equal(reference_block(target, probe), expect)


def slot_mask(layout, slots):
    """Which texels of the update atlas's grid lie in `slots`."""
    mask = np.zeros((layout.height, layout.width), bool)
    for slot in slots:
        reference_slot(layout, mask, slot)[:] = True
    return mask


@pytest.mark.parametrize("kind", list(AtlasKind))
def test_pack_and_unpack_are_views_and_a_build_writes_only_its_slots(kind):
    """`pack_texels` is a read-only view of the update atlas and
    `unpack_texels` one of the decoded planes, so the atlas's bytes are the
    plane bytes; a build leaves every byte outside its entries' slots."""
    rng = np.random.default_rng(41)
    source = ProbeAtlas(kind, 20, probes_per_row=5)
    layout = UpdateAtlasLayout(9, kind.core_side)
    enc, dec = CodecStreamState(2, "encoder"), CodecStreamState(2, "decoder")
    texels, _ = build_update_atlas(list(range(9)), layout, source)
    for selected in ([0, 3, 19], [3, 4], [], [1, 2, 5, 6, 7, 8, 9, 10, 11]):
        source.texels[:] = rng.integers(1, 2**16, source.texels.shape, source.texels.dtype)
        before = texels.copy()
        texels, entries = build_update_atlas(selected, layout, source, texels)
        outside = ~slot_mask(layout, [slot for slot, _ in entries])
        if kind is AtlasKind.COLOR:
            assert np.array_equal(texels[:, outside], before[:, outside])
        else:
            assert np.array_equal(texels[outside], before[outside])
        planes = pack_texels(texels, kind)
        assert not planes.data.flags.writeable and np.shares_memory(planes.data, texels)
        decoded = decode_frame(encode_frame(planes, enc), dec)
        unpacked = unpack_texels(decoded, kind, layout.width)
        assert not unpacked.flags.writeable and np.shares_memory(unpacked, decoded.data)
        assert np.array_equal(unpacked, texels)


@pytest.mark.parametrize("kind", list(AtlasKind))
def test_unpack_texels_refuses_planes_of_another_width_or_kind(kind):
    # one width check for both kinds: the texel width the planes pack from
    layout = UpdateAtlasLayout(9, kind.core_side)
    texels = np.zeros(layout.texel_shape(kind), layout.texel_dtype(kind))
    planes = pack_texels(texels, kind)
    assert np.array_equal(unpack_texels(planes, kind, layout.width), texels)
    for width in (layout.width - 3, layout.width + 3, 2 * layout.width):
        with pytest.raises(ValueError, match="texels per row"):
            unpack_texels(planes, kind, width)
    other = AtlasKind.VISIBILITY if kind is AtlasKind.COLOR else AtlasKind.COLOR
    width = planes.width if other is AtlasKind.COLOR else planes.width * 3 // 4
    with pytest.raises(ValueError, match="texels per row"):
        unpack_texels(planes, other, width)


@pytest.mark.parametrize("kind", list(AtlasKind))
@pytest.mark.parametrize("slots", [1, 9, 512, 2048])
def test_plane_shape_is_what_the_update_atlas_packs_to(kind, slots):
    # the one rule for a kind's plane width, which `ClientStream` reads
    # before it decodes and `unpack_texels` checks against
    layout = UpdateAtlasLayout(slots, kind.core_side)
    texels = np.zeros(layout.texel_shape(kind), layout.texel_dtype(kind))
    shape = UpdateAtlasLayout.plane_shape(kind, layout.height, layout.width)
    assert pack_texels(texels, kind).data.shape == shape
    assert shape[2] == (layout.width if kind is AtlasKind.COLOR else 4 * layout.width // 3)


def test_pack_texels_refuses_probe_atlas_texels():
    # uint32 colour texels or native visibility pairs are no update atlas
    with pytest.raises(ValueError):
        pack_texels(np.zeros((16, 48), np.uint32), AtlasKind.COLOR)
    with pytest.raises(ValueError):
        pack_texels(np.zeros((16, 48, 2), np.uint16), AtlasKind.VISIBILITY)


class TestGuardBand:
    def test_color_reduction_is_36_percent(self):
        # a colour probe block of the atlas, and the core sent in a slot
        block = ProbeAtlas(AtlasKind.COLOR, 1).blocks()[0, 0]
        core = block[1:-1, 1:-1]
        assert core.shape == (8, 8)
        assert 1 - core.size / block.size == pytest.approx(0.36)

    def test_visibility_reduction_is_21_percent(self):
        block = ProbeAtlas(AtlasKind.VISIBILITY, 1).blocks()[0, 0]
        core = block[1:-1, 1:-1]
        assert core.shape == (16, 16, 2)
        assert 1 - core.size / block.size == pytest.approx(1 - 256 / 324)

    def test_constant_block_reconstructs_exactly(self):
        block = np.full((10, 10), 77, dtype=np.uint32)
        assert np.array_equal(reconstruct_guard_band(block[1:-1, 1:-1]), block)

    def test_strip_then_reconstruct_identity_on_wrapped_blocks(self):
        rng = np.random.default_rng(4)
        core = rng.integers(0, 2**30, size=(8, 8), dtype=np.uint32)
        block = reconstruct_guard_band(core)
        assert np.array_equal(reconstruct_guard_band(block[1:-1, 1:-1]), block)

    def test_wrap_rule_detail(self):
        core = np.arange(16, dtype=np.uint32).reshape(4, 4)
        block = reconstruct_guard_band(core)
        # top border mirrors core row 0; corners take the opposite core corner
        assert list(block[0, 1:-1]) == [3, 2, 1, 0]
        assert block[0, 0] == core[-1, -1]
        assert block[-1, -1] == core[0, 0]
        assert list(block[1:-1, 0]) == [12, 8, 4, 0]

    def test_small_block_rejected(self):
        # a 2x2 block has an empty core; a non-square core is no block's
        for core in (np.zeros((2, 2))[1:-1, 1:-1], np.zeros((2, 3))):
            with pytest.raises(ValueError):
                reconstruct_guard_band(core.astype(np.uint32))


class TestUpdateAtlas:
    def make_source(self, probe_count=16, seed=0, per_row=4):
        rng = np.random.default_rng(seed)
        atlas = ProbeAtlas(AtlasKind.COLOR, probe_count, probes_per_row=per_row)
        atlas.texels[:] = rng.integers(0, 2**30, size=atlas.texels.shape)
        return atlas

    def test_single_probe_empty_cache(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(8, AtlasKind.COLOR.core_side)
        texels, entries = build_update_atlas([5], layout, source)
        assert entries == [(0, 5)]
        assert np.array_equal(
            reference_slot(layout, as_atlas_texels(texels, AtlasKind.COLOR), 0),
            reference_block(source, 5)[1:-1, 1:-1],
        )

    def test_cached_probe_keeps_slot(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(8, AtlasKind.COLOR.core_side)
        _, first = build_update_atlas([5], layout, source)
        _, second = build_update_atlas([5], layout, source)
        assert first == second == [(0, 5)]

    def test_lowest_free_slot_rule(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(8, AtlasKind.COLOR.core_side)
        build_update_atlas([5], layout, source)
        _, entries = build_update_atlas([5, 9], layout, source)
        assert entries == [(0, 5), (1, 9)]

    def test_unselected_cached_slots_keep_contents(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(8, AtlasKind.COLOR.core_side)
        texels, _ = build_update_atlas([5], layout, source)
        before = reference_slot(layout, as_atlas_texels(texels, AtlasKind.COLOR), 0).copy()
        build_update_atlas([9], layout, source, texels)
        assert np.array_equal(reference_slot(layout, as_atlas_texels(texels, AtlasKind.COLOR), 0), before)

    def test_overflow_rejected(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(2, AtlasKind.COLOR.core_side)
        with pytest.raises(SlotOverflowError):
            build_update_atlas([1, 2, 3], layout, source)

    def test_eviction_is_lru_and_deterministic(self):
        layout = UpdateAtlasLayout(2, 8)
        layout.assign([1])  # slot 0
        layout.assign([2])  # slot 1
        layout.assign([2])  # refresh 2
        entries = layout.assign([3])  # evicts 1 (oldest)
        assert entries == [(0, 3)]
        assert layout.probe_slot == {2: 1, 3: 0}

    def test_twin_layouts_replay_identically(self):
        a = UpdateAtlasLayout(4, 8)
        b = UpdateAtlasLayout(4, 8)
        history = [[3, 1], [1], [7, 3, 2], [9], [1, 9]]
        for selected in history:
            assert a.assign(selected) == b.assign(list(reversed(selected)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.lists(st.integers(0, 30), max_size=12), min_size=1, max_size=12),
    )
    def test_eviction_matches_brute_force_min(self, slots, history):
        layout = UpdateAtlasLayout(slots, 8)
        # reference: a fresh `min` over every cached probe for each eviction
        probe_slot, last, free, tick = {}, {}, list(range(slots)), 0
        for selected in history:
            selected = sorted(set(selected))[:slots]
            tick += 1
            for probe in selected:
                if probe in probe_slot:
                    continue
                if free:
                    slot = free.pop(0)
                else:
                    victim = min(
                        (p for p in probe_slot if p not in selected),
                        key=lambda p: (last.get(p, 0), probe_slot[p]),
                    )
                    slot = probe_slot.pop(victim)
                probe_slot[probe] = slot
            last.update((p, tick) for p in selected)
            expect = sorted((probe_slot[p], p) for p in selected)
            assert layout.assign(selected) == expect
            assert layout.probe_slot == probe_slot
            # least recently selected first, ties by slot
            assert list(layout.probe_slot) == sorted(probe_slot, key=lambda p: (last[p], probe_slot[p]))
            # slots are handed out in order and never freed
            assert sorted(layout.probe_slot.values()) == list(range(len(layout.probe_slot)))

    def test_apply_entries_rebuilds_guard_band(self):
        source = self.make_source()
        layout = UpdateAtlasLayout(8, AtlasKind.COLOR.core_side)
        target = ProbeAtlas(AtlasKind.COLOR, source.probe_count, probes_per_row=4)
        texels, entries = build_update_atlas([3, 11], layout, source)
        apply_update_entries(entries, texels, layout, target)
        for probe in (3, 11):
            expect = reconstruct_guard_band(reference_block(source, probe)[1:-1, 1:-1])
            assert np.array_equal(reference_block(target, probe), expect)

    @pytest.mark.parametrize("probe", [-1, 7])
    def test_probe_outside_volume_rejected(self, probe):
        # 7 probes in rows of 3: blocks 7 and 8 are padding
        source = self.make_source(probe_count=7, per_row=3)
        layout = UpdateAtlasLayout(4, AtlasKind.COLOR.core_side)
        texels = np.zeros(layout.texel_shape(AtlasKind.COLOR), layout.texel_dtype(AtlasKind.COLOR))
        with pytest.raises(IndexError):
            build_update_atlas([2, probe], layout, source, texels)
        assert not texels.any()

    @pytest.mark.parametrize("probe", [-1, 7])
    def test_probe_outside_volume_leaves_layout(self, probe):
        # a twin layout that never sees the failed call must still match
        source = self.make_source(probe_count=7, per_row=3)
        layout = UpdateAtlasLayout(3, AtlasKind.COLOR.core_side)
        layout.assign([1, 4])
        layout.assign([4, 5])
        before = layout_state(layout)
        with pytest.raises(IndexError):
            build_update_atlas([2, probe], layout, source)
        assert layout_state(layout) == before

    @pytest.mark.parametrize(
        "core_side, texels",
        [
            (AtlasKind.VISIBILITY.core_side, None),  # a visibility layout for a colour atlas
            (AtlasKind.VISIBILITY.core_side, np.zeros((32, 32), np.uint32)),
            # the layout's grid is 16 x 48 texels, held as (3, 16, 48) uint16 planes
            (AtlasKind.COLOR.core_side, np.zeros((16, 48, 2), ">u2")),  # visibility's layout
            (AtlasKind.COLOR.core_side, np.zeros((3, 16, 24), np.uint16)),
            (AtlasKind.COLOR.core_side, np.zeros((3, 16, 48), np.uint8)),
            (AtlasKind.COLOR.core_side, np.zeros((16, 48), np.uint32)),  # probe atlas texels
            (AtlasKind.COLOR.core_side, np.zeros((3, 48, 16), np.uint16).transpose(0, 2, 1)),  # not C order
        ],
    )
    def test_mismatched_layout_or_texels_leave_layout(self, core_side, texels):
        source = self.make_source(probe_count=7, per_row=3)
        layout = UpdateAtlasLayout(4, core_side)
        layout.assign([1, 4])
        before = layout_state(layout)
        if texels is not None:
            texels[:] = 7
        with pytest.raises(ValueError):
            build_update_atlas([1, 2], layout, source, texels)
        assert layout_state(layout) == before
        assert texels is None or (texels == 7).all()

    def test_apply_refuses_texels_of_another_grid(self):
        # whole slots, but one slot row short of the layout's grid
        layout = UpdateAtlasLayout(7, AtlasKind.COLOR.core_side)
        texels = np.ones((3, layout.height - layout.core_side, layout.width), np.uint16)
        target = ProbeAtlas(AtlasKind.COLOR, 7, probes_per_row=3)
        with pytest.raises(ValueError):
            apply_update_entries([(0, 2)], texels, layout, target)
        assert not target.texels.any()

    @pytest.mark.parametrize("slot, probe", [(1, -1), (1, 7), (7, 3), (-1, 3)])
    def test_apply_out_of_range_leaves_target(self, slot, probe):
        # 7 probes in rows of 3 and 7 slots in a 6x2 grid: both end in padding
        source = self.make_source(probe_count=7, per_row=3)
        layout = UpdateAtlasLayout(7, AtlasKind.COLOR.core_side)
        texels, _ = build_update_atlas([2, 3], layout, source)
        target = ProbeAtlas(AtlasKind.COLOR, 7, probes_per_row=3)
        with pytest.raises(IndexError):
            apply_update_entries([(0, 2), (slot, probe)], texels, layout, target)
        assert not target.texels.any()


class TestSlotGrid:
    """The slot grid holds every slot, stays near square, and its planes are
    whole codec blocks."""

    def test_every_grid_holds_its_slots_in_whole_blocks(self):
        for kind in AtlasKind:
            across = 3 * BLOCK_SIDE // kind.core_side
            down = BLOCK_SIDE // kind.core_side
            for slot_count in range(1, 3001):
                layout = UpdateAtlasLayout(slot_count, kind.core_side)
                side = math.ceil(math.sqrt(slot_count))
                assert side <= layout.slots_per_row < side + across
                assert layout.slots_per_row * layout.slot_rows >= slot_count
                assert layout.slot_rows < math.ceil(slot_count / layout.slots_per_row) + down
                assert layout.width % (3 * BLOCK_SIDE) == 0 and layout.height % BLOCK_SIDE == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from(list(AtlasKind)))
    @example(2048, AtlasKind.COLOR)
    @example(2048, AtlasKind.VISIBILITY)
    def test_packed_update_atlas_is_whole_blocks(self, slot_count, kind):
        layout = UpdateAtlasLayout(slot_count, kind.core_side)
        texels = np.zeros(layout.texel_shape(kind), layout.texel_dtype(kind))
        planes = pack_texels(texels, kind)
        assert planes.height % BLOCK_SIDE == 0 and planes.width % BLOCK_SIDE == 0
        if slot_count == 2048:
            assert planes.data.shape[1:] == {AtlasKind.COLOR: (352, 384), AtlasKind.VISIBILITY: (688, 1024)}[kind]


def layout_state(layout):
    """The whole state of a layout, its order included: the taken slots are
    always ``0 ... len(probe_slot) - 1``."""
    return list(layout.probe_slot.items())


class TestPlaneSet:
    def test_kind_dtype_enforced(self):
        with pytest.raises(ValueError):
            from probestream.packing import PlaneSet

            PlaneSet(AtlasKind.COLOR, np.zeros((3, 2, 2), dtype=np.uint8))
