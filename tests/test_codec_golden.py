"""Wire-format pins for the frame codec.

`reference_decode` is a plain scalar decoder of the ``LPF5`` payload,
written from the format description in `probestream.codec`: it walks the
bitmap, the segment table, the blocks, the lanes and the elements in Python
loops and uses `zlib` only to inflate. Every golden sequence and every
frame of the hypothesis tests must decode through it to the planes that
were encoded.

The digests pin the format: sha256 over, frame by frame, the header without
its magic and its payload-length field, the P-frame bitmap and the inflated
stream. They leave out the deflate bytes, which may differ between zlib
builds while what they inflate to does not, and the magic, which is pinned
on its own, so a digest moves only when its own frames change. Any change
to a digest of an unchanged recipe is a change of the wire format and needs
a new `FRAME_MAGIC`. A changed recipe's new digest must be the one the
codec before the change codes it to. Every recipe's planes are whole
`BLOCK_SIDE` blocks, the only planes the codec takes.
"""

import copy
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.codec import (
    BLOCK_SIDE,
    FRAME_MAGIC,
    LANE_SEGMENT_BYTES,
    CodecStreamState,
    CorruptFrameError,
    EncodedFrame,
    decode_frame,
    encode_frame,
)
from probestream.packing import PlaneSet
from probestream.volume import AtlasKind

HEADER = struct.Struct("<4sBIIHHBBI")  # the last field is the payload length

# --- scalar reference decoder ------------------------------------------------


def _inflate(stream):
    inflater = zlib.decompressobj(-15)
    content = inflater.decompress(stream)
    assert inflater.eof and not inflater.unused_data
    return content


def segment_sizes(frame, bitmap):
    """The inflated sizes of a frame's deflate segments, in order, from its
    header and bitmap alone: per 16-bit run its low half, then its high
    half; the four lanes of an 8-bit key frame once a lane reaches
    `LANE_SEGMENT_BYTES`, else its whole stream; an 8-bit P-frame's whole
    stream; no segment of 0 bytes. A P-frame's marked position codes a
    block in every plane."""
    height, width = frame.height, frame.width
    if frame.key and frame.element_bits == 8:
        lane = height * 3 * width // 4
        sizes = [lane] * 4 if lane >= LANE_SEGMENT_BYTES else [4 * lane]
    elif frame.key:
        sizes = [height * width] * (2 * frame.plane_count)
    else:
        positions = (height // BLOCK_SIDE) * (width // BLOCK_SIDE)
        marked = sum(bitmap[k // 8] >> (7 - k % 8) & 1 for k in range(positions))
        elements = frame.plane_count * marked * BLOCK_SIDE * BLOCK_SIDE
        sizes = [elements] * (frame.element_bits // 8)
    return [size for size in sizes if size]


def read_segments(frame):
    """(bitmap, segments) of a frame, a key frame having no bitmap: each
    deflate segment read through the segment table, with the size it must
    inflate to by the format's rule."""
    if frame.key:
        bitmap = b""
    else:
        positions = (frame.height // BLOCK_SIDE) * (frame.width // BLOCK_SIDE)
        bitmap = frame.payload[: (positions + 7) // 8]
    sizes = segment_sizes(frame, bitmap)
    rest = frame.payload[len(bitmap) :]
    at = 4 * len(sizes)
    lengths = struct.unpack_from(f"<{len(sizes)}I", rest)
    assert at + sum(lengths) == len(rest)
    segments = []
    for length, size in zip(lengths, sizes):
        segments.append((rest[at : at + length], size))
        at += length
    return bitmap, segments


def inflated_segments(frame):
    """(bitmap, what each deflate segment inflates to) of a frame."""
    bitmap, segments = read_segments(frame)
    parts = [_inflate(segment) for segment, _ in segments]
    assert [len(part) for part in parts] == [size for _, size in segments]
    return bitmap, parts


def split_payload(frame):
    """(bitmap, inflated stream) of a frame; a key frame has no bitmap."""
    bitmap, parts = inflated_segments(frame)
    return bitmap, b"".join(parts)


def _run(content, start, count, bits):
    """The `count` values of the run at byte `start`: bytes as they are, or
    zig-zag codes as low bytes then high bytes, read back mod 2**16."""
    if bits == 8:
        return list(content[start : start + count])
    codes = [content[start + i] | content[start + count + i] << 8 for i in range(count)]
    return [((c >> 1) ^ -(c & 1)) % (1 << 16) for c in codes]


def lane_decode(content, height, width):
    """The three 8-bit planes of a key frame's inflated stream: per row, the
    lanes back into the row's byte stream, then the stream into the planes.
    A row's 3w bytes fill its four lanes of q bytes exactly."""
    q = 3 * width // 4
    assert 4 * q == 3 * width and len(content) == 4 * height * q
    out = [[[0] * width for _ in range(height)] for _ in range(3)]
    for y in range(height):
        stream = [content[(i % 4) * height * q + y * q + i // 4] for i in range(4 * q)]
        for i in range(3 * width):
            out[i % 3][y][i // 3] = stream[i]
    return np.array(out, dtype=np.uint8).reshape(3, height, width)


def reference_decode(frame, reference):
    """The planes of `frame`, one element at a time; `reference` is the
    previous frame's planes (an array) for a P-frame."""
    planes, height, width, bits = frame.plane_count, frame.height, frame.width, frame.element_bits
    mod, size = 1 << bits, bits // 8
    bitmap, content = split_payload(frame)
    if frame.key and bits == 8:
        return lane_decode(content, height, width)
    if frame.key:
        count = height * width
        assert len(content) == planes * count * size
        out = []
        for p in range(planes):
            r = _run(content, p * count * size, count, bits)
            plane = [[0] * width for _ in range(height)]
            for y in range(height):
                for x in range(width):
                    left = plane[y][x - 1] if x else 0
                    up = plane[y - 1][x] if y else 0
                    up_left = plane[y - 1][x - 1] if x and y else 0
                    plane[y][x] = (r[y * width + x] + left + up - up_left) % mod
            out.append(plane)
        return np.array(out, dtype=np.uint16).reshape(planes, height, width)
    # one bit per block position, for the blocks of every plane there:
    # plane by plane, the marked positions in raster order
    by, bx = height // BLOCK_SIDE, width // BLOCK_SIDE
    marks = [bitmap[k // 8] >> (7 - k % 8) & 1 for k in range(8 * len(bitmap))]
    assert not any(marks[by * bx :]), "pad bits must be zero"
    cells = []
    for p in range(planes):
        for k in range(by * bx):
            if marks[k]:
                row, col = k // bx, k % bx
                for y in range(row * BLOCK_SIDE, (row + 1) * BLOCK_SIDE):
                    for x in range(col * BLOCK_SIDE, (col + 1) * BLOCK_SIDE):
                        cells.append((p, y, x))
    assert len(content) == len(cells) * size
    out = reference.copy()
    for (p, y, x), residual in zip(cells, _run(content, 0, len(cells), bits)):
        out[p, y, x] = (int(out[p, y, x]) + residual) % mod
    return out


# --- seeded sequences --------------------------------------------------------


def _smooth(rng, shape, dtype, noise):
    """Gradient field plus noise, so intra and temporal DELTA both pay off."""
    h, w = shape
    top = 255 if dtype == np.uint8 else 1023
    yy, xx = np.mgrid[0:h, 0:w]
    field = (top / 3) * (1 + np.sin(yy / 7.0 + rng.random() * 6) * np.cos(xx / 11.0))
    field = field + rng.normal(0, noise, size=(3, h, w))
    return np.clip(np.rint(field), 0, top).astype(dtype)


def _sequence(name: str, seed: int):
    """(kind, gop, frames) for one named recipe."""
    rng = np.random.default_rng(seed)
    color, vis = AtlasKind.COLOR, AtlasKind.VISIBILITY
    if name in ("color_mutate", "color_edge", "color_40x56", "color_narrow", "vis_mutate"):
        kind = vis if name.startswith("vis") else color
        shape = {
            "color_mutate": (48, 48),
            "color_edge": (2 * BLOCK_SIDE, 2 * BLOCK_SIDE),
            "color_40x56": (48, 64),  # 40 x 56 padded to whole blocks; the name is the test's id
            "color_narrow": (48, BLOCK_SIDE),
            "vis_mutate": (48, 48),
        }[name]
        top = 1024 if kind is color else 256
        cur = _smooth(rng, shape, kind.plane_dtype, 2.0)
        frames = []
        for _ in range(9):
            mutate = rng.random(cur.shape) < 0.05
            cur[mutate] = rng.integers(0, top, size=int(mutate.sum()))
            frames.append(cur.copy())
        return kind, 4, frames
    if name == "color_all_skip":
        cur = _smooth(rng, (64, 80), np.uint16, 1.0)
        return color, 30, [cur] * 4
    if name == "color_noise_keys":
        frames = [rng.integers(0, 2**16, size=(3, 48, 48), dtype=np.uint16) for _ in range(3)]
        return color, 1, frames
    if name == "vis_noise_keys":
        frames = [rng.integers(0, 256, size=(3, 48, 64), dtype=np.uint8) for _ in range(3)]
        return vis, 1, frames
    if name == "color_offset":
        base = _smooth(rng, (48, 64), np.uint16, 3.0)
        return color, 30, [base + np.uint16(3 * i) for i in range(4)]
    if name in ("color_sparse", "vis_sparse"):
        kind = vis if name.startswith("vis") else color
        cur = _smooth(rng, (80, 64), kind.plane_dtype, 2.0)
        frames = [cur.copy()]
        for _ in range(4):
            for plane, row, col in zip(*(rng.integers(0, n, size=2) for n in (3, 5, 4))):
                cur[plane, row * BLOCK_SIDE + rng.integers(BLOCK_SIDE), col * BLOCK_SIDE] += 1
            frames.append(cur.copy())
        return kind, 30, frames
    if name == "vis_offset":
        base = _smooth(rng, (48, 48), np.uint8, 3.0)
        return vis, 30, [base + np.uint8(i) for i in range(4)]
    raise KeyError(name)


GOLDEN = {
    "color_mutate": "c5cf1c5daab201767f5427aeb6a4bafd648310b7aa78ca380104af8efa438301",
    "color_edge": "356f3b016ee10ee0c6c72fb9785118569782f4fc7f95cf288b08b43e11c0317e",
    "color_40x56": "9105784fc95be66abee39c32e610e7dd254ca4416112f278c3ffe24f5be7b09f",
    "color_narrow": "2744d9d056a373af4d46ae9bf14437ea517f667d7587747e6f80ce72935c6f89",
    "vis_mutate": "b077a44e04285aed997b974c59b99969cac687d0367c38f5971266189850d27b",
    "color_all_skip": "7adbac407dd9cbe0474865d0f203499a1403f1256dc88a5f32b0b8e3da14a416",
    "color_noise_keys": "034572a1439b0ec599590b33d0e915e4913bba86abea45faa4645c55f673102b",
    "vis_noise_keys": "a3e2408a9bb4f5e66cc387b2ed8e9859fc8dd8c4a034ea471375c53859c5db7a",
    "color_offset": "66dc7cec6a052f8fff5056934d9bf84abf3fdc029a26022b2d7cf8251969f0db",
    "vis_offset": "8de1f9a10c1ea1b23c3207e1c29d544284f7739abd9eab29b99c964ebce73707",
    "color_sparse": "ebf679396ef94cc86d96ddbadb81da917bcd9a6c22d21234aabf800dffd14fcb",
    "vis_sparse": "89da53d96610b4b23b74edd9d40f25c887b0e7ba9bd435c8e94c62416826dfff",
}


def sequence_digest(name: str, seed: int = 1) -> str:
    kind, gop, frames = _sequence(name, seed)
    enc = CodecStreamState(1, role="encoder", gop_length=gop)
    dec = CodecStreamState(1, role="decoder", gop_length=gop)
    digest = hashlib.sha256()
    previous = None
    for data in frames:
        planes = PlaneSet(kind, data)
        wire = encode_frame(planes, enc).to_bytes()
        frame = EncodedFrame.from_bytes(wire)
        assert HEADER.unpack_from(wire)[0] == FRAME_MAGIC
        assert HEADER.unpack_from(wire)[-1] == len(frame.payload)
        bitmap, content = split_payload(frame)
        digest.update(wire[4 : HEADER.size - 4])
        digest.update(bitmap)
        digest.update(content)
        assert np.array_equal(reference_decode(frame, previous), data)
        assert decode_frame(frame, dec).equals(planes)
        previous = data
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_bytes_pinned(name):
    assert sequence_digest(name) == GOLDEN[name]


def test_frame_magic_pinned():
    assert FRAME_MAGIC == b"LPF5"


def _marks(frame):
    """The changed-position bits of a P-frame, shape (block rows, block columns)."""
    by, bx = frame.height // BLOCK_SIDE, frame.width // BLOCK_SIDE
    bits = np.unpackbits(np.frombuffer(split_payload(frame)[0], np.uint8))
    return bits[: by * bx].reshape(by, bx)


def test_recipes_cover_every_mode():
    """The recipes hold key frames of both element sizes, and P-frames of
    both with no block, some blocks and every block marked changed."""
    seen = set()
    for name in GOLDEN:
        kind, gop, frames = _sequence(name, 1)
        enc = CodecStreamState(1, role="encoder", gop_length=gop)
        for data in frames:
            frame = encode_frame(PlaneSet(kind, data), enc)
            if frame.key:
                seen.add((frame.element_bits, "key"))
            else:
                marks = _marks(frame)
                seen.add((frame.element_bits, "all" if marks.all() else "some" if marks.any() else "none"))
    assert seen >= {(b, m) for b in (8, 16) for m in ("key", "all", "some")} | {(16, "none")}


@st.composite
def frame_sequences(draw):
    kind = draw(st.sampled_from([AtlasKind.COLOR, AtlasKind.VISIBILITY]))
    h = BLOCK_SIDE * draw(st.integers(1, 3))
    w = BLOCK_SIDE * draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(
        st.lists(st.sampled_from(["mutate", "offset", "noise", "same"]), min_size=1, max_size=4)
    )
    gop = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    top = 1024 if kind is AtlasKind.COLOR else 256
    cur = _smooth(rng, (h, w), kind.plane_dtype, draw(st.sampled_from([0.0, 1.0, 4.0])))
    frames = [cur.copy()]
    for step in steps:
        if step == "mutate":
            mutate = rng.random(cur.shape) < 0.1
            cur[mutate] = rng.integers(0, top, size=int(mutate.sum()))
        elif step == "offset":
            cur = cur + kind.plane_dtype(1)
        elif step == "noise":
            cur = rng.integers(0, np.iinfo(kind.plane_dtype).max + 1, size=cur.shape).astype(kind.plane_dtype)
        frames.append(cur.copy())
    return kind, gop, frames


@settings(max_examples=60, deadline=None)
@given(frame_sequences())
def test_encoder_matches_per_block_reference(case):
    kind, gop, frames = case
    enc = CodecStreamState(1, role="encoder", gop_length=gop)
    dec = CodecStreamState(1, role="decoder", gop_length=gop)
    previous = None
    for data in frames:
        planes = PlaneSet(kind, data)
        frame = encode_frame(planes, enc)
        assert np.array_equal(reference_decode(frame, None if frame.key else previous), data)
        assert decode_frame(frame, dec).equals(planes)
        previous = data


# --- sparse P-frames: the changed-position bitmap -----------------------------


@st.composite
def sparse_p_frames(draw):
    """A plane set, a copy with a few blocks changed, each in one plane,
    placed by one rule, and those blocks as (plane, block row, block
    column)."""
    kind = draw(st.sampled_from([AtlasKind.COLOR, AtlasKind.VISIBILITY]))
    # a few block rows, or many
    by = draw(st.one_of(st.integers(1, 3), st.integers(9, 19)))
    bx = draw(st.integers(1, 4))
    h, w = by * BLOCK_SIDE, bx * BLOCK_SIDE
    count = by * bx
    where = draw(st.sampled_from(["anywhere", "right_edge", "bottom_edge", "plane_edge", "byte_edge"]))
    blocks = set()
    for _ in range(draw(st.integers(1, 4))):
        plane, k = draw(st.integers(0, 2)), draw(st.integers(0, count - 1))
        if where == "plane_edge":  # the first or last block of a plane
            k = draw(st.sampled_from([0, count - 1]))
        elif where == "byte_edge":  # either side of a bitmap byte boundary
            k = min(k // 8 * 8 + draw(st.sampled_from([-1, 0])), count - 1) if k >= 8 else k
        row, col = divmod(k, bx)
        if where == "right_edge":
            col = bx - 1
        elif where == "bottom_edge":
            row = by - 1
        blocks.add((plane, row, col))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = int(np.iinfo(kind.plane_dtype).max)
    before = _smooth(rng, (h, w), kind.plane_dtype, draw(st.sampled_from([0.0, 2.0])))
    after = before.copy()
    for plane, row, col in sorted(blocks):
        y0, x0 = row * BLOCK_SIDE, col * BLOCK_SIDE
        region = after[plane, y0 : y0 + BLOCK_SIDE, x0 : x0 + BLOCK_SIDE]
        hit = rng.random(region.shape) < draw(st.sampled_from([0.02, 0.3, 1.0]))
        hit.flat[rng.integers(hit.size)] = True  # the block does change
        region[hit] += rng.integers(1, top, size=int(hit.sum()), dtype=kind.plane_dtype, endpoint=True)
    return kind, before, after, blocks


@settings(max_examples=80, deadline=None)
@given(sparse_p_frames())
def test_sparse_p_frames_match_per_block_reference(case):
    kind, before, after, blocks = case
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    decode_frame(encode_frame(PlaneSet(kind, before), enc), dec)
    planes = PlaneSet(kind, after)
    frame = encode_frame(planes, enc)
    assert not frame.key
    assert {tuple(b) for b in np.argwhere(_marks(frame))} == {(row, col) for _, row, col in blocks}
    assert np.array_equal(reference_decode(frame, before), after)
    assert decode_frame(frame, dec).equals(planes)


def _kind_id(value):
    """Test id of a plane kind: the name it had before plane kinds were
    folded into `AtlasKind`, so the ids of earlier runs still compare."""
    return {AtlasKind.COLOR: "PlaneKind.COLOR_10IN16", AtlasKind.VISIBILITY: "PlaneKind.VISIBILITY_BYTES"}.get(value)


@pytest.mark.parametrize("kind", [AtlasKind.COLOR, AtlasKind.VISIBILITY], ids=_kind_id)
@pytest.mark.parametrize("shape", [(BLOCK_SIDE, BLOCK_SIDE), (17 * BLOCK_SIDE, 4 * BLOCK_SIDE)])
def test_all_skip_p_frame(kind, shape):
    rng = np.random.default_rng(3)
    planes = PlaneSet(kind, _smooth(rng, shape, kind.plane_dtype, 2.0))
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    decode_frame(encode_frame(planes, enc), dec)
    frame = encode_frame(planes.copy(), enc)
    positions = (shape[0] // BLOCK_SIDE) * (shape[1] // BLOCK_SIDE)
    assert split_payload(frame) == (bytes(-(-positions // 8)), b"")
    assert np.array_equal(reference_decode(frame, planes.data), planes.data)
    assert decode_frame(frame, dec).equals(planes)


# --- residual order ------------------------------------------------------------
# The codec moves P-frame residuals as whole blocks through one view of the
# planes. The stream must hold them in the order of the flat-index walk
# below: plane by plane, the blocks of the changed positions in bitmap
# order, each block's elements in row order.


def flat_block_order(height, width):
    """Flat element indices of a whole-block plane in block order: row b
    lists block b's indices in row order."""
    by, bx = height // BLOCK_SIDE, width // BLOCK_SIDE
    flat = np.arange(height * width).reshape(by, BLOCK_SIDE, bx, BLOCK_SIDE)
    return flat.swapaxes(1, 2).reshape(by * bx, BLOCK_SIDE**2)


def flat_residual_stream(cur, ref, changed):
    """The inflated stream of a P-frame from cur, ref and its changed
    (block row, block column) positions, gathered one flat element index
    at a time."""
    idx = flat_block_order(*cur.shape[1:])[np.flatnonzero(changed)]
    runs = [cur[p].reshape(-1)[idx] - ref[p].reshape(-1)[idx] for p in range(len(cur))]
    residuals = np.concatenate(runs)
    if residuals.dtype == np.uint8:
        return residuals.tobytes()
    signed = residuals.view(np.int16)
    codes = ((signed << 1) ^ (signed >> 15)).view(np.uint16).astype("<u2")
    return codes.view(np.uint8).reshape(-1, 2).T.tobytes()


def _pattern(name, shape, rng):
    """Changed blocks of a (planes, block rows, block columns) grid: every
    block, none, the bottom-right corner block of the last plane, one block
    of the right block column (else of the bottom block row) of the middle
    plane that is not a corner, or a random quarter. The corner and the
    edge change one plane of their position."""
    changed = np.zeros(shape, bool)
    planes, by, bx = shape
    if not changed.size or name == "none":
        return changed
    if name == "every":
        changed[:] = True
    elif name == "corner":
        changed[-1, -1, -1] = True
    elif name == "edge":
        if bx > 1 or by == 1:
            changed[1, by // 2, -1] = True
        else:
            changed[1, -1, bx // 2] = True
    else:
        changed = rng.random(shape) < 0.25
    return changed


def _changed_frames(kind, height, width, pattern, seed):
    """Reference planes and planes that differ from them in every element of
    the pattern's blocks and nowhere else, and the pattern."""
    rng = np.random.default_rng(seed)
    top = int(np.iinfo(kind.plane_dtype).max)
    ref = rng.integers(0, top, size=(3, height, width), dtype=kind.plane_dtype, endpoint=True)
    changed = _pattern(pattern, (3, height // BLOCK_SIDE, width // BLOCK_SIDE), rng)
    inside = changed.repeat(BLOCK_SIDE, axis=1).repeat(BLOCK_SIDE, axis=2)
    cur = ref.copy()
    cur[inside] += rng.integers(1, top, size=int(inside.sum()), dtype=kind.plane_dtype, endpoint=True)
    return ref, cur, changed


def _residual_cases():
    """(kind, height, width, pattern) cases. Whole-block shapes: the update
    atlas's planes at 2048 slots, and small ones, 0 x n and n x 0 among
    them. The other shapes, each with its patterns, must be refused."""
    kinds = (AtlasKind.COLOR, AtlasKind.VISIBILITY)
    whole = [
        (AtlasKind.COLOR, 352, 384),  # the colour planes
        (AtlasKind.VISIBILITY, 688, 1024),  # the visibility planes
        *[(kind, h, w) for kind in kinds for h, w in ((0, 16), (16, 0), (16, 16), (16, 48), (48, 16), (48, 64))],
    ]
    not_whole = [
        (AtlasKind.COLOR, 360, 368),
        (AtlasKind.VISIBILITY, 720, 982),
        *[(kind, h, w) for kind in kinds
          for h, w in ((0, 20), (20, 0), (1, 1), (15, 15), (5, 40), (40, 9), (16, 15), (15, 16), (37, 50))],
    ]
    for shapes, patterns in ((whole, ["every", "none", "corner", "edge", "quarter"]),
                             (not_whole, ["every", "none", "corner", "clipped", "quarter"])):
        for kind, height, width in shapes:
            for pattern in patterns:
                yield pytest.param(kind, height, width, pattern, id=f"{_kind_id(kind)}-{height}-{width}-{pattern}")


@pytest.mark.parametrize("kind, height, width, pattern", _residual_cases())
def test_residuals_in_flat_index_order(kind, height, width, pattern):
    if height % BLOCK_SIDE or width % BLOCK_SIDE:
        assert_not_whole_refused(kind, height, width)
        return
    ref, cur, changed = _changed_frames(kind, height, width, pattern, height * 1000 + width)
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    decode_frame(encode_frame(PlaneSet(kind, ref), enc), dec)
    frame = encode_frame(PlaneSet(kind, cur), enc)
    assert not frame.key
    positions = changed.any(axis=0)
    assert np.array_equal(_marks(frame), positions)
    assert split_payload(frame)[1] == flat_residual_stream(cur, ref, positions)
    assert np.array_equal(reference_decode(frame, ref), cur)
    assert np.array_equal(decode_frame(frame, dec).data, cur)


# --- planes that are not whole blocks ------------------------------------------


def assert_not_whole_refused(kind, height, width):
    """Planes of `height` x `width` elements, not whole blocks, are refused:
    by the encoder as a first frame and after a key frame of the same
    planes padded to whole blocks, with its state unchanged, and as a frame
    header by `EncodedFrame.read`."""
    shape = [3, *(-(-n // BLOCK_SIDE) * BLOCK_SIDE for n in (height, width))]
    padded = PlaneSet(kind, np.ones(shape, kind.plane_dtype))
    cropped = PlaneSet(kind, padded.data[:, :height, :width].copy())
    enc = CodecStreamState(1, role="encoder")
    for _ in range(2):
        before = enc.frame_count, None if enc.reference is None else enc.reference.data.tobytes()
        with pytest.raises(ValueError, match="not whole"):
            encode_frame(cropped, enc)
        assert (enc.frame_count, None if enc.reference is None else enc.reference.data.tobytes()) == before
        encode_frame(padded, enc)
    bits = padded.element_bits
    for key in (True, False):
        with pytest.raises(CorruptFrameError, match="unsupported layout"):
            EncodedFrame.read(EncodedFrame(1, 1, key, width, height, 3, bits, b"").to_bytes())


# --- the deflate segments of 16-bit frames --------------------------------------
# A 16-bit frame's stream is deflated one half run at a time (low bytes at
# Z_RLE, high bytes at the default strategy), each segment a whole deflate
# stream listed in the segment table; `split_payload` checks that each one
# inflates to the size the format's segment rule gives it.


@st.composite
def color_frame_pairs(draw):
    """Two 16-bit frames of any whole-block size, 0 x n and n x 0 among them: a key frame
    and a second frame that is zero, the same, a few elements changed, or
    noise, coded as a P-frame or a forced key frame."""
    h = BLOCK_SIDE * draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 3)))
    w = BLOCK_SIDE * draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (3, h, w)

    def frame(how, like=None):
        if how == "zero":
            return np.zeros(shape, np.uint16)
        if how == "smooth":
            return _smooth(rng, (h, w), np.uint16, 2.0)
        if how == "noise":
            return rng.integers(0, 2**16, size=shape, dtype=np.uint16)
        changed = like.copy()
        mutate = rng.random(shape) < 0.05
        changed[mutate] += rng.integers(1, 2**16, size=int(mutate.sum()), dtype=np.uint16)
        return changed

    first = frame(draw(st.sampled_from(["zero", "smooth", "noise"])))
    how = draw(st.sampled_from(["zero", "same", "mutate", "noise"]))
    second = first.copy() if how == "same" else frame(how, first)
    return first, second, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(color_frame_pairs())
def test_color_segments_round_trip(case):
    first, second, force_key = case
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    previous = None
    for data, force in ((first, False), (second, force_key)):
        planes = PlaneSet(AtlasKind.COLOR, data)
        frame = EncodedFrame.from_bytes(encode_frame(planes, enc, force_key=force).to_bytes())
        assert frame.key == (previous is None or force)
        assert np.array_equal(reference_decode(frame, previous), data)
        assert decode_frame(frame, dec).equals(planes)
        previous = data


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoding_is_deterministic(name):
    # the same planes from the same stream state code to the same bytes
    kind, gop, frames = _sequence(name, 2)
    enc = CodecStreamState(1, role="encoder", gop_length=gop)
    for data in frames:
        again = copy.deepcopy(enc)
        planes = PlaneSet(kind, data)
        assert encode_frame(planes, enc).to_bytes() == encode_frame(planes.copy(), again).to_bytes()


def test_noise_residual_p_frame_no_larger_than_one_deflate():
    # every element changes by σ = 2 noise, the renderer's, so the low bytes
    # of the residuals are noise and their high bytes almost all zero
    rng = np.random.default_rng(5)
    ref = _smooth(rng, (64, 96), np.uint16, 2.0)
    cur = np.clip(ref + np.rint(rng.normal(0, 2.0, ref.shape)), 0, 1023).astype(np.uint16)
    enc = CodecStreamState(1, role="encoder")
    encode_frame(PlaneSet(AtlasKind.COLOR, ref), enc)
    frame = encode_frame(PlaneSet(AtlasKind.COLOR, cur), enc)
    bitmap, content = split_payload(frame)
    assert len(content) == 2 * cur.size
    stream_size = len(frame.payload) - len(bitmap)

    def default_deflate_size(data):
        packer = zlib.compressobj(1, zlib.DEFLATED, -15)
        return len(packer.compress(data) + packer.flush())

    assert stream_size <= default_deflate_size(content)
    # the gain is the low bytes' run-length coding, not the split alone
    low, high = content[: cur.size], content[cur.size :]
    assert stream_size <= default_deflate_size(low) + default_deflate_size(high)
