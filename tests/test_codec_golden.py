"""Wire-format pins for the frame codec.

The digests below are sha256 over the concatenated `to_bytes()` output of
seeded frame sequences. Any change to them is a change of the wire format
and needs a new `FRAME_MAGIC`.

`reference_payload` is the codec's original per-block encoder, one 16x16
block at a time, kept here as the oracle that the array encoder must match
byte for byte.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.codec import (
    BAND_BLOCK_ROWS,
    BLOCK_SIDE,
    MODE_DELTA,
    MODE_RAW,
    MODE_SKIP,
    CodecStreamState,
    EncodedFrame,
    decode_frame,
    encode_frame,
    entropy_encode,
)
from probestream.packing import PlaneKind, PlaneSet
from probestream.varint import encode_uvarint, encode_uvarint_array, zigzag

# --- reference per-block encoder ---------------------------------------------


def _ref_delta(cur, pred):
    signed = np.int16 if cur.dtype == np.uint16 else np.int8
    residual = (cur - pred).view(signed).astype(np.int64)
    return entropy_encode(
        np.frombuffer(encode_uvarint_array(zigzag(residual.reshape(-1))), np.uint8)
    )


def _ref_raw(cur):
    return entropy_encode(np.ascontiguousarray(cur).view(np.uint8).reshape(-1))


def _ref_encode_plane(cur, ref, recon, out):
    height, width = cur.shape
    for y0 in range(0, height, BLOCK_SIDE):
        h = min(BLOCK_SIDE, height - y0)
        for x0 in range(0, width, BLOCK_SIDE):
            w = min(BLOCK_SIDE, width - x0)
            block = cur[y0 : y0 + h, x0 : x0 + w]
            if ref is not None and np.array_equal(block, ref[y0 : y0 + h, x0 : x0 + w]):
                out.append(MODE_SKIP)
                recon[y0 : y0 + h, x0 : x0 + w] = block
                continue
            if ref is not None:
                pred = ref[y0 : y0 + h, x0 : x0 + w]
            elif x0 >= BLOCK_SIDE:
                pred = recon[y0 : y0 + h, x0 - BLOCK_SIDE : x0 - BLOCK_SIDE + w]
            else:
                pred = None
            raw_payload = _ref_raw(block)
            if pred is not None:
                delta_payload = _ref_delta(block, pred)
                if len(delta_payload) < len(raw_payload):
                    out.append(MODE_DELTA)
                    out += encode_uvarint(len(delta_payload)) + delta_payload
                    recon[y0 : y0 + h, x0 : x0 + w] = block
                    continue
            out.append(MODE_RAW)
            out += encode_uvarint(len(raw_payload)) + raw_payload
            recon[y0 : y0 + h, x0 : x0 + w] = block


def reference_payload(planes: PlaneSet, reference: PlaneSet | None) -> bytes:
    """Payload of one frame; `reference` is None for a key frame."""
    out = bytearray()
    recon = np.empty_like(planes.data)
    for p in range(planes.data.shape[0]):
        ref = None if reference is None else reference.data[p]
        _ref_encode_plane(planes.data[p], ref, recon[p], out)
    return bytes(out)


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
    color, vis = PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES
    if name in ("color_mutate", "color_edge", "color_40x56", "color_narrow", "vis_mutate"):
        kind = vis if name.startswith("vis") else color
        shape = {
            "color_mutate": (48, 48),
            "color_edge": (BLOCK_SIDE + 5, BLOCK_SIDE + 3),
            "color_40x56": (40, 56),
            "color_narrow": (37, BLOCK_SIDE - 7),
            "vis_mutate": (36, 44),
        }[name]
        top = 1024 if kind is color else 256
        cur = _smooth(rng, shape, kind.dtype, 2.0)
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
        frames = [rng.integers(0, 2**16, size=(3, 40, 40), dtype=np.uint16) for _ in range(3)]
        return color, 1, frames
    if name == "vis_noise_keys":
        frames = [rng.integers(0, 256, size=(3, 33, 50), dtype=np.uint8) for _ in range(3)]
        return vis, 1, frames
    if name == "color_offset":
        base = _smooth(rng, (48, 64), np.uint16, 3.0)
        return color, 30, [base + np.uint16(3 * i) for i in range(4)]
    if name == "vis_offset":
        base = _smooth(rng, (40, 40), np.uint8, 3.0)
        return vis, 30, [base + np.uint8(i) for i in range(4)]
    raise KeyError(name)


GOLDEN = {
    "color_mutate": "5e29b5715e2151632079a3fe9b867afc9e1e2fecef3a11870df6db8835c5d5f3",
    "color_edge": "90d5a2a1bee8123d124f1a761de70d62654138800dad67dcfc0d199e7e987315",
    "color_40x56": "e05c246aefa912095676560b105799dd4b5d1777d54f2a5e0dc169e85fbffb10",
    "color_narrow": "cc5b600fa9f14d596b4dd2dcfec400cab6e9c549d9da9263be828e25a1fcaae3",
    "vis_mutate": "4abc0f32ed52125a62720d44adb0fd9cb1d4de7ae11ae69f09944dbef4d4f8a2",
    "color_all_skip": "eb2c00ae64dbbfb3eee5b4bbcbd9575449ac452889cd78c64a9675284ae6f758",
    "color_noise_keys": "9be7fe1785d2ef7687a40d14f75402235699586869462b4199f6812d92fc218e",
    "vis_noise_keys": "aafe8f8d1808be90b8868c0c0b3b9686b0279682a55786c0e9ce21dac1c9d2c3",
    "color_offset": "0a18acf8b65785f8cedd5125280dc6c18707277257d8d1dff77d4577d92ca863",
    "vis_offset": "9161bdd1bdb291e7b8e550863c0e796bcc3f4a0b2eb99f933603a972a4c537c1",
}


def sequence_digest(name: str, seed: int = 1) -> str:
    kind, gop, frames = _sequence(name, seed)
    enc = CodecStreamState(1, role="encoder", gop_length=gop)
    dec = CodecStreamState(1, role="decoder", gop_length=gop)
    digest = hashlib.sha256()
    for data in frames:
        planes = PlaneSet(kind, data)
        wire = encode_frame(planes, enc).to_bytes()
        digest.update(wire)
        assert decode_frame(EncodedFrame.from_bytes(wire), dec).equals(planes)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_bytes_pinned(name):
    assert sequence_digest(name) == GOLDEN[name]


def test_recipes_cover_every_mode():
    # the first block of a plane leads its payload, so its mode byte is byte 0
    _, _, frames = _sequence("color_noise_keys", 1)
    assert reference_payload(PlaneSet(PlaneKind.COLOR_10IN16, frames[0]), None)[0] == MODE_RAW
    delta_cases = (("color_offset", PlaneKind.COLOR_10IN16), ("vis_mutate", PlaneKind.VISIBILITY_BYTES))
    for name, kind in delta_cases:
        _, _, frames = _sequence(name, 1)
        prev, cur = (PlaneSet(kind, f) for f in frames[:2])
        assert reference_payload(cur, prev)[0] == MODE_DELTA
    _, _, frames = _sequence("color_all_skip", 1)
    planes = PlaneSet(PlaneKind.COLOR_10IN16, frames[0])
    assert set(reference_payload(planes, planes)) == {MODE_SKIP}


@st.composite
def frame_sequences(draw):
    kind = draw(st.sampled_from([PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES]))
    h = draw(st.integers(1, 3 * BLOCK_SIDE + 2))
    w = draw(st.integers(1, 3 * BLOCK_SIDE + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(
        st.lists(st.sampled_from(["mutate", "offset", "noise", "same"]), min_size=1, max_size=4)
    )
    gop = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    top = 1024 if kind is PlaneKind.COLOR_10IN16 else 256
    cur = _smooth(rng, (h, w), kind.dtype, draw(st.sampled_from([0.0, 1.0, 4.0])))
    frames = [cur.copy()]
    for step in steps:
        if step == "mutate":
            mutate = rng.random(cur.shape) < 0.1
            cur[mutate] = rng.integers(0, top, size=int(mutate.sum()))
        elif step == "offset":
            cur = cur + kind.dtype(1)
        elif step == "noise":
            cur = rng.integers(0, np.iinfo(kind.dtype).max + 1, size=cur.shape).astype(kind.dtype)
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
        assert frame.payload == reference_payload(planes, None if frame.key else previous)
        assert decode_frame(frame, dec).equals(planes)
        previous = planes


# --- sparse P-frames: the frame-wide change grid and SKIP bands -------------

BAND_ROWS = BAND_BLOCK_ROWS * BLOCK_SIDE


@st.composite
def sparse_p_frames(draw):
    """A plane set and a copy with a few blocks changed, placed by one rule."""
    kind = draw(st.sampled_from([PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES]))
    # one band, or two with the last one short
    h = draw(st.one_of(st.integers(1, 40), st.integers(BAND_ROWS + 1, 2 * BAND_ROWS + 40)))
    w = draw(st.integers(1, 3 * BLOCK_SIDE + 9))
    by, bx = -(-h // BLOCK_SIDE), -(-w // BLOCK_SIDE)
    last_band = (by - 1) // BAND_BLOCK_ROWS * BAND_BLOCK_ROWS
    where = draw(st.sampled_from(["one_band", "last_band", "right_edge", "bottom_edge", "band_edge"]))
    band = draw(st.integers(0, (by - 1) // BAND_BLOCK_ROWS))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        row, col = draw(st.integers(0, by - 1)), draw(st.integers(0, bx - 1))
        if where == "one_band":
            row = min(band * BAND_BLOCK_ROWS + row % BAND_BLOCK_ROWS, by - 1)
        elif where == "last_band":
            row = last_band + row % (by - last_band)
        elif where == "right_edge":
            col = bx - 1
        elif where == "bottom_edge":
            row = by - 1
        else:  # the block rows either side of a band boundary
            row = min(BAND_BLOCK_ROWS - 1 + row % 2, by - 1)
        blocks.append((draw(st.integers(0, 2)), row, col))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = int(np.iinfo(kind.dtype).max)
    before = _smooth(rng, (h, w), kind.dtype, draw(st.sampled_from([0.0, 2.0])))
    after = before.copy()
    for plane, row, col in blocks:
        y0, x0 = row * BLOCK_SIDE, col * BLOCK_SIDE
        region = after[plane, y0 : y0 + BLOCK_SIDE, x0 : x0 + BLOCK_SIDE]
        hit = rng.random(region.shape) < draw(st.sampled_from([0.02, 0.3, 1.0]))
        hit.flat[rng.integers(hit.size)] = True  # the block does change
        region[hit] += rng.integers(1, top, size=int(hit.sum()), dtype=kind.dtype, endpoint=True)
    return kind, before, after


@settings(max_examples=80, deadline=None)
@given(sparse_p_frames())
def test_sparse_p_frames_match_per_block_reference(case):
    kind, before, after = case
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    previous, planes = PlaneSet(kind, before), PlaneSet(kind, after)
    decode_frame(encode_frame(previous, enc), dec)
    frame = encode_frame(planes, enc)
    assert not frame.key
    assert frame.payload == reference_payload(planes, previous)
    assert decode_frame(frame, dec).equals(planes)


@pytest.mark.parametrize("kind", [PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES])
@pytest.mark.parametrize("shape", [(9, 5), (2 * BAND_ROWS + 7, 3 * BLOCK_SIDE + 1)])
def test_all_skip_p_frame(kind, shape):
    rng = np.random.default_rng(3)
    planes = PlaneSet(kind, _smooth(rng, shape, kind.dtype, 2.0))
    enc = CodecStreamState(1, role="encoder")
    dec = CodecStreamState(1, role="decoder")
    decode_frame(encode_frame(planes, enc), dec)
    frame = encode_frame(planes.copy(), enc)
    blocks = 3 * -(-shape[0] // BLOCK_SIDE) * -(-shape[1] // BLOCK_SIDE)
    assert frame.payload == reference_payload(planes, planes) == bytes([MODE_SKIP]) * blocks
    assert decode_frame(frame, dec).equals(planes)
