import copy
import dataclasses
import functools
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from probestream import codec
from probestream.codec import (
    BLOCK_SIDE,
    FRAME_MAGIC,
    CodecError,
    CodecStreamState,
    CorruptFrameError,
    DimensionMismatchError,
    EncodedFrame,
    MissingReferenceError,
    SequenceError,
    StreamMismatchError,
    decode_frame,
    encode_frame,
)
from probestream.packing import PlaneSet, pack_texels, unpack_texels
from probestream.volume import AtlasKind
from test_codec_golden import _smooth, inflated_segments, read_segments, reference_decode, split_payload


def color_planes(rng, h=48, w=48):
    return PlaneSet(
        AtlasKind.COLOR,
        rng.integers(0, 1024, size=(3, h, w), dtype=np.uint16),
    )


def vis_planes(rng, h=48, w=48):
    return PlaneSet(
        AtlasKind.VISIBILITY,
        rng.integers(0, 256, size=(3, h, w), dtype=np.uint8),
    )


def packed_layout(planes):
    """The same planes in `pack_texels`'s memory layout: the (3, h, w)
    transposed view of a contiguous (h, w, 3) array."""
    return PlaneSet(planes.kind, np.ascontiguousarray(planes.data.transpose(1, 2, 0)).transpose(2, 0, 1))


def stream_pair(gop=30):
    return (
        CodecStreamState(1, role="encoder", gop_length=gop),
        CodecStreamState(1, role="decoder", gop_length=gop),
    )


def deflate(*chunks, final=True):
    """A raw deflate stream of `chunks`; without `final` it stops before
    its final block."""
    packer = zlib.compressobj(1, zlib.DEFLATED, -15)
    stream = b"".join(packer.compress(c) for c in chunks)
    return stream + packer.flush(zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH)


def table(lengths):
    """A segment table of `lengths`."""
    return b"".join(struct.pack("<I", n) for n in lengths)


def container(*segments):
    """The segment table of the deflate `segments`, then the segments."""
    return table(map(len, segments)) + b"".join(segments)


def bitmap_size(frame):
    """Bytes of a P-frame's changed-position bitmap: a bit per block position."""
    positions = -(-frame.height // BLOCK_SIDE) * -(-frame.width // BLOCK_SIDE)
    return -(-positions // 8)


@functools.lru_cache(maxsize=4)
def zero_bomb(size):
    """A deflate stream of `size` zero bytes, built a MiB at a time."""
    chunk = bytes(1 << 20)
    return deflate(*[chunk] * (size >> 20), bytes(size & ((1 << 20) - 1)))


def like(frame, payload):
    """`frame` with another payload, through the wire and its checksum."""
    return EncodedFrame.from_bytes(dataclasses.replace(frame, payload=payload).to_bytes())


class TestEntropy:
    """The deflate stage, seen through whole frames."""

    def test_zeros_collapse(self):
        for kind in AtlasKind:
            planes = PlaneSet(kind, np.zeros((3, 64, 64), kind.plane_dtype))
            enc, dec = stream_pair()
            frame = encode_frame(planes, enc)
            assert len(frame.payload) <= planes.data.nbytes / 100
            assert decode_frame(frame, dec).equals(planes)

    def test_random_expansion_bounded(self):
        rng = np.random.default_rng(0)
        planes = vis_planes(rng, 128, 176)
        enc, dec = stream_pair()
        frame = encode_frame(planes, enc)
        assert len(frame.payload) <= planes.data.nbytes * 1.03
        assert decode_frame(frame, dec).equals(planes)

    def test_empty(self):
        # an unchanged P-frame codes nothing, and a frame of no elements
        # codes nothing at all
        rng = np.random.default_rng(1)
        enc, dec = stream_pair()
        planes = color_planes(rng, 32, 32)
        decode_frame(encode_frame(planes, enc), dec)
        frame = encode_frame(planes.copy(), enc)
        assert split_payload(frame) == (bytes(1), b"")
        assert decode_frame(frame, dec).equals(planes)
        for shape in ((3, 0, BLOCK_SIDE), (3, BLOCK_SIDE, 0)):
            enc, dec = stream_pair()
            empty = PlaneSet(AtlasKind.COLOR, np.zeros(shape, np.uint16))
            for _ in range(2):
                frame = encode_frame(empty, enc)
                assert split_payload(frame)[1] == b""
                assert decode_frame(frame, dec).equals(empty)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=2048), st.binary(max_size=2048))
    def test_round_trip_property(self, first, second):
        # each row of a block row of planes holds the bytes, padded to whole blocks
        width = -(-max(len(first), len(second), 1) // BLOCK_SIDE) * BLOCK_SIDE
        enc, dec = stream_pair()
        for data in (first, second):
            row = np.frombuffer(data.ljust(width, b"\0"), np.uint8)
            rows = np.stack([row, row[::-1], row ^ 0x5A])[:, None].repeat(BLOCK_SIDE, axis=1)
            planes = PlaneSet(AtlasKind.VISIBILITY, rows)
            assert decode_frame(encode_frame(planes, enc), dec).equals(planes)

    def test_malformed_stream_rejected(self):
        # a first segment that is not deflate, and a payload with no
        # segment table at all
        rng = np.random.default_rng(2)
        enc, dec = stream_pair()
        key = encode_frame(color_planes(rng, 16, 16), enc)
        decode_frame(key, dec)
        p_frame = encode_frame(color_planes(rng, 16, 16), enc)
        bitmap, p_segments = read_segments(p_frame)
        _, key_segments = read_segments(key)
        for frame, head, segments, state in (
            (key, b"", key_segments, CodecStreamState(1, "decoder")),
            (p_frame, bitmap, p_segments, dec),
        ):
            rest = [segment for segment, _ in segments[1:]]
            for bad in (b"\xff" * 8, b"\x07\x00"):  # block type 3 is reserved
                with pytest.raises(CorruptFrameError, match="bad deflate segment"):
                    decode_frame(like(frame, head + container(bad, *rest)), state)
            with pytest.raises(CorruptFrameError, match="shorter than its segment table"):
                decode_frame(like(frame, head), state)

    def test_huge_zero_run_rejected_before_allocation(self):
        # 10**7 zero bytes for a 64x64 visibility key frame of 12 KiB
        frame = EncodedFrame(1, 0, True, 64, 64, 3, 8, container(zero_bomb(10**7)))
        error, peak = _decode_peak(frame, CodecStreamState(1, "decoder"))
        assert isinstance(error, CorruptFrameError)
        assert peak < 1 << 20


def first_block_p_frame(block, reference):
    """The P-frame, after a key frame of `reference`, of a frame whose three
    planes all hold the 16x16 `block`, and its key-frame twin."""

    def planes(b):
        return PlaneSet(AtlasKind.COLOR, np.stack([b, b, b]))

    enc, _ = stream_pair()
    encode_frame(planes(reference), enc)
    p_frame = encode_frame(planes(block), enc)
    key = encode_frame(planes(block), enc, force_key=True)
    assert not p_frame.key and key.key
    return p_frame, key


class TestBlockModes:
    """A P-frame's bitmap clears the bit of each block position unchanged in
    every plane, and its stream holds the changed positions' blocks as their
    residuals against the reference; a key frame has no bitmap and its
    stream codes every element."""

    def test_identical_blocks_skip(self):
        rng = np.random.default_rng(1)
        block = rng.integers(0, 1024, size=(16, 16), dtype=np.uint16)
        p_frame, _ = first_block_p_frame(block, block.copy())
        assert split_payload(p_frame) == (b"\x00", b"")

    def test_constant_offset_codes_constant_residuals(self):
        rng = np.random.default_rng(2)
        ref = rng.integers(0, 512, size=(16, 16), dtype=np.uint16)
        p_frame, key = first_block_p_frame(ref + 3, ref)
        # one changed position, a block of residual 3 in each plane: zig-zag
        # code 6, low bytes first
        assert split_payload(p_frame) == (b"\x80", b"\x06" * 768 + b"\x00" * 768)
        assert len(p_frame.payload) * 10 < len(key.payload)

    def test_no_reference_never_skip(self):
        rng = np.random.default_rng(3)
        block = rng.integers(0, 1024, size=(16, 16), dtype=np.uint16)
        p_frame, key = first_block_p_frame(block, block.copy())
        # a key frame has no bitmap: its stream codes every element
        bitmap, content = split_payload(key)
        assert bitmap == b"" and len(content) == 3 * 16 * 16 * 2
        assert split_payload(p_frame)[0] == b"\x00"


class TestFrameCodec:
    def test_first_frame_is_key(self):
        rng = np.random.default_rng(4)
        enc, _ = stream_pair()
        frame = encode_frame(color_planes(rng), enc, force_key=False)
        assert frame.key

    def test_identical_p_frame_all_skip(self):
        rng = np.random.default_rng(5)
        enc, dec = stream_pair()
        planes = color_planes(rng, 64, 64)
        decode_frame(encode_frame(planes, enc), dec)
        frame = encode_frame(planes.copy(), enc)
        assert not frame.key
        # no position is marked changed, and the stream codes nothing
        assert split_payload(frame) == (bytes(2), b"")
        assert frame.encoded_size <= planes.data.nbytes / 100
        assert decode_frame(frame, dec).equals(planes)

    def test_noise_iframe_expansion_bounded(self):
        rng = np.random.default_rng(6)
        enc, _ = stream_pair()
        planes = color_planes(rng, 64, 64)
        planes.data[:] = rng.integers(0, 2**16, size=planes.data.shape)
        frame = encode_frame(planes, enc, force_key=True)
        assert frame.encoded_size <= planes.data.nbytes * 1.05

    def test_round_trip_random_frames(self):
        rng = np.random.default_rng(7)
        enc, dec = stream_pair(gop=13)
        cur = color_planes(rng, 48, 64)
        for _ in range(60):
            mutate = rng.random(cur.data.shape) < 0.1
            cur.data[mutate] = rng.integers(0, 1024, size=int(mutate.sum()))
            frame = encode_frame(cur.copy(), enc)
            data = frame.to_bytes()
            wire = EncodedFrame.from_bytes(data)
            # read stops where the frame ends, whatever follows it
            for tail in (b"", b"\0", data):
                assert EncodedFrame.read(data + tail) == wire
            assert wire.encoded_size == len(data)
            out = decode_frame(wire, dec)
            assert out.equals(cur)
            assert np.array_equal(enc.reference.data, dec.reference.data)

    @pytest.mark.parametrize("make", [color_planes, vis_planes])
    def test_frames_read_alike_from_bytes_and_memoryview(self, make):
        rng = np.random.default_rng(34)
        enc = stream_pair()[0]
        planes = make(rng)
        for key in (True, False):
            frame = encode_frame(planes, enc)
            assert frame.key is key
            data = frame.to_bytes()
            assert data[-4:] == struct.pack("<I", zlib.crc32(data[:-4]))
            longer = data + b"\1\2"
            for wire, whole in ((data, longer), (memoryview(data), memoryview(longer))):
                for read in (EncodedFrame.from_bytes(wire), EncodedFrame.read(whole)):
                    assert read == frame
                    assert type(read.payload) is bytes
            planes = planes.copy()
            planes.data[:, 3:9, 20:30] ^= 1

    def test_round_trip_uint8_planes(self):
        rng = np.random.default_rng(8)
        enc, dec = stream_pair()
        for _ in range(5):
            planes = vis_planes(rng, 48, 48)
            assert decode_frame(encode_frame(planes, enc), dec).equals(planes)

    @pytest.mark.parametrize("make", [color_planes, vis_planes])
    def test_decoded_planes_are_read_only(self, make):
        # the decoder keeps the planes it returns as the next reference
        rng = np.random.default_rng(12)
        enc, dec = stream_pair()
        planes = make(rng)
        for key in (True, False, False):
            frame = encode_frame(planes, enc)
            assert frame.key is key
            out = decode_frame(frame, dec)
            assert out.equals(planes)
            with pytest.raises(ValueError):
                out.data[0, 0, 0] ^= 1
            planes = planes.copy()
            planes.data[:, 5:9, 20:30] ^= 1

    def test_stream_id_must_fit_the_header(self):
        # the header's stream id is u32: both ends of its range go through
        for stream_id in (0, 2**32 - 1):
            enc, dec = CodecStreamState(stream_id, "encoder"), CodecStreamState(stream_id, "decoder")
            planes = vis_planes(np.random.default_rng(12), 16, 16)
            frame = EncodedFrame.from_bytes(encode_frame(planes, enc).to_bytes())
            assert frame.stream_id == stream_id and decode_frame(frame, dec).equals(planes)
        enc = stream_pair()[0]
        encode_frame(color_planes(np.random.default_rng(13), 16, 16), enc)
        before = enc.stream_id, enc.frame_count, enc.reference.data.tobytes()
        for stream_id in (-1, 2**32):
            for role in ("encoder", "decoder"):
                with pytest.raises(ValueError, match="stream id"):
                    CodecStreamState(stream_id, role)
            with pytest.raises(ValueError, match="stream id"):
                dataclasses.replace(enc, stream_id=stream_id)
        assert (enc.stream_id, enc.frame_count, enc.reference.data.tobytes()) == before

    def test_gop_boundary_forces_key(self):
        rng = np.random.default_rng(9)
        enc, _ = stream_pair(gop=4)
        planes = color_planes(rng, 32, 32)
        keys = [encode_frame(planes, enc).key for _ in range(9)]
        assert keys == [True, False, False, False, True, False, False, False, True]

    def test_key_frame_decodes_with_empty_state(self):
        rng = np.random.default_rng(10)
        enc, _ = stream_pair()
        planes = color_planes(rng)
        encode_frame(color_planes(rng), enc)  # advance the stream a bit
        frame = encode_frame(planes, enc, force_key=True)
        fresh = CodecStreamState(1, role="decoder")
        assert decode_frame(frame, fresh).equals(planes)

    def test_key_frame_decode_independent_of_prior_state(self):
        rng = np.random.default_rng(11)
        enc, _ = stream_pair()
        encode_frame(color_planes(rng), enc)
        frame = encode_frame(color_planes(rng), enc, force_key=True)
        poisoned = CodecStreamState(1, role="decoder")
        poisoned.reference = color_planes(rng)
        poisoned.frame_count = 999
        fresh = CodecStreamState(1, role="decoder")
        assert decode_frame(frame, poisoned).equals(decode_frame(frame, fresh))

    def test_p_frame_without_reference_errors(self):
        rng = np.random.default_rng(12)
        enc, _ = stream_pair()
        encode_frame(color_planes(rng), enc)
        p_frame = encode_frame(color_planes(rng), enc)
        assert not p_frame.key
        with pytest.raises(MissingReferenceError):
            decode_frame(p_frame, CodecStreamState(1, role="decoder"))

    def test_out_of_order_p_frame_errors(self):
        rng = np.random.default_rng(13)
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(rng), enc), dec)
        encode_frame(color_planes(rng), enc)  # dropped frame
        late = encode_frame(color_planes(rng), enc)
        with pytest.raises(SequenceError):
            decode_frame(late, dec)

    def test_corrupt_payload_detected(self):
        rng = np.random.default_rng(14)
        enc, _ = stream_pair()
        data = encode_frame(color_planes(rng), enc).to_bytes()
        blob = bytearray(data)
        blob[40] ^= 0xFF
        # a flipped byte, a frame cut short, and, for from_bytes, a byte after the frame
        damaged = [(read, bytes(blob)) for read in (EncodedFrame.from_bytes, EncodedFrame.read)]
        damaged += [(read, data[:cut]) for read in (EncodedFrame.from_bytes, EncodedFrame.read)
                    for cut in (0, 10, len(data) - 1)]
        damaged.append((EncodedFrame.from_bytes, data + b"\0"))
        for read, wire in damaged:
            with pytest.raises(CorruptFrameError):
                read(wire)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        enc, _ = stream_pair()
        encode_frame(color_planes(rng, 32, 32), enc)
        with pytest.raises(DimensionMismatchError):
            encode_frame(color_planes(rng, 48, 32), enc)

    def test_static_sequence_ratios(self):
        rng = np.random.default_rng(16)
        enc, dec = stream_pair(gop=30)
        planes = color_planes(rng, 80, 80)
        sizes = []
        for _ in range(30):
            frame = encode_frame(planes.copy(), enc)
            assert decode_frame(frame, dec).equals(planes)
            sizes.append(frame.encoded_size)
        ratios = [planes.data.nbytes / s for s in sizes]
        mean_ratio = planes.data.nbytes * len(sizes) / sum(sizes)
        assert mean_ratio >= 20
        assert all(r >= 100 for r in ratios[1:])  # P-frames alone


def _not_whole(h, w):
    return bool(h % BLOCK_SIDE or w % BLOCK_SIDE)


class TestWholeBlocks:
    """Planes are whole blocks: the encoder refuses others before its state
    moves, and a header that declares others is refused before anything is
    inflated or allocated."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(AtlasKind)), st.integers(0, 70), st.integers(0, 70), st.booleans())
    def test_encoder_refuses_planes_that_are_not_whole_blocks(self, kind, h, w, primed):
        assume(_not_whole(h, w))
        enc = stream_pair()[0]
        if primed:
            encode_frame(PlaneSet(kind, np.ones((3, BLOCK_SIDE, 2 * BLOCK_SIDE), kind.plane_dtype)), enc)
        before = enc.frame_count, None if enc.reference is None else enc.reference.data.tobytes()
        with pytest.raises(ValueError, match="not whole"):
            encode_frame(PlaneSet(kind, np.zeros((3, h, w), kind.plane_dtype)), enc, force_key=primed)
        assert (enc.frame_count, None if enc.reference is None else enc.reference.data.tobytes()) == before

    @pytest.mark.parametrize("kind", list(AtlasKind))
    @pytest.mark.parametrize("h, w", [(BLOCK_SIDE, 1 << 16), (1 << 16, BLOCK_SIDE)])
    def test_encoder_refuses_sides_the_header_cannot_hold(self, kind, h, w):
        # 65536 is whole blocks, but the header's width and height are u16
        enc = stream_pair()[0]
        encode_frame(PlaneSet(kind, np.ones((3, BLOCK_SIDE, 2 * BLOCK_SIDE), kind.plane_dtype)), enc)
        before = enc.frame_count, enc.reference.data.tobytes()
        with pytest.raises(ValueError, match="u16"):
            encode_frame(PlaneSet(kind, np.zeros((3, h, w), kind.plane_dtype)), enc, force_key=True)
        assert (enc.frame_count, enc.reference.data.tobytes()) == before
        # the widest whole-block side the header holds goes through
        side = (0xFFFF // BLOCK_SIDE) * BLOCK_SIDE
        widest = PlaneSet(kind, np.zeros((3, min(h, side), min(w, side)), kind.plane_dtype))
        frame = encode_frame(widest, stream_pair()[0])
        assert EncodedFrame.from_bytes(frame.to_bytes()) == frame

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([8, 16]), st.booleans(), st.integers(0, 65535), st.integers(0, 65535),
           st.sampled_from(["empty", "zero_bomb"]))
    def test_header_that_is_not_whole_blocks_refused_before_allocation(self, bits, key, h, w, payload):
        assume(_not_whole(h, w))
        payload = b"" if payload == "empty" else container(zero_bomb(10**6))
        frame = EncodedFrame(1, 1, key, w, h, 3, bits, payload)
        with pytest.raises(CorruptFrameError, match="unsupported layout"):
            EncodedFrame.read(frame.to_bytes())
        # a decoder whose reference the frame's sequence number follows
        kind = AtlasKind.COLOR if bits == 16 else AtlasKind.VISIBILITY
        enc, dec = stream_pair()
        decode_frame(encode_frame(PlaneSet(kind, np.zeros((3, BLOCK_SIDE, BLOCK_SIDE), kind.plane_dtype)), enc), dec)
        reference = dec.reference
        error, peak = _decode_peak(frame, dec)
        assert isinstance(error, CorruptFrameError) and "unsupported layout" in str(error)
        assert dec.reference is reference and dec.frame_count == 1
        assert peak < 1 << 16

    @pytest.mark.parametrize("w", [1, 2, 3, 5, 6, 7])
    def test_8bit_key_frames_1_to_7_wide_refused(self, w):
        # whatever the content: every byte clear, or one byte past the
        # planes' 3w bytes per row set in the first row or the last
        h, q = 3, -(-3 * w // 4)
        for i, y in [(i, y) for i in range(3 * w, 4 * q) for y in (0, h - 1)] + [(None, None)]:
            content = bytearray(4 * h * q)
            if i is not None:
                content[(i % 4) * h * q + y * q + i // 4] = 0x80
            frame = EncodedFrame(1, 0, True, w, h, 3, 8, container(deflate(bytes(content))))
            with pytest.raises(CorruptFrameError, match="unsupported layout"):
                EncodedFrame.read(frame.to_bytes())
            dec = CodecStreamState(1, "decoder")
            error, _ = _decode_peak(frame, dec)
            assert isinstance(error, CorruptFrameError) and "unsupported layout" in str(error)
            assert dec.frame_count == 0 and dec.reference is None


def _key_and_p_frames(kind, h, w, seed):
    """A key frame and the P-frame after it, plus the reference to decode it."""
    rng = np.random.default_rng(seed)
    make = color_planes if kind is AtlasKind.COLOR else vis_planes
    enc, dec = stream_pair()
    first = make(rng, h, w)
    second = first.copy()
    mutate = rng.random(second.data.shape) < 0.2
    second.data[mutate] ^= 1
    key = encode_frame(first, enc)
    decode_frame(key, dec)
    return key, encode_frame(second, enc), dec


def _plane_bytes(frame):
    """Bytes of the raw planes the frame header declares."""
    return frame.plane_count * frame.width * frame.height * (frame.element_bits // 8)


def _decode_peak(frame, state):
    """Decode `frame` under tracemalloc; returns (error or None, peak bytes)."""
    tracemalloc.start()
    try:
        decode_frame(frame, state)
        error = None
    except CodecError as err:
        error = err
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return error, peak


def test_tall_frames_match_scalar_reference():
    # planes of many block rows, through key frames and P-frames, against
    # the scalar reference decoder
    rng = np.random.default_rng(21)
    for kind, width in (
        (AtlasKind.COLOR, 80),
        (AtlasKind.VISIBILITY, 80),
        (AtlasKind.VISIBILITY, 64),
    ):
        enc, dec = stream_pair(gop=3)
        planes, previous = PlaneSet(kind, _smooth(rng, (304, width), kind.plane_dtype, 1.0)), None
        for _ in range(4):
            mutate = rng.random(planes.data.shape) < 0.02
            planes.data[mutate] ^= 1
            frame = encode_frame(planes.copy(), enc)
            assert np.array_equal(reference_decode(frame, previous), planes.data)
            assert decode_frame(frame, dec).equals(planes)
            previous = planes.data.copy()


class TestLanes:
    """8-bit key frames code each row's byte stream in four lanes. A row of
    whole blocks, w a multiple of 16, fills its lanes exactly."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from(["noise", "smooth", "zero"]))
    def test_key_frame_lanes_round_trip(self, block_rows, block_columns, seed, fill):
        h, w = block_rows * BLOCK_SIDE, block_columns * BLOCK_SIDE
        rng = np.random.default_rng(seed)
        if fill == "noise":
            data = rng.integers(0, 256, size=(3, h, w), dtype=np.uint8)
        elif fill == "smooth":
            data = _smooth(rng, (h, w), np.uint8, 2.0)
        else:
            data = np.zeros((3, h, w), np.uint8)
        planes = PlaneSet(AtlasKind.VISIBILITY, data)
        frame = EncodedFrame.from_bytes(encode_frame(planes, stream_pair()[0]).to_bytes())
        assert np.array_equal(reference_decode(frame, None), data)
        assert decode_frame(frame, CodecStreamState(1, "decoder")).equals(planes)

    def test_lanes_hold_texel_bytes(self):
        # twelve packed visibility texels a row, one block wide: lane k
        # holds byte k of every texel
        texels = (np.arange(16 * 12 * 2, dtype=np.uint16).reshape(16, 12, 2) * 0x0101 + 0x1020).astype(">u2")
        frame = encode_frame(pack_texels(texels, AtlasKind.VISIBILITY), stream_pair()[0])
        content = np.frombuffer(split_payload(frame)[1], np.uint8).reshape(4, 16, -1)
        assert content.shape == (4, 16, 12)
        wide = texels.view(np.uint8).reshape(16, 12, 4)
        for k in range(4):
            assert np.array_equal(content[k], wide[:, :, k])


def _p_frame_case(h=BLOCK_SIDE, w=BLOCK_SIDE, seed=19):
    """A decoder that has taken a key frame, and the valid P-frame after it."""
    rng = np.random.default_rng(seed)
    enc, dec = stream_pair()
    planes = color_planes(rng, h, w)
    decode_frame(encode_frame(planes, enc), dec)
    planes = planes.copy()
    planes.data[:, ::3, ::2] += 1
    return encode_frame(planes, enc), dec


def _stream_case(key):
    """(frame, decoder state, payload before the segment table, what each
    segment inflates to); `key` is True for a colour key frame,
    "visibility" for a visibility one, and False for a P-frame."""
    if key:
        rng = np.random.default_rng(18)
        planes = vis_planes(rng, 32, 48) if key == "visibility" else color_planes(rng, 32, 48)
        frame = encode_frame(planes, stream_pair()[0])
        return (frame, CodecStreamState(1, "decoder"), *inflated_segments(frame))
    frame, dec = _p_frame_case(32, 48)
    return (frame, dec, *inflated_segments(frame))


def _last_segment(frame, head, parts, last):
    """`frame` whose last deflate segment is `last`, the others coding
    `parts` as they should."""
    return like(frame, head + container(*map(deflate, parts[:-1]), last))


class TestFailClosed:
    """A frame whose segments are not exactly its content is rejected, in
    memory bounded by the size its header declares, and the decoder state
    stays as it was."""

    def _rejects(self, frame, dec):
        def state():
            return dec.frame_count, None if dec.reference is None else dec.reference.data.tobytes()

        before = state()
        error, peak = _decode_peak(frame, dec)
        assert isinstance(error, CorruptFrameError)
        assert state() == before
        return peak

    @pytest.mark.parametrize("key", [True, False, "visibility"])
    def test_stream_inflating_past_its_content(self, key):
        frame, dec, head, parts = _stream_case(key)
        self._rejects(_last_segment(frame, head, parts, deflate(parts[-1] + b"\0")), dec)

    @pytest.mark.parametrize("key", [True, False, "visibility"])
    def test_truncated_stream(self, key):
        frame, dec, head, parts = _stream_case(key)
        self._rejects(_last_segment(frame, head, parts, deflate(parts[-1], final=False)), dec)
        self._rejects(_last_segment(frame, head, parts, deflate(parts[-1])[:-1]), dec)

    @pytest.mark.parametrize("key", [True, False, "visibility"])
    def test_bytes_after_stream_end(self, key):
        frame, dec, head, parts = _stream_case(key)
        self._rejects(_last_segment(frame, head, parts, deflate(parts[-1]) + b"\0"), dec)

    @pytest.mark.parametrize("key", [True, False, "visibility"])
    def test_stream_inflating_short(self, key):
        frame, dec, head, parts = _stream_case(key)
        self._rejects(_last_segment(frame, head, parts, deflate(parts[-1][:-1])), dec)

    @pytest.mark.parametrize("flags", [2, 0x80, 0xFE, 0xFF])
    @pytest.mark.parametrize("key", [True, False])
    def test_unknown_frame_flags_rejected(self, flags, key):
        # the encoder writes flags 0 and 1 only; with its CRC recomputed, a
        # frame flagged 0xFF would otherwise read as a key frame
        key_frame, p_frame, _ = _key_and_p_frames(AtlasKind.COLOR, BLOCK_SIDE, 2 * BLOCK_SIDE, 6)
        data = bytearray((key_frame if key else p_frame).to_bytes())
        data[len(FRAME_MAGIC)] = flags
        data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
        for read in (EncodedFrame.read, EncodedFrame.from_bytes):
            with pytest.raises(CorruptFrameError, match="flags"):
                read(bytes(data))

    def test_bitmap_pad_bits_rejected(self):
        # one block position: the bitmap's last seven bits are padding
        frame, dec = _p_frame_case()
        bitmap, _ = split_payload(frame)
        assert bitmap == b"\x80"
        for pad in (0x01, 0x40):
            self._rejects(like(frame, bytes([0x80 | pad]) + frame.payload[1:]), dec)
        # eleven positions: the last five bits of the second byte
        frame, dec = _p_frame_case(BLOCK_SIDE, 11 * BLOCK_SIDE)
        bitmap, _ = split_payload(frame)
        assert bitmap == b"\xff\xe0"
        for pad in (0x01, 0x10):
            self._rejects(like(frame, bytes([0xFF, 0xE0 | pad]) + frame.payload[2:]), dec)

    def test_payload_shorter_than_bitmap(self):
        # 27 block positions need a 4-byte bitmap
        frame, dec = _p_frame_case(BLOCK_SIDE, 27 * BLOCK_SIDE)
        assert bitmap_size(frame) == 4
        for size in range(4):
            self._rejects(like(frame, frame.payload[:size]), dec)

    def test_huge_declared_key_frame_rejected_in_bounded_memory(self):
        # six segments of 12 bytes that start a valid stream, for 3 x 65520
        # x 65520 16-bit elements: inflated only as far as the bytes go
        payload = container(*[zero_bomb(10**6)[:12]] * 6)
        frame = EncodedFrame(1, 0, True, 65520, 65520, 3, 16, payload)
        peak = self._rejects(EncodedFrame.from_bytes(frame.to_bytes()), CodecStreamState(1, "decoder"))
        assert peak < 1 << 20

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_huge_zero_run_rejected_before_allocation(self, blocks):
        # a P-frame whose bitmap marks `blocks` positions, with 10**8 zero
        # bytes of residuals' low bytes in its first segment
        frame, dec = _p_frame_case(BLOCK_SIDE, 3 * BLOCK_SIDE)
        bitmap = np.packbits(np.arange(3) < blocks).tobytes()
        high = deflate(bytes(3 * blocks * BLOCK_SIDE * BLOCK_SIDE))
        peak = self._rejects(like(frame, bitmap + container(zero_bomb(10**8), high)), dec)
        assert peak < 1 << 20

    def test_dense_runs_parse_in_bounded_memory(self):
        # every position of a large P-frame is marked changed, and its stream
        # repeats a 3-byte pattern, one short match after another, far
        # past those blocks' bytes
        h, w = 688, 1024
        enc, dec = stream_pair()
        blank = PlaneSet(AtlasKind.VISIBILITY, np.zeros((3, h, w), np.uint8))
        decode_frame(encode_frame(blank, enc), dec)
        frame = EncodedFrame(1, 1, False, w, h, 3, 8, b"")
        bitmap = np.packbits(np.ones(43 * 64, bool)).tobytes()
        stream = deflate(*[b"\x02\x07\x05" * (1 << 20)] * 3)
        peak = self._rejects(like(frame, bitmap + container(stream)), dec)
        assert peak <= 16 * _plane_bytes(frame) + (1 << 20)

    def test_unsupported_layout_rejected(self):
        for planes, bits in ((2, 8), (3, 12)):
            wire = EncodedFrame(1, 0, True, 16, 16, planes, bits, b"\0" * 3).to_bytes()
            with pytest.raises(CorruptFrameError):
                EncodedFrame.from_bytes(wire)

    @settings(max_examples=150, deadline=None)
    @example(AtlasKind.VISIBILITY, 16, 16, False, [(5, 0x5A)], 0)
    @example(AtlasKind.VISIBILITY, 32, 48, False, [(0, 0)], -2)
    @given(
        st.sampled_from([AtlasKind.COLOR, AtlasKind.VISIBILITY]),
        st.sampled_from([16, 32, 48]),
        st.sampled_from([16, 32, 48]),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=6),
        st.integers(-3, 3),
    )
    def test_mutated_payload_fails_closed(self, kind, h, w, use_p, edits, resize):
        key, p_frame, dec = _key_and_p_frames(kind, h, w, h * 41 + w)
        frame = p_frame if use_p else key
        payload = bytearray(frame.payload)
        for at, value in edits:
            payload[at % len(payload)] = value
        payload = payload[: len(payload) + resize] if resize < 0 else payload + b"\0" * resize
        # a valid checksum, so the damage reaches the decoder
        wire = EncodedFrame(1, frame.frame_seq, frame.key, w, h, 3, frame.element_bits,
                            bytes(payload)).to_bytes()
        error, peak = _decode_peak(EncodedFrame.from_bytes(wire), dec)
        assert error is None or isinstance(error, CodecError)
        assert peak <= 16 * _plane_bytes(frame) + (1 << 20)


class TestHeaderWalk:
    """A P-frame's payload starts with its changed-position bitmap, one bit
    per block position, clear for a position unchanged in every plane. The
    bitmap is as long as the frame's position count needs and no longer,
    and the segments after it must inflate to exactly the residuals of the
    changed positions' blocks."""

    def _p_frame(self, payload, h=BLOCK_SIDE, w=2 * BLOCK_SIDE):
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(np.random.default_rng(22), h, w), enc), dec)
        return like(EncodedFrame(1, 1, False, w, h, 3, 16, b""), payload), dec

    def test_bytes_past_bitmap_rejected(self):
        # two block positions fit one bitmap byte; the bytes after it are
        # read as the segment table
        for extra in (1, 5):
            frame, dec = self._p_frame(bytes(1 + extra) + deflate(b""))
            with pytest.raises(CorruptFrameError):
                decode_frame(frame, dec)

    def test_residuals_without_changed_block_rejected(self):
        # no bit set in the bitmap, so no segment, yet a segment holds a
        # block's residuals
        frame, dec = self._p_frame(bytes(1) + container(deflate(bytes(2 * BLOCK_SIDE * BLOCK_SIDE))))
        with pytest.raises(CorruptFrameError, match="add up to 0 bytes"):
            decode_frame(frame, dec)

    def test_payload_ends_inside_bitmap(self):
        # 27 positions need a 4-byte bitmap; only the first is changed
        bitmap = np.packbits(np.arange(27) == 0).tobytes()
        payload = bitmap + deflate(bytes(2 * 3 * BLOCK_SIDE * BLOCK_SIDE))
        for size in (1, 2, 3):
            frame, dec = self._p_frame(payload[:size], w=27 * BLOCK_SIDE)
            with pytest.raises(CorruptFrameError, match="shorter than its bitmap"):
                decode_frame(frame, dec)

    def test_bitmap_in_key_frame_rejected(self):
        # a key frame has no bitmap: a bitmap byte is read as the start of
        # its segment table
        payload = bytes(1) + deflate(b"")
        frame = EncodedFrame(1, 0, True, 2 * BLOCK_SIDE, BLOCK_SIDE, 3, 16, payload)
        with pytest.raises(CorruptFrameError):
            decode_frame(like(frame, payload), CodecStreamState(1, role="decoder"))


class TestLossRecovery:
    """A P-frame the decoder cannot use leaves its state as it was, and the
    next key frame resyncs it."""

    def _snapshot(self, state):
        return state.reference.data.copy(), state.frame_count

    def _assert_unchanged(self, state, snapshot):
        reference, count = snapshot
        assert np.array_equal(state.reference.data, reference)
        assert state.frame_count == count

    def test_dropped_p_frame_then_forced_key(self):
        rng = np.random.default_rng(24)
        enc, dec = stream_pair()
        planes = color_planes(rng, 48, 64)
        for _ in range(2):
            planes = planes.copy()
            planes.data[:, 5:9, 20:30] += 1
            decode_frame(encode_frame(planes, enc), dec)
        encode_frame(planes, enc)  # dropped on the way
        planes = planes.copy()
        planes.data[:, 30:35, 3:7] += 1
        late = encode_frame(planes, enc)
        assert not late.key
        before = self._snapshot(dec)
        with pytest.raises(SequenceError):
            decode_frame(late, dec)
        self._assert_unchanged(dec, before)
        planes = planes.copy()
        planes.data[:, 0, 0] += 1
        key = encode_frame(planes, enc, force_key=True)
        assert key.key
        assert decode_frame(EncodedFrame.from_bytes(key.to_bytes()), dec).equals(planes)
        assert np.array_equal(dec.reference.data, enc.reference.data)
        planes = planes.copy()
        planes.data[:, 12:14, 40:50] += 1
        assert decode_frame(encode_frame(planes, enc), dec).equals(planes)

    def test_corrupt_p_frame_leaves_state(self):
        # a P-frame with a valid bitmap whose last segment stops one byte
        # short: every segment is inflated and checked before any plane is
        # touched
        rng = np.random.default_rng(25)
        enc, dec = stream_pair()
        planes = color_planes(rng, 9 * BLOCK_SIDE, BLOCK_SIDE)
        decode_frame(encode_frame(planes, enc), dec)
        planes = planes.copy()
        planes.data[:, :BLOCK_SIDE] += 1
        planes.data[:, -1] += 2
        frame = encode_frame(planes, enc)
        assert not frame.key
        before = self._snapshot(dec)
        bitmap, segments = read_segments(frame)
        segments = [segment for segment, _ in segments]
        with pytest.raises(CorruptFrameError):
            decode_frame(like(frame, bitmap + container(*segments[:-1], segments[-1][:-1])), dec)
        self._assert_unchanged(dec, before)
        assert decode_frame(frame, dec).equals(planes)

    def test_p_frame_of_another_plane_kind_rejected(self):
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(np.random.default_rng(26), 16, 16), enc), dec)
        frame = EncodedFrame(1, 1, False, 16, 16, 3, 8, bytes(1) + deflate(b""))
        before = self._snapshot(dec)
        with pytest.raises(DimensionMismatchError):
            decode_frame(frame, dec)
        self._assert_unchanged(dec, before)

    @pytest.mark.parametrize("key", [True, False])
    def test_frame_of_another_stream_rejected(self, key):
        # a colour decoder of stream 0 meets a visibility key frame of
        # stream 1, or a colour P-frame of stream 7 whose seq it expects
        rng = np.random.default_rng(27)
        first = color_planes(rng, 48, 64)
        enc, dec = CodecStreamState(0, "encoder"), CodecStreamState(0, "decoder")
        decode_frame(encode_frame(first, enc), dec)
        if key:
            foreign = encode_frame(vis_planes(rng, 48, 64), CodecStreamState(1, "encoder"))
        else:
            other = CodecStreamState(7, "encoder")
            encode_frame(first, other)
            changed = first.copy()
            changed.data[:, 3:9, 20:30] += 1
            foreign = encode_frame(changed, other)
            assert foreign.frame_seq == dec.frame_count
        assert foreign.key == key
        reference, before = dec.reference, self._snapshot(dec)
        with pytest.raises(StreamMismatchError):
            decode_frame(EncodedFrame.from_bytes(foreign.to_bytes()), dec)
        assert dec.reference is reference
        self._assert_unchanged(dec, before)
        assert decode_frame(encode_frame(first, enc), dec).equals(first)


class TestMemoryBound:
    """A 2048-slot visibility key frame is the largest frame the pipeline
    sends; on noise deflate finds nothing to match, so the payload is about as
    large as the planes."""

    LIMIT = 16 << 20

    def test_visibility_key_frame_peak(self):
        rng = np.random.default_rng(20)
        planes = vis_planes(rng, 688, 1024)
        enc, dec = stream_pair()
        tracemalloc.start()
        frame = encode_frame(planes, enc)
        _, encode_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        error, decode_peak = _decode_peak(EncodedFrame.from_bytes(frame.to_bytes()), dec)
        assert error is None
        assert dec.reference.equals(planes)
        assert encode_peak <= self.LIMIT
        assert decode_peak <= self.LIMIT


class TestEncoderOwnership:
    """The encoder keeps its own reference: a key frame copies the planes
    and a P-frame writes only its changed blocks into that copy. The
    decoder hands back its reference itself for a P-frame that changes
    nothing."""

    @pytest.mark.parametrize("make", [color_planes, vis_planes])
    def test_caller_writes_after_encode_leave_later_frames_unchanged(self, make):
        rng = np.random.default_rng(30)
        frames = [make(rng, 48, 64) for _ in range(2)]
        frames[1].data[:, :16, 16:32] = frames[0].data[:, :16, 16:32]
        frames += [frames[1].copy(), frames[0].copy()]
        clean, dirty = stream_pair(gop=30)[0], stream_pair(gop=30)[0]
        for planes in frames:
            expected = encode_frame(planes.copy(), clean).to_bytes()
            mine = planes.copy()
            assert encode_frame(mine, dirty).to_bytes() == expected
            mine.data ^= 1  # the caller reuses its planes after the call
        assert clean.reference.equals(dirty.reference)

    @pytest.mark.parametrize("layout", [lambda p: p, packed_layout])
    @pytest.mark.parametrize("make", [color_planes, vis_planes])
    def test_reference_shares_no_memory_with_the_callers_planes(self, make, layout):
        rng = np.random.default_rng(34)
        planes = layout(make(rng, 48, 64))
        enc = stream_pair()[0]
        for step in range(3):  # key, changed P, unchanged P
            if step == 1:
                planes.data[:, 20:40, 5:9] ^= 1
            encode_frame(planes, enc)
            assert not np.shares_memory(enc.reference.data, planes.data)
            assert enc.reference.equals(planes)
            # the copy keeps the caller's memory layout
            assert enc.reference.data.strides == planes.data.strides

    def test_unchanged_p_frame_decodes_to_the_reference_itself(self):
        rng = np.random.default_rng(31)
        enc, dec = stream_pair()
        planes = vis_planes(rng, 48, 64)
        first = decode_frame(encode_frame(planes, enc), dec)
        same = decode_frame(encode_frame(planes, enc), dec)
        assert same.data is first.data and not same.data.flags.writeable
        changed = planes.copy()
        changed.data[1, 20, 30] += 1
        assert decode_frame(encode_frame(changed, enc), dec).equals(changed)
        assert first.equals(planes)  # the earlier output is left as it was


class TestDecoderOwnership:
    """Decoding a P-frame adds its residuals into a copy of the reference:
    the planes the decoder returned for the previous frame, and its old
    reference, stay as they were, and the new planes are read-only."""

    @pytest.mark.parametrize("make", [color_planes, vis_planes])
    def test_p_frame_decode_writes_only_its_own_planes(self, make):
        rng = np.random.default_rng(33)
        enc, dec = stream_pair()
        # changes inside the first block row, in the bottom-right corner
        # block, and everywhere
        planes = make(rng, 48, 64)
        previous = decode_frame(encode_frame(planes, enc), dec)
        for rows, cols in ((slice(2, 9), slice(20, 30)), (slice(38, 48), slice(52, 64)),
                           (slice(None), slice(None))):
            planes = planes.copy()
            planes.data[:, rows, cols] ^= 1
            reference = dec.reference
            kept = previous.data.copy(), reference.data.copy()
            decoded = decode_frame(encode_frame(planes, enc), dec)
            assert decoded.equals(planes)
            assert not decoded.data.flags.writeable
            assert np.array_equal(previous.data, kept[0])
            assert np.array_equal(reference.data, kept[1])
            previous = decoded

    def test_unpacked_texels_are_read_only_views_of_the_decoded_planes(self):
        rng = np.random.default_rng(35)
        enc, dec = stream_pair()
        texels = rng.integers(0, 2**16, size=(48, 48, 2), dtype=np.uint16).astype(">u2")
        for step in range(3):  # key, changed P, unchanged P
            if step == 1:
                texels[20:30, 3:40] ^= 0x0101
            decoded = decode_frame(encode_frame(pack_texels(texels, AtlasKind.VISIBILITY), enc), dec)
            out = unpack_texels(decoded, AtlasKind.VISIBILITY, 48)
            assert np.shares_memory(out, decoded.data)
            assert not out.flags.writeable
            assert np.array_equal(out, texels)

    def test_texels_unpacked_earlier_stay_across_later_frames(self):
        rng = np.random.default_rng(36)
        enc, dec = stream_pair()
        texels = rng.integers(0, 2**16, size=(48, 48, 2), dtype=np.uint16).astype(">u2")
        kind = AtlasKind.VISIBILITY
        earlier = unpack_texels(decode_frame(encode_frame(pack_texels(texels, kind), enc), dec), kind, 48)
        kept = earlier.copy()
        # P-frames changing the first block row, a corner and everything,
        # then a key frame
        for rows, cols, key in ((slice(2, 9), slice(20, 30), False), (slice(38, 48), slice(40, 48), False),
                                (slice(None), slice(None), False), (slice(None), slice(None), True)):
            texels[rows, cols] ^= 0x8001
            frame = encode_frame(pack_texels(texels, kind), enc, force_key=key)
            assert frame.key is key
            later = unpack_texels(decode_frame(frame, dec), kind, 48)
            assert np.array_equal(later, texels)
            assert np.array_equal(earlier, kept)
            earlier, kept = later, later.copy()


def serial_deflate(segments):
    """The segment table and deflate segments of (bytes, strategy)
    segments, deflated one at a time, each by a fresh compressor and
    finished."""
    deflated = []
    for data, strategy in segments:
        packer = zlib.compressobj(1, zlib.DEFLATED, -15, strategy=strategy)
        deflated.append(packer.compress(data) + packer.flush(zlib.Z_FINISH))
    return container(*deflated)


def _lanes(data):
    """(4, h, q) lane bytes of (3, h, w) 8-bit planes, one row at a time."""
    _, h, w = data.shape
    q = -(-3 * w // 4)
    lanes = np.zeros((4, h, q), np.uint8)
    for y in range(h):
        stream = np.zeros(4 * q, np.uint8)
        stream[: 3 * w] = data[:, y].T.reshape(-1)
        lanes[:, y] = stream.reshape(q, 4).T
    return lanes


class TestConcurrentSegments:
    """A frame's deflate segments are coded concurrently, and an 8-bit key
    frame whose lanes reach `LANE_SEGMENT_BYTES` codes one segment per lane.
    Neither the bytes nor the decoded planes depend on the worker count."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 30000), st.sampled_from([zlib.Z_DEFAULT_STRATEGY, zlib.Z_RLE])),
                    max_size=7),
           st.integers(0, 2**32 - 1))
    def test_deflate_matches_serial_join(self, shapes, seed):
        rng = np.random.default_rng(seed)
        segments = [(rng.integers(0, 6, size=n, dtype=np.uint8), s) for n, s in shapes]
        assert codec._deflate(segments) == serial_deflate(segments)

    @pytest.mark.parametrize("h, w, split", [(176, 496, False), (288, 304, True)])
    def test_lane_split_depends_only_on_frame_size(self, cpus, h, w, split):
        # a lane of whole-block planes holds h * 3w / 4 bytes, a multiple of
        # 192: these are the largest lane short of 64 KiB (65472 bytes) and
        # the smallest that reaches it (65664)
        assert codec.LANE_SEGMENT_BYTES == 65536
        assert h * 3 * w // 4 == (65664 if split else 65472)
        rng = np.random.default_rng(h)
        data = _smooth(rng, (h, w), np.uint8, 2.0)
        lanes = _lanes(data)
        segments = [(lane, zlib.Z_DEFAULT_STRATEGY) for lane in lanes] if split else [
            (lanes, zlib.Z_DEFAULT_STRATEGY)
        ]
        expected = serial_deflate(segments)
        for n in (1, 2, 5):
            cpus(n)
            frame = encode_frame(PlaneSet(AtlasKind.VISIBILITY, data), stream_pair()[0])
            assert frame.payload == expected
            assert decode_frame(frame, CodecStreamState(1, "decoder")).data.tobytes() == data.tobytes()

    def test_frame_bytes_do_not_depend_on_worker_count(self, cpus):
        rng = np.random.default_rng(32)
        sequences = []
        for make, shape in ((color_planes, (208, 208)), (vis_planes, (256, 352))):
            planes = make(rng, *shape)
            sequences.append([planes, planes.copy(), planes.copy()])
            sequences[-1][1].data[:, ::9, ::4] ^= 1
        runs, decoded = [], []
        for n in (1, 2, 3):
            cpus(n)
            frames, planes_out = [], []
            for sequence in sequences:
                enc, dec = stream_pair()
                for planes in sequence:
                    frame = encode_frame(planes, enc)
                    out = decode_frame(frame, dec)
                    assert out.equals(planes)
                    frames.append(frame.to_bytes())
                    planes_out.append(out.data.tobytes())
            runs.append(frames)
            decoded.append(planes_out)
        assert runs[0] == runs[1] == runs[2]
        assert decoded[0] == decoded[1] == decoded[2]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from([color_planes, vis_planes]), block_rows=st.integers(1, 3),
       block_columns=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
# 8-bit lanes that reach `LANE_SEGMENT_BYTES`, deflated and inflated concurrently
@example(kind=vis_planes, block_rows=18, block_columns=19, seed=3)
def test_frames_do_not_depend_on_the_planes_memory_layout(cpus, kind, block_rows, block_columns, seed):
    """Planes given planar-contiguous, given in `pack_texels`'s layout,
    or switching between the two from frame to frame code to the same key
    and P-frame bytes and decode to the same values, at 1 and at 2 CPUs."""
    rng = np.random.default_rng(seed)
    first = kind(rng, block_rows * BLOCK_SIDE, block_columns * BLOCK_SIDE)
    changed = first.copy()
    changed.data[:, rng.random(changed.data.shape[1:]) < 0.01] ^= 1
    sequence = [first, changed, changed, first]
    layouts = {
        "planar": [p.copy() for p in sequence],
        "packed": [packed_layout(p) for p in sequence],
        "mixed": [packed_layout(p) if i % 2 else p.copy() for i, p in enumerate(sequence)],
    }
    assert layouts["planar"][0].data.flags.c_contiguous
    assert layouts["packed"][0].data.transpose(1, 2, 0).flags.c_contiguous
    for n in (1, 2):
        cpus(n)
        runs = {}
        for name, frames in layouts.items():
            enc, dec = stream_pair(gop=3)
            coded = []
            for planes in frames:
                frame = encode_frame(planes, enc)
                out = decode_frame(EncodedFrame.from_bytes(frame.to_bytes()), dec)
                assert out.equals(planes)
                coded.append((frame.key, frame.to_bytes()))
            runs[name] = coded
        assert [key for key, _ in runs["planar"]] == [True, False, False, True]
        assert runs["planar"] == runs["packed"] == runs["mixed"]


@pytest.mark.parametrize("make", [color_planes, vis_planes])
def test_switching_layouts_after_a_key_frame_codes_the_same_bytes(make):
    """A key frame of C-order planes, then P-frames of planes in
    `pack_texels`'s layout, then C-order ones again, code to the frame
    bytes of either layout throughout: the encoder's reference keeps the
    key frame's layout, and `changed_blocks` copies whichever side is not
    in the layout it reads. Each P-frame changes one plane at a few
    positions, or nothing."""
    rng = np.random.default_rng(27)
    first = make(rng, 3 * BLOCK_SIDE, 4 * BLOCK_SIDE)
    sequence = [first]
    for plane in (0, 2, None, 1, 0):
        changed = sequence[-1].copy()
        if plane is not None:
            changed.data[plane, rng.integers(0, changed.height, 3), rng.integers(0, changed.width, 3)] ^= 1
        sequence.append(changed)
    switched = [p.copy() if i in (0, 4, 5) else packed_layout(p) for i, p in enumerate(sequence)]
    assert switched[0].data.flags.c_contiguous and not switched[1].data.flags.c_contiguous
    runs = []
    for frames in ([p.copy() for p in sequence], [packed_layout(p) for p in sequence], switched):
        enc, dec = stream_pair()
        coded = []
        for planes in frames:
            frame = encode_frame(planes, enc)
            assert decode_frame(EncodedFrame.from_bytes(frame.to_bytes()), dec).equals(planes)
            coded.append(frame.to_bytes())
        runs.append(coded)
    assert runs[0] == runs[1] == runs[2]
    assert [EncodedFrame.from_bytes(data).key for data in runs[0]] == [True] + [False] * 5


@pytest.mark.parametrize("half", [0, 1])
def test_one_low_byte_of_a_visibility_texel_round_trips(half):
    """Changing only the low byte of one half of one visibility texel
    changes one byte of one plane, so one plane's block at one position.
    The P-frame marks that position and codes its block in all three
    planes, two of them as zero residuals, and the texels come back."""
    rng = np.random.default_rng(28 + half)
    h, w = 2 * BLOCK_SIDE, 6 * BLOCK_SIDE  # 72 texels a row, 96 plane elements
    texels = rng.integers(0, 1 << 16, size=(h, 3 * w // 4, 2), dtype=np.uint16).astype(">u2")
    enc, dec = stream_pair()
    decode_frame(encode_frame(pack_texels(texels, AtlasKind.VISIBILITY), enc), dec)
    y, t = 21, 50
    changed = texels.copy()
    changed[y, t, half] ^= 0x0001
    planes = pack_texels(changed, AtlasKind.VISIBILITY)
    moved = np.argwhere(planes.data != pack_texels(texels, AtlasKind.VISIBILITY).data)
    # byte 4t + 2 * half + 1 of the row stream, planes take bytes in turn
    byte = 4 * t + 2 * half + 1
    assert moved.tolist() == [[byte % 3, y, byte // 3]]
    frame = encode_frame(planes, enc)
    bits = np.unpackbits(np.frombuffer(split_payload(frame)[0], np.uint8))[: 2 * 6].reshape(2, 6)
    assert np.argwhere(bits).tolist() == [[y // BLOCK_SIDE, byte // 3 // BLOCK_SIDE]]
    residuals = np.frombuffer(split_payload(frame)[1], np.uint8).reshape(3, BLOCK_SIDE, BLOCK_SIDE)
    assert [int(np.count_nonzero(plane)) for plane in residuals] == [int(p == byte % 3) for p in range(3)]
    out = decode_frame(EncodedFrame.from_bytes(frame.to_bytes()), dec)
    assert np.array_equal(unpack_texels(out, AtlasKind.VISIBILITY, 3 * w // 4), changed)


def _table_case(kind):
    """(frame, decoder state) for a frame of several segments whose stream
    reaches `CONCURRENT_DEFLATE_BYTES`, so that more than one CPU inflates
    it: a colour key frame (six segments), a visibility key frame (four
    lanes) or a colour P-frame that changes every element (two segments).
    The decoder has taken a frame before it."""
    rng = np.random.default_rng(40)
    shape = (288, 304) if kind == "visibility_key" else (112, 112)
    atlas = AtlasKind.VISIBILITY if kind == "visibility_key" else AtlasKind.COLOR
    first = PlaneSet(atlas, _smooth(rng, shape, atlas.plane_dtype, 2.0))
    enc, dec = stream_pair()
    decode_frame(encode_frame(first, enc), dec)
    second = PlaneSet(atlas, first.data + atlas.plane_dtype(1))
    frame = encode_frame(second, enc, force_key=kind != "color_p")
    assert frame.key == (kind != "color_p")
    assert sum(size for _, size in read_segments(frame)[1]) >= codec.CONCURRENT_DEFLATE_BYTES
    return frame, dec


# each makes the segment table and the segments from the good segments
BAD_TABLES = {
    "table_cut_short": lambda segments: table(map(len, segments))[:-2],
    "lengths_past_the_payload": lambda segments: (
        table([*map(len, segments[:-1]), len(segments[-1]) + 1]) + b"".join(segments)
    ),
    "lengths_short_of_the_payload": lambda segments: (
        table([*map(len, segments[:-1]), len(segments[-1]) - 1]) + b"".join(segments)
    ),
    # the lengths still add up to the payload
    "zero_length": lambda segments: (
        table([0, len(segments[0]) + len(segments[1]), *map(len, segments[2:])]) + b"".join(segments)
    ),
}
# each makes a bad segment from a good one and what it inflates to
BAD_SEGMENTS = {
    "inflates_past": lambda segment, part: deflate(part + b"\0"),
    "inflates_short": lambda segment, part: deflate(part[:-1]),
    "bytes_after_final_block": lambda segment, part: segment + b"\0",
    # as LPF3 joined its segments: sync-flushed, with no final block
    "sync_flushed": lambda segment, part: deflate(part, final=False),
}


class TestSegmentTable:
    """A bad segment table is rejected before any segment is inflated, and a
    bad segment before any plane is built. Either way the decoder state
    stays as it was, and the error is the same at 1 and at 2 CPUs."""

    def _rejects(self, frame, dec, cpus, monkeypatch):
        """The class of the error `frame` raises at 1 and at 2 CPUs, and how
        many segments were inflated in all."""
        inflated, built = [], []

        def spy(name, log):
            real = getattr(codec, name)

            def call(*args):
                log.append(name)
                return real(*args)

            monkeypatch.setattr(codec, name, call)

        spy("_inflate", inflated)
        for builder in ("_join_low_high", "_from_lanes"):
            spy(builder, built)
        errors = []
        for n in (1, 2):
            cpus(n)
            before = dec.frame_count, dec.reference.data.tobytes()
            error, _ = _decode_peak(frame, dec)
            assert (dec.frame_count, dec.reference.data.tobytes()) == before
            errors.append(type(error))
        assert errors == [CorruptFrameError] * 2
        assert not built
        return len(inflated)

    @pytest.mark.parametrize("kind", ["color_key", "visibility_key", "color_p"])
    def test_good_table_decodes_at_any_worker_count(self, cpus, kind):
        frame, dec = _table_case(kind)
        out = []
        for n in (1, 2):
            cpus(n)
            out.append(decode_frame(frame, copy.deepcopy(dec)).data.tobytes())
        assert out[0] == out[1] == reference_decode(frame, dec.reference.data).tobytes()

    @pytest.mark.parametrize("fault", sorted(BAD_TABLES))
    @pytest.mark.parametrize("kind", ["color_key", "visibility_key", "color_p"])
    def test_bad_table_rejected_before_any_inflate(self, cpus, monkeypatch, kind, fault):
        frame, dec = _table_case(kind)
        head, segments = read_segments(frame)
        bad = like(frame, head + BAD_TABLES[fault]([segment for segment, _ in segments]))
        assert self._rejects(bad, dec, cpus, monkeypatch) == 0

    @pytest.mark.parametrize("fault", sorted(BAD_SEGMENTS))
    @pytest.mark.parametrize("kind", ["color_key", "visibility_key", "color_p"])
    def test_bad_segment_rejected_before_any_plane(self, cpus, monkeypatch, kind, fault):
        # the first segment or the last one is bad, the others good
        frame, dec = _table_case(kind)
        head, parts = inflated_segments(frame)
        segments = [segment for segment, _ in read_segments(frame)[1]]
        for at in (0, len(segments) - 1):
            changed = list(segments)
            changed[at] = BAD_SEGMENTS[fault](segments[at], parts[at])
            assert self._rejects(like(frame, head + container(*changed)), dec, cpus, monkeypatch) > 0
