import tracemalloc

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
    CodecError,
    CodecStreamState,
    CorruptFrameError,
    DimensionMismatchError,
    EncodedFrame,
    EntropyDecodeError,
    MissingReferenceError,
    SequenceError,
    decode_frame,
    encode_frame,
    entropy_decode,
    entropy_encode,
)
from probestream.packing import PlaneKind, PlaneSet
from probestream.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
    unzigzag,
    zigzag,
)


def color_planes(rng, h=48, w=48):
    return PlaneSet(
        PlaneKind.COLOR_10IN16,
        rng.integers(0, 1024, size=(3, h, w), dtype=np.uint16),
    )


def vis_planes(rng, h=48, w=48):
    return PlaneSet(
        PlaneKind.VISIBILITY_BYTES,
        rng.integers(0, 256, size=(3, h, w), dtype=np.uint8),
    )


def stream_pair(gop=30):
    return (
        CodecStreamState(1, role="encoder", gop_length=gop),
        CodecStreamState(1, role="decoder", gop_length=gop),
    )


class TestVarint:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**34))
    def test_scalar_round_trip(self, value):
        value, offset = decode_uvarint(encode_uvarint(value) + b"xx")
        assert decode_uvarint(encode_uvarint(value))[0] == value

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**34), max_size=64))
    def test_array_round_trip(self, values):
        arr = np.array(values, dtype=np.uint64)
        blob = encode_uvarint_array(arr)
        # array path agrees with the scalar path byte for byte
        assert blob == b"".join(encode_uvarint(int(v)) for v in values)
        out, used = decode_uvarint_array(blob, len(values))
        assert used == len(blob)
        assert np.array_equal(out, arr)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-(2**30), 2**30), max_size=32))
    def test_zigzag_round_trip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(unzigzag(zigzag(arr)), arr)

    def test_zigzag_keeps_small_magnitudes_small(self):
        assert list(zigzag(np.array([0, -1, 1, -2, 2]))) == [0, 1, 2, 3, 4]


class TestEntropy:
    def test_zeros_collapse(self):
        encoded = entropy_encode(b"\0" * 4096)
        assert len(encoded) <= 8
        assert entropy_decode(encoded, 4096) == b"\0" * 4096

    def test_random_expansion_bounded(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=65536, dtype=np.uint8).tobytes()
        encoded = entropy_encode(data)
        assert len(encoded) <= len(data) * 1.03
        assert entropy_decode(encoded, len(data)) == data

    def test_empty(self):
        assert entropy_encode(b"") == b""
        assert entropy_decode(b"", 0) == b""

    def test_lone_zeros_stay_literal(self):
        data = b"\x01\x00\x02\x00\x03"
        assert entropy_decode(entropy_encode(data), len(data)) == data

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=2048))
    def test_round_trip_property(self, data):
        assert entropy_decode(entropy_encode(data), len(data)) == data

    def test_malformed_stream_rejected(self):
        with pytest.raises(EntropyDecodeError):
            entropy_decode(encode_uvarint(100 << 1) + b"short", 100)
        with pytest.raises(EntropyDecodeError):
            entropy_decode(b"\xff", 1)  # truncated varint
        with pytest.raises(EntropyDecodeError):
            entropy_decode(entropy_encode(b"abc"), 4)  # decodes short

    def test_huge_zero_run_rejected_before_allocation(self):
        run = encode_uvarint((10**7 << 1) | 1)
        assert len(run) == 4
        tracemalloc.start()
        try:
            with pytest.raises(EntropyDecodeError):
                entropy_decode(run, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def first_block_mode(block, reference=None):
    """Mode byte the encoder writes for one 16x16 block: byte 0 of the
    payload of a frame whose three planes all hold `block`, coded as a key
    frame, or as the P-frame after a key frame of `reference`."""

    def planes(b):
        return PlaneSet(PlaneKind.COLOR_10IN16, np.stack([b, b, b]))

    enc, _ = stream_pair()
    if reference is not None:
        encode_frame(planes(reference), enc)
    frame = encode_frame(planes(block), enc)
    assert frame.key == (reference is None)
    return frame.payload[0]


class TestBlockModes:
    def test_identical_blocks_skip(self):
        rng = np.random.default_rng(1)
        block = rng.integers(0, 1024, size=(16, 16), dtype=np.uint16)
        assert first_block_mode(block, block.copy()) == MODE_SKIP

    def test_constant_offset_prefers_delta(self):
        rng = np.random.default_rng(2)
        ref = rng.integers(0, 512, size=(16, 16), dtype=np.uint16)
        cur = ref + 3
        assert first_block_mode(cur, ref) == MODE_DELTA

    def test_no_reference_never_skip(self):
        rng = np.random.default_rng(3)
        block = rng.integers(0, 1024, size=(16, 16), dtype=np.uint16)
        assert first_block_mode(block) == MODE_RAW
        assert first_block_mode(block, block.copy()) == MODE_SKIP


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
        # every block byte is SKIP, nothing else in the payload
        assert set(frame.payload) == {MODE_SKIP}
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
        cur = color_planes(rng, 40, 56)
        for _ in range(60):
            mutate = rng.random(cur.data.shape) < 0.1
            cur.data[mutate] = rng.integers(0, 1024, size=int(mutate.sum()))
            frame = encode_frame(cur.copy(), enc)
            wire = EncodedFrame.from_bytes(frame.to_bytes())
            out = decode_frame(wire, dec)
            assert out.equals(cur)
            assert np.array_equal(enc.reference.data, dec.reference.data)

    def test_round_trip_uint8_planes(self):
        rng = np.random.default_rng(8)
        enc, dec = stream_pair()
        for _ in range(5):
            planes = vis_planes(rng, 36, 44)
            assert decode_frame(encode_frame(planes, enc), dec).equals(planes)

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
        blob = bytearray(encode_frame(color_planes(rng), enc).to_bytes())
        blob[40] ^= 0xFF
        with pytest.raises(CorruptFrameError):
            EncodedFrame.from_bytes(bytes(blob))

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

    def test_edge_blocks_clipped_not_padded(self):
        rng = np.random.default_rng(17)
        enc, dec = stream_pair()
        planes = color_planes(rng, BLOCK_SIDE + 5, BLOCK_SIDE + 3)
        assert decode_frame(encode_frame(planes, enc), dec).equals(planes)


def _key_and_p_frames(kind, h, w, seed):
    """A key frame and the P-frame after it, plus the reference to decode it."""
    rng = np.random.default_rng(seed)
    make = color_planes if kind is PlaneKind.COLOR_10IN16 else vis_planes
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


def test_multi_band_frames_match_per_block_reference():
    # planes taller than one band of block rows, clipped on both edges, with
    # smooth content so that intra DELTA chains cross band boundaries
    from test_codec_golden import _smooth, reference_payload

    rng = np.random.default_rng(21)
    for kind in (PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES):
        enc, dec = stream_pair(gop=3)
        planes, previous = PlaneSet(kind, _smooth(rng, (300, 70), kind.dtype, 1.0)), None
        for _ in range(4):
            mutate = rng.random(planes.data.shape) < 0.02
            planes.data[mutate] ^= 1
            frame = encode_frame(planes.copy(), enc)
            assert frame.payload == reference_payload(planes, None if frame.key else previous)
            assert decode_frame(frame, dec).equals(planes)
            previous = planes.copy()


class TestFailClosed:
    def test_delta_block_without_varint_terminator(self):
        enc, dec = stream_pair()
        planes = color_planes(np.random.default_rng(19), BLOCK_SIDE, BLOCK_SIDE)
        decode_frame(encode_frame(planes, enc), dec)
        # one literal run of continuation bytes: no varint ever ends
        block = entropy_encode(b"\x81" * 64)
        payload = bytes([MODE_DELTA]) + encode_uvarint(len(block)) + block
        payload += bytes([MODE_SKIP, MODE_SKIP])
        frame = EncodedFrame(1, 1, False, BLOCK_SIDE, BLOCK_SIDE, 3, 16, payload)
        with pytest.raises(CorruptFrameError):
            decode_frame(EncodedFrame.from_bytes(frame.to_bytes()), dec)

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_huge_zero_run_rejected_before_allocation(self, blocks):
        run = encode_uvarint((10**8 << 1) | 1)
        payload = (bytes([MODE_RAW]) + encode_uvarint(len(run)) + run) * blocks
        wire = EncodedFrame(1, 0, True, BLOCK_SIDE, BLOCK_SIDE, 3, 8, payload).to_bytes()
        if blocks == 1:
            assert len(wire) == 33
        error, peak = _decode_peak(EncodedFrame.from_bytes(wire), CodecStreamState(1, "decoder"))
        assert isinstance(error, CorruptFrameError)
        assert peak < 1 << 20

    def test_dense_runs_parse_in_bounded_memory(self):
        # every block of a large P-frame alternates 1-byte literals and
        # 2-byte zero runs: the most runs a block can carry, parsed a band
        # at a time
        h, w = 720, 982
        enc, dec = stream_pair()
        blank = PlaneSet(PlaneKind.VISIBILITY_BYTES, np.zeros((3, h, w), np.uint8))
        decode_frame(encode_frame(blank, enc), dec)
        payload = bytearray()
        for _ in range(3):
            for y in range(0, h, BLOCK_SIDE):
                for x in range(0, w, BLOCK_SIDE):
                    count = min(BLOCK_SIDE, h - y) * min(BLOCK_SIDE, w - x)
                    block = b"\x02\x07\x05" * (2 * count // 3)
                    payload += bytes([MODE_DELTA]) + encode_uvarint(len(block)) + block
        frame = EncodedFrame(1, 1, False, w, h, 3, 8, bytes(payload))
        error, peak = _decode_peak(frame, dec)
        assert isinstance(error, CorruptFrameError)
        assert peak <= 16 * _plane_bytes(frame) + (1 << 20)

    def test_unsupported_layout_rejected(self):
        for planes, bits in ((2, 8), (3, 12)):
            wire = EncodedFrame(1, 0, True, 16, 16, planes, bits, b"\0" * 3).to_bytes()
            with pytest.raises(CorruptFrameError):
                EncodedFrame.from_bytes(wire)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([PlaneKind.COLOR_10IN16, PlaneKind.VISIBILITY_BYTES]),
        st.integers(1, 40),
        st.integers(1, 40),
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
    """SKIP runs are passed over whole; a run never stands for more blocks
    than are left, and a payload must end exactly after the last block."""

    def _p_frame(self, payload, h=BLOCK_SIDE, w=2 * BLOCK_SIDE):
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(np.random.default_rng(22), h, w), enc), dec)
        return EncodedFrame(1, 1, False, w, h, 3, 16, payload), dec

    def test_skip_run_past_block_count(self):
        for extra in (1, 5):
            frame, dec = self._p_frame(bytes([MODE_SKIP]) * (6 + extra))
            with pytest.raises(CorruptFrameError, match="trailing"):
                decode_frame(frame, dec)

    def test_coded_block_after_last_skip_run(self):
        block = entropy_encode(bytes(2 * BLOCK_SIDE * BLOCK_SIDE))
        tail = bytes([MODE_RAW]) + encode_uvarint(len(block)) + block
        frame, dec = self._p_frame(bytes([MODE_SKIP]) * 6 + tail)
        with pytest.raises(CorruptFrameError, match="trailing"):
            decode_frame(frame, dec)

    def test_payload_ends_inside_skip_run(self):
        block = entropy_encode(bytes(2 * BLOCK_SIDE * BLOCK_SIDE))
        head = bytes([MODE_RAW]) + encode_uvarint(len(block)) + block
        assert len(head) + 3 >= 6  # long enough to reach the header walk
        frame, dec = self._p_frame(head + bytes([MODE_SKIP]) * 3)
        with pytest.raises(CorruptFrameError, match="mid-plane"):
            decode_frame(frame, dec)

    def test_skip_in_key_frame_rejected(self):
        payload = bytes([MODE_SKIP]) * 6
        frame = EncodedFrame(1, 0, True, 2 * BLOCK_SIDE, BLOCK_SIDE, 3, 16, payload)
        with pytest.raises(CorruptFrameError, match="SKIP block in a key frame"):
            decode_frame(frame, CodecStreamState(1, role="decoder"))


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
        planes = color_planes(rng, 40, 56)
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
        # a valid RAW block in the first band, then a DELTA block with no
        # varint terminator in the second: the first band is decoded before
        # the second fails
        h, w = (BAND_BLOCK_ROWS + 1) * BLOCK_SIDE, BLOCK_SIDE
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(np.random.default_rng(25), h, w), enc), dec)
        raw = entropy_encode(bytes(range(256)) * 2)
        bad = entropy_encode(b"\x81" * 64)
        plane = bytes([MODE_RAW]) + encode_uvarint(len(raw)) + raw
        plane += bytes([MODE_SKIP]) * (BAND_BLOCK_ROWS - 1)
        plane += bytes([MODE_DELTA]) + encode_uvarint(len(bad)) + bad
        payload = plane + bytes([MODE_SKIP]) * (2 * (BAND_BLOCK_ROWS + 1))
        wire = EncodedFrame(1, 1, False, w, h, 3, 16, payload).to_bytes()
        before = self._snapshot(dec)
        with pytest.raises(CorruptFrameError):
            decode_frame(EncodedFrame.from_bytes(wire), dec)
        self._assert_unchanged(dec, before)

    def test_p_frame_of_another_plane_kind_rejected(self):
        enc, dec = stream_pair()
        decode_frame(encode_frame(color_planes(np.random.default_rng(26), 16, 16), enc), dec)
        frame = EncodedFrame(1, 1, False, 16, 16, 3, 8, bytes([MODE_SKIP]) * 3)
        before = self._snapshot(dec)
        with pytest.raises(DimensionMismatchError):
            decode_frame(frame, dec)
        self._assert_unchanged(dec, before)


class TestMemoryBound:
    """A 2048-slot visibility key frame is the largest frame the pipeline
    sends; noise makes every block RAW and the payload as large as the
    planes."""

    LIMIT = 16 << 20

    def test_visibility_key_frame_peak(self):
        rng = np.random.default_rng(20)
        planes = vis_planes(rng, 720, 982)
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
