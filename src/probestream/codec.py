"""Lossless temporal frame codec over plane sets.

The package's one codec. I-frames (key frames) are self-contained; P-frames
code only the 16x16-element blocks that changed since the previous
reconstructed frame, as residuals against it. Frames never reference the
future, and the encoder has zero lookahead: every frame is emitted as soon
as it is presented. Encoding is closed-loop lossless, so encoder and decoder
reconstructions are bit-identical after every frame.

Planes are whole blocks: their sides are multiples of `BLOCK_SIDE`, 0
included. HEVC works the same way. It codes a picture only in whole coding
blocks, and its encoder pads a picture of another size and signals a
conformance window that crops it back (Sullivan et al., "Overview of the
High Efficiency Video Coding (HEVC) Standard", IEEE TCSVT 2012). Here the
padding is the layout's: `packing.UpdateAtlasLayout` lays the update atlas
out so that its planes are whole blocks. `encode_frame` raises `ValueError`
for other planes, and `EncodedFrame.read` and `decode_frame` raise
`CorruptFrameError` for a header that declares them.

Wire format (`FRAME_MAGIC` ``LPF4``). A frame is a fixed header, the payload
and a CRC-32 over both. The header gives the payload's length, so
`EncodedFrame.read` finds where a frame ends in longer input;
`EncodedFrame.from_bytes` is the same read of input that holds the frame
alone. A P-frame's payload starts with its changed-block bitmap (below).
The rest of every payload is the frame's stream of bytes, cut into deflate
segments: a table of each segment's compressed length (``<u4``, in segment
order), then the segments. Each segment is one complete raw deflate stream
(RFC 1951, no zlib or gzip wrapper, since the frame CRC covers it), written
at the fixed `DEFLATE_LEVEL`, and the segments inflate, in order, to the
stream. Where the stream is cut is part of the format, so the decoder
derives the number of segments and the size of each from the header and
the bitmap alone:

* a stream of 16-bit runs: per run, its low half, then its high half;
* an 8-bit key frame: each of its four lanes (below) once a lane holds
  `LANE_SEGMENT_BYTES`, otherwise the whole stream;
* an 8-bit P-frame: the whole stream;
* a segment that would inflate to 0 bytes is absent, table entry and all,
  so a frame with an empty stream ends at its bitmap.

The 8-bit lanes are never cut smaller, since each segment starts with an
empty window: on `keyframe_churn`'s visibility key frame, cutting the lanes
at 128 KiB codes 1.2% more bytes and at 64 KiB 7.7% more. What the stream
holds:

* 8-bit values are written as they are. A run of 16-bit values is zig-zag
  mapped (read as int16: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...) and
  written as the low bytes of all its values, then their high bytes.
* Key frame, 8-bit planes: the plane bytes in four texel-byte lanes. With
  planes of h rows and w columns, row y is read as the byte stream s of
  3w bytes with s[3p + c] = plane c at (y, p), the order in which
  `packing.pack_visibility` distributes a row's bytes; since 16 divides w,
  3w = 4q exactly. Lane k (0 <= k < 4) of the row is s[k], s[k + 4], ...,
  s[k + 4(q - 1)]. The stream holds lane 0 of every row in row order, then
  lanes 1, 2 and 3 the same way: its byte k*h*q + y*q + j is s[4j + k] of
  row y, 4*h*q bytes in all. For visibility texels the lanes hold their
  R-hi, R-lo, G-hi and G-lo bytes, so each part of the stream holds bytes
  of one kind. The encoder cuts the lanes as one 4-way split of the row
  streams, and the decoder joins them back into planes in
  `packing.pack_visibility`'s memory layout, whose (h, w, 3) transpose is
  the row streams themselves; planes in another layout code to the same
  bytes through one more copy. The visibility update atlas is held as
  big-endian texels whose bytes are those row streams, so
  `packing.pack_texels` hands the encoder planes in that layout, and
  `packing.unpack_texels` reads decoded planes as texels, copying nothing.
* Key frame, 16-bit planes: per plane, one run holding the gradient
  residual r = x - left - up + up-left (mod 2**16, neighbours outside the
  plane read as 0) of every element in row order. The decoder inverts it
  with two running sums mod 2**16, one along each axis.
* P-frame: the payload starts with the changed-block bitmap and the
  segment table follows it. The bitmap holds one bit per block over
  (plane, block row, block column) in raster order, most significant bit
  first, padded with zero bits to a whole byte. The stream holds the
  residuals cur - ref (mod 2**bits) of the changed blocks in bitmap order,
  each block's elements in row order; in 16-bit planes they form one run.
  The bitmap's grid is `volume.changed_blocks`, the block-change reduction
  that `selection.detect_changed` shares.

The decoder knows each segment's inflated size before inflating: the
stream is 4*h*q bytes for an 8-bit key frame, the header's plane bytes for
a 16-bit one, and the changed blocks' elements for a P-frame. It first
checks the table, and raises `CorruptFrameError` for a payload shorter than
its table, a length of 0, or lengths that do not add up to the rest of the
payload, before it inflates anything. Then it lets zlib produce at most one
byte more than each segment's size, and raises `CorruptFrameError` for a
segment that is not deflate, inflates past or short of its size, stops
before its final block or has bytes after it, and for a bitmap with a pad
bit set or a payload shorter than its bitmap; all of this before any plane
is allocated. A frame whose header names another stream than the decoder's
raises `StreamMismatchError`, key frames included. Malformed input raises
`CodecError` and nothing else, and leaves the stream state as it was.

The deflate bytes may differ between zlib builds; what they inflate to does
not, and that alone is the format.

The encoder deflates each segment with a fresh compressor: the low half of
a 16-bit run at `zlib.Z_RLE`, everything else at the default strategy. The
low bytes of zig-zagged residuals are close to noise; on them level-1 LZ
matching is slow and its short matches cost more bits than the literals
they replace, so run-length matches alone code them smaller and faster. On
8-bit content `Z_RLE` codes several times larger. The segments are
independent, so once a frame's stream holds `CONCURRENT_DEFLATE_BYTES` the
encoder deflates them, and the decoder inflates them, concurrently
(`workers.run_pieces`), as HEVC's entry points let a decoder start each tile
on its own. Where the segments fall depends only on the header and the
bitmap, so neither the frame bytes nor the decoded planes depend on how
many CPUs coded them.

P-frame residuals move as whole blocks, never element by element, through
the copy-free (plane, block row, block column, y, x) view of the planes
that `volume.block_grid` makes, the same view that reads an atlas. The
encoder gathers the changed blocks of both planes from the views and
subtracts them; the decoder adds the residual blocks into a copy of its
reference through the same view.

The encoder keeps its own copy of the last frame as the reference: a key
frame copies the caller's planes, and a P-frame copies into it only the
block rows that hold a changed block, so the caller may reuse its planes
after the call: `packing.pack_texels`'s planes are a view of the update
atlas, which the next update rewrites in place. Every reference copy, the encoder's and the decoder's,
keeps the memory layout of the planes it copies (``order="K"``), so
visibility planes stay in `packing.pack_visibility`'s layout from frame to
frame and unpack without a copy.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from probestream import workers
from probestream.packing import PlaneSet
from probestream.volume import BLOCK_SIDE, AtlasKind, block_grid, changed_blocks

DEFLATE_LEVEL = 1
LANE_SEGMENT_BYTES = 1 << 16  # smallest lane an 8-bit key frame deflates on its own
CONCURRENT_DEFLATE_BYTES = 1 << 16  # below this, waking a pool thread costs more than it saves
_RAW_DEFLATE = -15  # zlib window bits for a bare deflate stream

FRAME_MAGIC = b"LPF4"
_FRAME_HEADER = struct.Struct("<4sBIIHHBBI")
_CHECKSUM = struct.Struct("<I")
_SEGMENT_LENGTH = struct.Struct("<I")  # one entry of a payload's segment table

DEFAULT_GOP_LENGTH = 30
PLANE_COUNT = 3


class CodecError(Exception):
    pass


class CorruptFrameError(CodecError):
    pass


class MissingReferenceError(CodecError):
    pass


class SequenceError(CodecError):
    pass


class DimensionMismatchError(CodecError):
    pass


class StreamMismatchError(CodecError):
    pass


# --- stream state and frame container ----------------------------------------


@dataclass
class CodecStreamState:
    """Per-stream codec state; single-owner, one per direction."""

    stream_id: int
    role: str = "encoder"  # "encoder" | "decoder"
    gop_length: int = DEFAULT_GOP_LENGTH
    frame_count: int = 0
    reference: PlaneSet | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.role not in ("encoder", "decoder"):
            raise ValueError(f"role must be encoder or decoder, got {self.role!r}")
        if self.gop_length < 1:
            raise ValueError("GOP length must be >= 1")


@dataclass
class EncodedFrame:
    stream_id: int
    frame_seq: int
    key: bool
    width: int
    height: int
    plane_count: int
    element_bits: int
    payload: bytes

    @property
    def plane_kind(self) -> AtlasKind:
        return AtlasKind.COLOR if self.element_bits == 16 else AtlasKind.VISIBILITY

    def to_bytes(self) -> bytes:
        header = _FRAME_HEADER.pack(
            FRAME_MAGIC,
            1 if self.key else 0,
            self.stream_id,
            self.frame_seq,
            self.width,
            self.height,
            self.plane_count,
            self.element_bits,
            len(self.payload),
        )
        checksum = zlib.crc32(self.payload, zlib.crc32(header))
        return b"".join((header, self.payload, _CHECKSUM.pack(checksum)))

    @property
    def encoded_size(self) -> int:
        return _FRAME_HEADER.size + len(self.payload) + _CHECKSUM.size

    @classmethod
    def read(cls, data: bytes) -> "EncodedFrame":
        """The frame at the start of `data`, which ends at its `encoded_size`;
        what follows it is not read."""
        view = memoryview(data)  # checksummed and sliced without a copy
        if len(view) < _FRAME_HEADER.size + _CHECKSUM.size:
            raise CorruptFrameError("frame truncated")
        magic, flags, stream_id, seq, width, height, planes, bits, paylen = (
            _FRAME_HEADER.unpack_from(view, 0)
        )
        if magic != FRAME_MAGIC:
            raise CorruptFrameError(f"bad frame magic {magic!r}")
        end = _FRAME_HEADER.size + paylen
        if len(view) < end + _CHECKSUM.size:
            raise CorruptFrameError(
                f"{len(view)} bytes hold no frame of declared {end + _CHECKSUM.size}"
            )
        (stored,) = _CHECKSUM.unpack_from(view, end)
        if zlib.crc32(view[:end]) != stored:
            raise CorruptFrameError("frame checksum mismatch")
        _check_layout(planes, bits, height, width)
        payload = bytes(view[_FRAME_HEADER.size : end])
        return cls(stream_id, seq, bool(flags & 1), width, height, planes, bits, payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedFrame":
        """The frame that `data` holds, and nothing after it."""
        frame = cls.read(data)
        if len(data) != frame.encoded_size:
            raise CorruptFrameError(f"frame length {len(data)} != declared {frame.encoded_size}")
        return frame


def _check_layout(planes: int, bits: int, height: int, width: int) -> None:
    if planes != PLANE_COUNT or bits not in (8, 16) or height % BLOCK_SIDE or width % BLOCK_SIDE:
        raise CorruptFrameError(f"unsupported layout: {planes} planes of {height} x {width} of {bits} bits")


# --- residuals and their bytes -----------------------------------------------


def _gradient_residual(x: np.ndarray) -> np.ndarray:
    """x - left - up + up-left of every element of each (..., h, w) plane,
    wrapping in x's unsigned dtype, with 0 outside the plane."""
    across = x.copy()
    across[..., 1:] -= x[..., :-1]
    residual = across.copy()
    residual[..., 1:, :] -= across[..., :-1, :]
    return residual


def _zigzag(values: np.ndarray) -> np.ndarray:
    signed = values.view(np.int16)
    return ((signed << 1) ^ (signed >> 15)).view(np.uint16)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    return (codes >> 1) ^ -(codes & 1)


def _halves(codes: np.ndarray) -> np.ndarray:
    """The (runs, run length) 16-bit values `codes` as (2 * runs, run
    length) bytes: each run's low bytes, then its high bytes."""
    runs, length = codes.shape
    pairs = codes.astype("<u2", copy=False).view(np.uint8).reshape(runs, length, 2)
    return np.ascontiguousarray(pairs.swapaxes(1, 2)).reshape(2 * runs, length)


def _join_low_high(halves) -> np.ndarray:
    """Inverse of `_halves`: `halves` holds each run's low bytes, then its
    high bytes, as equal rows."""
    codes = np.empty((len(halves) // 2, len(halves[0])), np.uint16)
    for run, low, high in zip(codes, halves[0::2], halves[1::2]):
        run[:] = high
        run <<= 8
        run |= low
    return codes


# --- deflate segments ----------------------------------------------------------


def _segment_sizes(bits: int, parts: int, part_bytes: int) -> list[int]:
    """The inflated sizes, in stream order, of the deflate segments of a
    stream of `parts` parts of `part_bytes` bytes: the halves of its 16-bit
    runs, the four lanes of an 8-bit key frame, or an 8-bit P-frame's one
    part. A 16-bit half is always a segment of its own, an 8-bit part only
    from `LANE_SEGMENT_BYTES` on, else the stream is one segment; a segment
    of 0 bytes is absent."""
    if bits == 8 and part_bytes < LANE_SEGMENT_BYTES:
        parts, part_bytes = 1, parts * part_bytes
    return [part_bytes] * parts if part_bytes else []


_Segments = list[tuple[np.ndarray, int]]  # (bytes, zlib strategy) in stream order


def _cut(parts: np.ndarray, bits: int) -> _Segments:
    """The deflate segments of a stream held as equal (parts, part bytes)
    rows, each with its strategy: the low half of a 16-bit run at `Z_RLE`,
    every other segment at the default strategy."""
    sizes = _segment_sizes(bits, *parts.shape)
    if not sizes:
        return []
    low = zlib.Z_RLE if bits == 16 else zlib.Z_DEFAULT_STRATEGY
    rows = parts.reshape(len(sizes), -1)
    return [(row, zlib.Z_DEFAULT_STRATEGY if i % 2 else low) for i, row in enumerate(rows)]


def _map_segments(fn, pieces: list, inflated: int) -> list:
    """``[fn(p) for p in pieces]`` over the segments of a stream of
    `inflated` bytes, concurrent from `CONCURRENT_DEFLATE_BYTES` on."""
    if inflated < CONCURRENT_DEFLATE_BYTES:
        return list(map(fn, pieces))
    return workers.run_pieces(fn, pieces)


def _deflate(segments: _Segments) -> bytes:
    """The segment table of the (bytes, strategy) segments, then each one
    deflated by a fresh compressor at its own strategy and finished. The
    segments are independent, so from `CONCURRENT_DEFLATE_BYTES` on they
    are deflated concurrently; they are always written in order."""
    deflated = _map_segments(_deflate_segment, segments, sum(data.size for data, _ in segments))
    return b"".join([*(_SEGMENT_LENGTH.pack(len(d)) for d in deflated), *deflated])


def _deflate_segment(segment: tuple[np.ndarray, int]) -> bytes:
    data, strategy = segment
    packer = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, _RAW_DEFLATE, strategy=strategy)
    return packer.compress(data) + packer.flush(zlib.Z_FINISH)


def _inflate_parts(payload: memoryview, bits: int, parts: int, part_bytes: int) -> list[np.ndarray]:
    """The `parts` parts of `part_bytes` bytes of the stream whose segment
    table starts `payload`. The table is checked before any segment is
    inflated, and every segment is inflated and checked before any part is
    returned; from `CONCURRENT_DEFLATE_BYTES` on they inflate concurrently."""
    sizes = _segment_sizes(bits, parts, part_bytes)
    table = _SEGMENT_LENGTH.size * len(sizes)
    if len(payload) < table:
        raise CorruptFrameError("payload shorter than its segment table")
    edges = [table]
    for (length,) in _SEGMENT_LENGTH.iter_unpack(payload[:table]):
        if not length:
            raise CorruptFrameError("empty deflate segment")
        edges.append(edges[-1] + length)
    if edges[-1] != len(payload):
        raise CorruptFrameError(
            f"segment lengths add up to {edges[-1] - table} bytes, not the "
            f"{len(payload) - table} after the table"
        )
    pieces = [(payload[a:b], size) for a, b, size in zip(edges, edges[1:], sizes)]
    segments = _map_segments(_inflate, pieces, sum(sizes))
    content = [part for segment in segments for part in segment.reshape(-1, part_bytes)]
    return content or list(np.empty((parts, 0), np.uint8))


def _inflate(piece: tuple[memoryview, int]) -> np.ndarray:
    """The `size` bytes that the segment `stream` inflates to; any other
    segment is corrupt."""
    stream, size = piece
    inflater = zlib.decompressobj(_RAW_DEFLATE)
    try:
        # one byte of room past `size` tells a longer stream from an exact one
        out = inflater.decompress(stream, size + 1)
    except zlib.error as err:
        raise CorruptFrameError(f"bad deflate segment: {err}") from err
    if len(out) > size:
        raise CorruptFrameError(f"segment inflates past {size} bytes")
    if not inflater.eof:
        raise CorruptFrameError("segment ends before its final block")
    if inflater.unused_data:
        raise CorruptFrameError("bytes after a segment's final block")
    if len(out) < size:
        raise CorruptFrameError(f"segment inflates to {len(out)} bytes, not {size}")
    return np.frombuffer(out, np.uint8)


# --- texel-byte lanes of 8-bit key frames ------------------------------------


def _to_lanes(data: np.ndarray) -> np.ndarray:
    """(3, h, w) 8-bit planes -> their contiguous (4, h, 3w / 4) lanes: the
    (h, 3w) row streams split 4 ways. Planes in `packing.pack_visibility`'s
    layout hold the row streams and are read in place; others are first
    copied into that layout."""
    _, height, width = data.shape
    streams = data.transpose(1, 2, 0).reshape(height, 3 * width // 4, 4)
    return np.ascontiguousarray(streams.transpose(2, 0, 1))


def _from_lanes(lanes: list[np.ndarray], width: int) -> np.ndarray:
    """Inverse of `_to_lanes` for planes `width` elements wide, from the
    four (h, 3w / 4) lanes: the joined row streams, as planes in
    `packing.pack_visibility`'s layout."""
    streams = np.stack(lanes, axis=-1).reshape(len(lanes[0]), width, 3)
    return streams.transpose(2, 0, 1)


# --- frame encode / decode ---------------------------------------------------


def _key_segments(data: np.ndarray) -> _Segments:
    planes, height, width = data.shape
    if data.dtype == np.uint8:
        return _cut(_to_lanes(data).reshape(4, -1), 8)
    codes = _zigzag(_gradient_residual(data)).reshape(planes, height * width)
    return _cut(_halves(codes), 16)


def _p_segments(cur: np.ndarray, ref: np.ndarray, changed: np.ndarray) -> _Segments:
    idx = np.nonzero(changed)
    residuals = block_grid(cur, BLOCK_SIDE, axis=1)[idx]
    residuals -= block_grid(ref, BLOCK_SIDE, axis=1)[idx]
    if cur.dtype == np.uint8:
        return _cut(residuals.reshape(1, -1), 8)
    return _cut(_halves(_zigzag(residuals).reshape(1, -1)), 16)


def encode_frame(
    planes: PlaneSet, state: CodecStreamState, force_key: bool = False
) -> EncodedFrame:
    """Encode one frame and advance the stream state (closed loop)."""
    if state.role != "encoder":
        raise CodecError("encode_frame requires an encoder stream state")
    if planes.height % BLOCK_SIDE or planes.width % BLOCK_SIDE:
        raise ValueError(f"{planes.height} x {planes.width} planes are not whole blocks")
    if state.reference is not None and (
        state.reference.data.shape != planes.data.shape
        or state.reference.kind != planes.kind
    ):
        raise DimensionMismatchError(
            f"frame {planes.data.shape} does not match stream {state.reference.data.shape}"
        )
    key = force_key or state.reference is None or state.frame_count % state.gop_length == 0
    cur = planes.data
    if key:
        payload = _deflate(_key_segments(cur))
    else:
        ref = state.reference.data
        changed = changed_blocks(cur, ref, BLOCK_SIDE)
        bitmap = np.packbits(changed.reshape(-1)).tobytes()
        payload = bitmap + _deflate(_p_segments(cur, ref, changed))
    seq = state.frame_count
    state.frame_count = seq + 1
    # lossless, so the reconstruction is the input itself. The reference is
    # the encoder's own copy; a P-frame changes it only in the block rows
    # that hold a changed block, each copied as one slab (a scatter of the
    # changed elements alone costs more than copying the whole planes)
    if key:
        state.reference = planes.copy()
    else:
        for r in np.flatnonzero(changed.any(axis=(0, 2))):
            rows = slice(r * BLOCK_SIDE, (r + 1) * BLOCK_SIDE)
            ref[:, rows] = cur[:, rows]
    return EncodedFrame(
        stream_id=state.stream_id,
        frame_seq=seq,
        key=key,
        width=planes.width,
        height=planes.height,
        plane_count=planes.data.shape[0],
        element_bits=planes.element_bits,
        payload=payload,
    )


def _decode_key(frame: EncodedFrame) -> np.ndarray:
    payload, height, width = memoryview(frame.payload), frame.height, frame.width
    if frame.element_bits == 8:
        q = 3 * width // 4
        lanes = _inflate_parts(payload, 8, 4, height * q)
        return _from_lanes([lane.reshape(height, q) for lane in lanes], width)
    halves = _inflate_parts(payload, 16, 2 * frame.plane_count, height * width)
    recon = _unzigzag(_join_low_high(halves)).reshape(frame.plane_count, height, width)
    np.cumsum(recon, axis=2, dtype=np.uint16, out=recon)
    np.cumsum(recon, axis=1, dtype=np.uint16, out=recon)
    return recon


def _decode_p(frame: EncodedFrame, reference: np.ndarray) -> np.ndarray:
    planes, height, width = reference.shape
    grid = (planes, height // BLOCK_SIDE, width // BLOCK_SIDE)
    blocks = math.prod(grid)
    bitmap_size = -(-blocks // 8)
    if len(frame.payload) < bitmap_size:
        raise CorruptFrameError("payload shorter than its bitmap")
    bitmap = np.frombuffer(frame.payload, np.uint8, count=bitmap_size)
    if blocks % 8 and bitmap[-1] & (0xFF >> blocks % 8):
        raise CorruptFrameError("bitmap pad bits set")
    idx = np.nonzero(np.unpackbits(bitmap, count=blocks).view(bool).reshape(grid))
    elements = idx[0].size * BLOCK_SIDE * BLOCK_SIDE
    # a 16-bit run is two parts, its low and its high bytes
    content = _inflate_parts(
        memoryview(frame.payload)[bitmap_size:], frame.element_bits, reference.itemsize, elements
    )
    if not elements:
        return reference  # no block changed: the read-only reference is the frame
    if reference.dtype == np.uint8:
        residuals = content[0]
    else:
        residuals = _unzigzag(_join_low_high(content))[0]
    recon = reference.copy(order="K")  # in the reference's memory layout
    block_grid(recon, BLOCK_SIDE, axis=1)[idx] += residuals.reshape(-1, BLOCK_SIDE, BLOCK_SIDE)
    return recon


def decode_frame(frame: EncodedFrame, state: CodecStreamState) -> PlaneSet:
    """Decode one frame, verify sequencing, and advance the stream state.

    The returned planes are read-only: the stream state keeps the same array
    as the next frame's reference.
    """
    if state.role != "decoder":
        raise CodecError("decode_frame requires a decoder stream state")
    _check_layout(frame.plane_count, frame.element_bits, frame.height, frame.width)
    if frame.stream_id != state.stream_id:
        raise StreamMismatchError(
            f"frame of stream {frame.stream_id} for decoder of stream {state.stream_id}"
        )
    if frame.key:
        recon = _decode_key(frame)
    else:
        if state.reference is None:
            raise MissingReferenceError(
                f"P-frame seq {frame.frame_seq} with no prior state"
            )
        if frame.frame_seq != state.frame_count:
            raise SequenceError(
                f"frame seq {frame.frame_seq}, decoder expected {state.frame_count}"
            )
        if (
            state.reference.data.shape != (frame.plane_count, frame.height, frame.width)
            or state.reference.kind != frame.plane_kind
        ):
            raise DimensionMismatchError("frame layout does not match stream state")
        recon = _decode_p(frame, state.reference.data)
    recon.flags.writeable = False
    state.reference = PlaneSet(frame.plane_kind, recon)
    state.frame_count = frame.frame_seq + 1
    return PlaneSet(frame.plane_kind, recon)
