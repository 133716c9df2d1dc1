"""Lossless temporal frame codec over plane sets.

The package's one codec, a block codec written in numpy: I-frames are
self-contained, P-frames predict 16x16-element blocks from the previous
reconstructed frame (SKIP for bit-identical blocks, DELTA for entropy-coded
residuals, RAW otherwise), and I-frames may predict a block from its left
neighbour. Frames never reference the future, and the encoder has zero
lookahead: every frame is emitted as soon as it is presented. Encoding is
closed-loop lossless, so encoder and decoder reconstructions are
bit-identical after every frame.

Wire format (`FRAME_MAGIC` ``LPF1``, byte for byte that of the original
block-at-a-time coder, which `tests/test_codec_golden.py` keeps as its
reference). A payload holds the planes in order; a plane holds its blocks
in raster order, edge blocks clipped, never padded. A block is its mode
byte, then for DELTA and RAW the varint length of its entropy-coded bytes
and those bytes. RAW codes the block's elements as little-endian bytes in
row order. DELTA codes the zig-zag varints of the element-wise residual
against the predictor: the reference block in a P-frame, the left neighbour
block in an I-frame. A block is DELTA only when it has a predictor and its
DELTA bytes are strictly shorter than its RAW bytes.

Entropy coding is zero-run-length over byte streams with varint headers:
token ``(length << 1) | 1`` emits `length` zero bytes, token ``length << 1``
is followed by `length` literal bytes. Zero runs shorter than
`MIN_ZERO_RUN` ride along as literals, and no token crosses a block.

Both directions work in array passes, never block by block. A P-frame
starts with one changed-block grid over all three planes, reduced along the
rows of each block first and then along the 16-wide column groups of that
16x smaller result. The encoder then takes a band of `BAND_BLOCK_ROWS`
block rows at a time; block rows are independent under both predictors,
and the band bounds the temporaries. A band with no changed block is its
block count of SKIP mode bytes. In any other band the candidates are the
grid's changed blocks (in an I-frame, every block): the encoder builds one
RAW byte stream and one DELTA varint stream over them (an I-frame's
predictor is the plane shifted by one block column, which holds because
the reconstruction equals the input), tokenises each whole stream with a
cut at every block boundary, sums the per-block coded lengths, picks the
modes and writes the band with one scatter. The decoder walks the block
headers of the frame once, passing over each run of SKIP mode bytes with
one scan for the next coded one, so its Python loop turns once per coded
block. A P-frame's reconstruction starts as a copy of the reference, and
only bands holding a DELTA or RAW block are decoded: band by band, the
decoder parses the tokens of each mode's blocks, one token of every
unfinished block per step, bounding every run by its block's size before
anything is allocated; expands them into one buffer per mode; decodes the
residual varints at once and scatters. I-frame DELTA chains resolve one
block column at a time across all block rows. Malformed input raises
`CodecError` and nothing else, and leaves the stream state as it was.
"""

from __future__ import annotations

import functools
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from probestream.packing import PlaneKind, PlaneSet
from probestream.varint import (
    VarintError,
    decode_uvarint,
    decode_uvarint_array,
    decode_uvarint_at,
    encode_uvarint_array,
    unzigzag,
    uvarint_sizes,
    uvarint_width,
    zigzag,
)

BLOCK_SIDE = 16
MIN_ZERO_RUN = 2
BAND_BLOCK_ROWS = 8  # block rows per array pass; bounds the temporaries

MODE_SKIP = 0
MODE_DELTA = 1
MODE_RAW = 2

FRAME_MAGIC = b"LPF1"
_FRAME_HEADER = struct.Struct("<4sBIIHHBBI")
_CHECKSUM = struct.Struct("<I")

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


class EntropyDecodeError(CorruptFrameError):
    pass


# --- segmented zero-run entropy coding ---------------------------------------


def _cover(size: int, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mask of `size` bytes, set on every span ``[start, start + length)``.

    Spans must be ascending and must not overlap. Indexing with the mask
    visits the spans' bytes in order; the mask costs one byte per byte where
    an index array costs eight, which matters for long literal runs.
    """
    runs = np.empty(2 * starts.size + 1, dtype=np.int64)
    ends = starts + lengths
    runs[0] = starts[0] if starts.size else size
    runs[2:-1:2] = starts[1:] - ends[:-1]
    runs[1::2] = lengths
    if starts.size:
        runs[-1] = size - ends[-1]
    flags = np.zeros(runs.size, dtype=bool)
    flags[1::2] = True
    return np.repeat(flags, runs)


class _Tokens(NamedTuple):
    start: np.ndarray  # first stream byte the token covers
    length: np.ndarray
    zero: np.ndarray  # zero run (True) or literal run
    segment: np.ndarray
    head: np.ndarray  # header bytes
    size: np.ndarray  # header plus literal bytes

    def take(self, keep: np.ndarray) -> "_Tokens":
        return _Tokens(*(a[keep] for a in self))


def _tokenise(stream: np.ndarray, cuts: np.ndarray) -> _Tokens:
    """Zero-run/literal tokens of a byte stream cut into segments.

    `cuts` holds the ascending start offset of every segment, the first one
    0; no token crosses a cut. Tokens come out in stream order.
    """
    n = stream.size
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _Tokens(empty, empty, empty.astype(bool), empty, empty, empty)
    cut = np.zeros(n + 1, dtype=bool)
    cut[cuts] = True
    cut[n] = True
    zero = stream == 0
    # maximal zero runs within a segment: [run_start, run_end)
    opens = zero.copy()
    opens[1:] &= ~zero[:-1] | cut[1:n]
    closes = zero.copy()
    closes[:-1] &= ~zero[1:] | cut[1:n]
    run_start = np.flatnonzero(opens)
    run_end = np.flatnonzero(closes) + 1
    long = run_end - run_start >= MIN_ZERO_RUN
    zstart = run_start[long]
    bounds = cut
    bounds[zstart] = True
    bounds[run_end[long]] = True
    edges = np.flatnonzero(bounds)
    start = edges[:-1]
    length = np.diff(edges)
    is_zero = np.zeros(n + 1, dtype=bool)
    is_zero[zstart] = True
    zero_run = is_zero[start]
    head = uvarint_sizes(_headers(length, zero_run))
    size = np.where(zero_run, head, head + length)
    segment = np.searchsorted(cuts, start, side="right") - 1
    return _Tokens(start, length, zero_run, segment, head, size)


def _headers(length: np.ndarray, zero: np.ndarray) -> np.ndarray:
    return ((length << 1) | zero).astype(np.uint64)


def _coded_lengths(tokens: _Tokens, segments: int) -> np.ndarray:
    """Coded bytes of every segment."""
    return np.bincount(tokens.segment, weights=tokens.size, minlength=segments).astype(np.int64)


def _write_tokens(out: np.ndarray, at: np.ndarray, stream: np.ndarray, tokens: _Tokens) -> None:
    """Write each token's header, and a literal's bytes, to `out` at `at`."""
    headers = encode_uvarint_array(_headers(tokens.length, tokens.zero))
    out[_cover(out.size, at, tokens.head)] = np.frombuffer(headers, np.uint8)
    lit = ~tokens.zero
    length = tokens.length[lit]
    dest = _cover(out.size, at[lit] + tokens.head[lit], length)
    out[dest] = stream[_cover(stream.size, tokens.start[lit], length)]


def _expand(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, limit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the tokens of every segment ``data[start : start + length]``.

    Returns the concatenated output and its length per segment. A segment
    whose output would exceed its `limit` is rejected before any output is
    allocated, and so is a run of length 0.
    """
    ends = starts + lengths
    produced = np.zeros(starts.size, dtype=np.int64)
    found = []
    # unfinished segments: index, read position, end, output so far, limit
    seg = np.flatnonzero(starts < ends)
    at, end, done, cap = starts[seg], ends[seg], produced[seg], limit[seg]
    # one token of every unfinished segment per step
    while seg.size:
        try:
            header, head = decode_uvarint_at(data, at, end)
        except VarintError as err:
            raise EntropyDecodeError(str(err)) from err
        length = (header >> np.uint64(1)).astype(np.int64)
        zero = (header & np.uint64(1)).astype(bool)
        body = at + head
        stop = np.where(zero, body, body + length)
        found.append((seg, done, body, length, zero))
        done = done + length
        if ((length == 0) | (stop > end) | (done > cap)).any():
            raise EntropyDecodeError("run is empty or overflows its block")
        produced[seg] = done
        more = stop < end
        seg, at, end, done, cap = seg[more], stop[more], end[more], done[more], cap[more]
    out = np.zeros(int(produced.sum()), dtype=np.uint8)
    if found:
        segment, offset, body, length, zero = (np.concatenate(a) for a in zip(*found))
        # literal runs in stream order, so that both masks visit them in turn
        lit = np.flatnonzero(~zero)
        lit = lit[np.argsort(segment[lit], kind="stable")]
        body, length = body[lit], length[lit]
        dest = (np.cumsum(produced) - produced)[segment[lit]] + offset[lit]
        if body.size:
            lo, hi = body[0], body[-1] + length[-1]
            src = data[lo:hi][_cover(hi - lo, body - lo, length)]
            out[_cover(out.size, dest, length)] = src
    return out, produced


def _as_bytes(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return np.frombuffer(bytes(data), np.uint8)


def entropy_encode(data) -> bytes:
    """Zero-run-length encode a byte stream; deterministic and lossless."""
    stream = _as_bytes(data)
    tokens = _tokenise(stream, np.zeros(1, dtype=np.int64))
    out = np.empty(int(tokens.size.sum()), dtype=np.uint8)
    _write_tokens(out, _segment_starts(tokens.size), stream, tokens)
    return out.tobytes()


def entropy_decode(data: bytes, size: int) -> bytes:
    """Inverse of `entropy_encode` for a stream that decodes to `size`
    bytes; raises `EntropyDecodeError` on malformed streams, before
    allocating past `size`."""
    buf = _as_bytes(data)
    out, produced = _expand(buf, np.zeros(1, dtype=np.int64), np.array([buf.size]), np.array([size]))
    if produced[0] != size:
        raise EntropyDecodeError(f"stream decodes to {produced[0]} bytes, not {size}")
    return out.tobytes()


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
    def plane_kind(self) -> PlaneKind:
        return PlaneKind.COLOR_10IN16 if self.element_bits == 16 else PlaneKind.VISIBILITY_BYTES

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
        body = header + self.payload
        return body + _CHECKSUM.pack(zlib.crc32(body))

    @property
    def encoded_size(self) -> int:
        return _FRAME_HEADER.size + len(self.payload) + _CHECKSUM.size

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedFrame":
        if len(data) < _FRAME_HEADER.size + _CHECKSUM.size:
            raise CorruptFrameError("frame truncated")
        magic, flags, stream_id, seq, width, height, planes, bits, paylen = (
            _FRAME_HEADER.unpack_from(data, 0)
        )
        if magic != FRAME_MAGIC:
            raise CorruptFrameError(f"bad frame magic {magic!r}")
        total = _FRAME_HEADER.size + paylen + _CHECKSUM.size
        if len(data) != total:
            raise CorruptFrameError(f"frame length {len(data)} != declared {total}")
        (stored,) = _CHECKSUM.unpack_from(data, total - _CHECKSUM.size)
        if zlib.crc32(data[: total - _CHECKSUM.size]) != stored:
            raise CorruptFrameError("frame checksum mismatch")
        if planes != PLANE_COUNT or bits not in (8, 16):
            raise CorruptFrameError(f"unsupported layout: {planes} planes of {bits} bits")
        payload = data[_FRAME_HEADER.size : total - _CHECKSUM.size]
        return cls(stream_id, seq, bool(flags & 1), width, height, planes, bits, payload)


# --- block geometry ----------------------------------------------------------


def _blocks_across(n: int) -> int:
    return -(-n // BLOCK_SIDE)


def _block_counts(rows: int, width: int) -> np.ndarray:
    """Element count of every block of a ``rows x width`` plane, raster order."""

    def sides(n: int) -> np.ndarray:
        return np.minimum(BLOCK_SIDE, n - BLOCK_SIDE * np.arange(_blocks_across(n)))

    return np.outer(sides(rows), sides(width)).reshape(-1)


@functools.lru_cache(maxsize=8)
def _block_order(rows: int, width: int) -> np.ndarray:
    """Flat element indices of a ``rows x width`` band in block order:
    row b lists block b's indices in row order, padded with -1 past a
    clipped edge."""
    side = BLOCK_SIDE
    by, bx = _blocks_across(rows), _blocks_across(width)
    r = np.arange(by * side, dtype=np.int32)[:, None]
    c = np.arange(bx * side, dtype=np.int32)[None, :]
    flat = np.where((r < rows) & (c < width), r * width + c, -1)
    order = flat.reshape(by, side, bx, side).swapaxes(1, 2).reshape(by * bx, side * side)
    order.flags.writeable = False
    return order


def _elements(order: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Flat indices of the elements of `blocks`, block after block."""
    idx = order[blocks]
    return idx[idx >= 0]


def _band_bounds(height: int):
    step = BAND_BLOCK_ROWS * BLOCK_SIDE
    return ((y, min(y + step, height)) for y in range(0, height, step))


def _signed(dtype: np.dtype) -> type:
    return np.int16 if dtype == np.uint16 else np.int8


def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    return np.cumsum(lengths) - lengths


# --- encoder -----------------------------------------------------------------


def _changed_blocks(cur: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Which blocks of `cur` differ from `ref`; shape (..., block rows,
    block columns). The rows of each block are reduced first, then the
    16-wide column groups of that 16x smaller result."""
    *lead, height, width = cur.shape
    by, bx = _blocks_across(height), _blocks_across(width)
    changed = np.zeros((*lead, by * BLOCK_SIDE, width), dtype=bool)
    np.not_equal(cur, ref, out=changed[..., :height, :])
    rows = np.zeros((*lead, by, bx * BLOCK_SIDE), dtype=bool)
    rows[..., :width] = changed.reshape(*lead, by, BLOCK_SIDE, width).any(axis=-2)
    return rows.reshape(*lead, by, bx, BLOCK_SIDE).any(axis=-1)


def _encode_band(cur: np.ndarray, ref: np.ndarray | None, cand: np.ndarray) -> np.ndarray:
    """Coded bytes of one band of block rows. In an I-frame `ref` is None
    and `cand` lists every block; in a P-frame `cand` lists the changed
    blocks and the others are SKIP."""
    rows, width = cur.shape
    order = _block_order(rows, width)
    counts = _block_counts(rows, width)
    nblocks = counts.size
    bx = _blocks_across(width)
    item = cur.dtype.itemsize
    flat = cur.reshape(-1)
    idx = _elements(order, cand)
    elements = flat[idx]
    if ref is None:
        residual = np.empty_like(cur)
        residual[:, BLOCK_SIDE:] = cur[:, BLOCK_SIDE:] - cur[:, :-BLOCK_SIDE]
        pred = np.flatnonzero(cand % bx != 0)  # candidates with a predictor
        residual = residual.reshape(-1)[_elements(order, cand[pred])]
    else:
        residual = elements - ref.reshape(-1)[idx]
        pred = np.arange(cand.size)

    raw = elements.astype(cur.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    raw_tokens = _tokenise(raw, _segment_starts(counts[cand] * item))
    raw_len = _coded_lengths(raw_tokens, cand.size)

    values = zigzag(residual.view(_signed(cur.dtype)))
    sizes = uvarint_sizes(values)
    value_at = _segment_starts(counts[cand[pred]])
    delta_bytes = np.add.reduceat(sizes, value_at, dtype=np.int64)
    # every nonzero varint byte is a literal byte, so a block whose count of
    # them already reaches its RAW length stays RAW without being tokenised
    nonzero = delta_bytes - np.add.reduceat(values == 0, value_at, dtype=np.int64)
    maybe = nonzero < raw_len[pred]
    values = values[np.repeat(maybe, counts[cand[pred]])]
    delta = np.frombuffer(encode_uvarint_array(values), np.uint8)
    delta_at = pred[maybe]
    delta_tokens = _tokenise(delta, _segment_starts(delta_bytes[maybe]))
    delta_len = _coded_lengths(delta_tokens, delta_at.size)

    use_delta = np.zeros(cand.size, dtype=bool)
    use_delta[delta_at] = delta_len < raw_len[delta_at]
    payload = raw_len.copy()
    payload[use_delta] = delta_len[use_delta[delta_at]]

    # block header: mode byte, then for a coded block its payload length
    length_bytes = uvarint_sizes(payload)
    head = np.ones(nblocks, dtype=np.int64)
    head[cand] += length_bytes
    body = np.zeros(nblocks, dtype=np.int64)
    body[cand] = payload
    block_at = _segment_starts(head + body)
    out = np.empty(int(block_at[-1] + head[-1] + body[-1]), dtype=np.uint8)
    out[block_at] = MODE_SKIP
    out[block_at[cand]] = np.where(use_delta, MODE_DELTA, MODE_RAW)
    out[_cover(out.size, block_at[cand] + 1, length_bytes)] = np.frombuffer(
        encode_uvarint_array(payload), np.uint8
    )
    payload_at = block_at + head

    for stream, tokens, blocks, lengths, chosen in (
        (raw, raw_tokens, cand, raw_len, ~use_delta),
        (delta, delta_tokens, cand[delta_at], delta_len, use_delta[delta_at]),
    ):
        # a stream's tokens are contiguous per block: move each from its
        # offset among the chosen tokens of its stream to its block's payload
        kept = tokens.take(chosen[tokens.segment])
        shift = payload_at[blocks] - _segment_starts(np.where(chosen, lengths, 0))
        _write_tokens(out, _segment_starts(kept.size) + shift[kept.segment], stream, kept)
    return out


# --- decoder -----------------------------------------------------------------


_CODED_MODE = re.compile(rb"[^\x00]")  # any mode byte but MODE_SKIP


def _walk_blocks(data: bytes, count: int):
    """Read `count` block headers; returns (modes, payload starts, payload
    lengths) and checks that the blocks fill `data` exactly. Each run of
    SKIP blocks is passed over by one scan for the next coded mode byte."""
    modes = bytearray(count)
    coded, starts, lengths = [], [], []
    end = len(data)
    pos = block = 0
    while block < count:
        if pos >= end:
            raise CorruptFrameError("payload ends mid-plane")
        mode = data[pos]
        if mode == MODE_SKIP:
            # a run of SKIP blocks, no longer than the blocks left
            stop = pos + count - block
            found = _CODED_MODE.search(data, pos, stop)
            after = found.start() if found else min(stop, end)
            block += after - pos
            pos = after
            continue
        if mode != MODE_DELTA and mode != MODE_RAW:
            raise CorruptFrameError(f"unknown block mode {mode}")
        try:
            length, pos = decode_uvarint(data, pos + 1)
        except VarintError as err:
            raise CorruptFrameError(str(err)) from err
        if pos + length > end:
            raise CorruptFrameError("block payload overruns frame")
        modes[block] = mode
        coded.append(block)
        starts.append(pos)
        lengths.append(length)
        pos += length
        block += 1
    if pos != end:
        raise CorruptFrameError("trailing bytes after last plane")
    block_starts = np.zeros(count, dtype=np.int64)
    block_lengths = np.zeros(count, dtype=np.int64)
    block_starts[coded] = starts
    block_lengths[coded] = lengths
    return np.frombuffer(modes, dtype=np.uint8), block_starts, block_lengths


def _decode_band(
    data: np.ndarray,
    modes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    intra: bool,
    recon: np.ndarray,
) -> None:
    """Fill the coded blocks of one band of `recon` from their headers. In a
    P-frame `recon` holds the reference; an I-frame's DELTA blocks get bare
    residuals."""
    rows, width = recon.shape
    order = _block_order(rows, width)
    counts = _block_counts(rows, width)
    dtype = recon.dtype
    flat = recon.reshape(-1)

    raw = np.flatnonzero(modes == MODE_RAW)
    if raw.size:
        size = counts[raw] * dtype.itemsize
        buf, produced = _expand(data, starts[raw], lengths[raw], size)
        if np.any(produced != size):
            raise CorruptFrameError("raw block size mismatch")
        flat[_elements(order, raw)] = buf.view(dtype.newbyteorder("<"))

    delta = np.flatnonzero(modes == MODE_DELTA)
    if delta.size:
        counts = counts[delta]
        limit = counts * uvarint_width(dtype)
        buf, produced = _expand(data, starts[delta], lengths[delta], limit)
        # every block must hold exactly its element count of whole varints:
        # the last terminator of each block's count is the block's last byte
        ends = np.flatnonzero(buf < 0x80) + 1
        last = np.cumsum(counts) - 1
        if ends.size != last[-1] + 1 or np.any(ends[last] != np.cumsum(produced)):
            raise CorruptFrameError("delta block holds a partial varint")
        try:
            values, _ = decode_uvarint_array(buf, ends.size)
        except VarintError as err:
            raise CorruptFrameError(str(err)) from err
        if values.max() > np.iinfo(dtype).max:
            raise CorruptFrameError("delta residual out of range")
        residual = unzigzag(values.astype(dtype)).view(dtype)
        idx = _elements(order, delta)
        flat[idx] = residual if intra else flat[idx] + residual


def _resolve_intra(recon: np.ndarray, delta: np.ndarray) -> None:
    """Add to each I-frame DELTA block its reconstructed left neighbour."""
    height, width = recon.shape
    for bx in range(1, delta.shape[1]):
        rows = np.repeat(delta[:, bx], BLOCK_SIDE)[:height]
        x0 = bx * BLOCK_SIDE
        x1 = min(x0 + BLOCK_SIDE, width)
        if rows.all():
            recon[:, x0:x1] += recon[:, x0 - BLOCK_SIDE : x1 - BLOCK_SIDE]
        elif rows.any():
            recon[rows, x0:x1] += recon[rows, x0 - BLOCK_SIDE : x1 - BLOCK_SIDE]


# --- frame encode / decode ---------------------------------------------------


def encode_frame(
    planes: PlaneSet, state: CodecStreamState, force_key: bool = False
) -> EncodedFrame:
    """Encode one frame and advance the stream state (closed loop)."""
    if state.role != "encoder":
        raise CodecError("encode_frame requires an encoder stream state")
    if state.reference is not None and (
        state.reference.data.shape != planes.data.shape
        or state.reference.kind != planes.kind
    ):
        raise DimensionMismatchError(
            f"frame {planes.data.shape} does not match stream {state.reference.data.shape}"
        )
    key = force_key or state.reference is None or state.frame_count % state.gop_length == 0
    by, bx = _blocks_across(planes.height), _blocks_across(planes.width)
    if key:
        changed = np.ones((planes.data.shape[0], by, bx), dtype=bool)
    else:
        changed = _changed_blocks(planes.data, state.reference.data)
    chunks = []
    for p in range(planes.data.shape[0]):
        cur = planes.data[p]
        for y0, y1 in _band_bounds(planes.height):
            band = changed[p, y0 // BLOCK_SIDE : _blocks_across(y1)]
            if band.any():
                ref = None if key else state.reference.data[p, y0:y1]
                chunks.append(_encode_band(cur[y0:y1], ref, np.flatnonzero(band)))
            else:
                chunks.append(bytes([MODE_SKIP]) * band.size)
    seq = state.frame_count
    state.frame_count = seq + 1
    # lossless, so the reconstruction is the input itself
    state.reference = planes.copy()
    return EncodedFrame(
        stream_id=state.stream_id,
        frame_seq=seq,
        key=key,
        width=planes.width,
        height=planes.height,
        plane_count=planes.data.shape[0],
        element_bits=planes.element_bits,
        payload=b"".join(chunks),
    )


def decode_frame(frame: EncodedFrame, state: CodecStreamState) -> PlaneSet:
    """Decode one frame, verify sequencing, and advance the stream state."""
    if state.role != "decoder":
        raise CodecError("decode_frame requires a decoder stream state")
    if not frame.key:
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
    by, bx = _blocks_across(frame.height), _blocks_across(frame.width)
    count = frame.plane_count * by * bx
    if len(frame.payload) < count:
        # every block costs at least its mode byte; check before allocating
        raise CorruptFrameError("payload shorter than its block count")
    modes, starts, lengths = _walk_blocks(frame.payload, count)
    grid = modes.reshape(frame.plane_count, by, bx)
    if frame.key:
        if np.any(grid == MODE_SKIP):
            raise CorruptFrameError("SKIP block in a key frame")
        if np.any(grid[:, :, 0] == MODE_DELTA):
            raise CorruptFrameError("DELTA block without a reference")

    data = np.frombuffer(frame.payload, dtype=np.uint8)
    if frame.key:
        recon = np.empty((frame.plane_count, frame.height, frame.width), frame.plane_kind.dtype)
    else:
        recon = state.reference.data.copy()  # SKIP blocks are decoded already
    coded_rows = (grid != MODE_SKIP).any(axis=2)
    for p in range(frame.plane_count):
        for y0, y1 in _band_bounds(frame.height):
            r0, r1 = y0 // BLOCK_SIDE, _blocks_across(y1)
            if not coded_rows[p, r0:r1].any():
                continue
            band = slice((p * by + r0) * bx, (p * by + r1) * bx)
            _decode_band(
                data, modes[band], starts[band], lengths[band], frame.key, recon[p, y0:y1]
            )
        if frame.key:
            _resolve_intra(recon[p], grid[p] == MODE_DELTA)
    planes = PlaneSet(frame.plane_kind, recon)
    state.reference = planes.copy()
    state.frame_count = frame.frame_seq + 1
    return planes
