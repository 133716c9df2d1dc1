"""LEB128-style unsigned varints and zig-zag signed mapping.

7 data bits per byte, bit 7 as continuation flag, least-significant group
first. Array encode/decode paths are vectorised for codec residual streams;
they keep narrow integer dtypes narrow, so a stream of 16-bit residuals never
widens to 64 bits.
"""

from __future__ import annotations

import numpy as np

ARRAY_MAX_BYTES = 5  # array varints hold values < 2**35


class VarintError(ValueError):
    pass


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed values onto unsigned ones of the same width so small
    magnitudes stay small; Python ints and lists map as int64."""
    v = np.asarray(values)
    if v.dtype.kind != "i":
        v = v.astype(np.int64)
    bits = v.dtype.itemsize * 8
    return ((v << 1) ^ (v >> (bits - 1))).view(v.dtype.str.replace("i", "u"))


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of `zigzag`; unsigned values map back to signed ones of the
    same width."""
    v = np.asarray(values)
    if v.dtype.kind != "u":
        v = v.astype(np.uint64)
    signed = v.dtype.str.replace("u", "i")
    one = v.dtype.type(1)
    return (v >> one).view(signed) ^ -(v & one).view(signed)


def encode_uvarint(value: int) -> bytes:
    if value < 0:
        raise VarintError("varint values must be non-negative")
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(0x80 | bits)
        else:
            out.append(bits)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint; returns (value, next offset)."""
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise VarintError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise VarintError("varint too long")


def _unsigned(values) -> np.ndarray:
    v = np.asarray(values)
    return v if v.dtype.kind == "u" else v.astype(np.uint64)


def uvarint_width(dtype) -> int:
    """Bytes of the longest array varint a value of `dtype` can need."""
    return min(ARRAY_MAX_BYTES, -(-np.dtype(dtype).itemsize * 8 // 7))


def uvarint_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded length in bytes of each value of an unsigned array, as uint8."""
    v = _unsigned(values)
    sizes = np.ones(v.shape, dtype=np.uint8)
    for i in range(1, uvarint_width(v.dtype)):
        sizes += v >= v.dtype.type(1 << (7 * i))
    return sizes


def encode_uvarint_array(values: np.ndarray) -> bytes:
    """Vectorised varint encoding of an unsigned array (values < 2**35)."""
    v = _unsigned(values).reshape(-1)
    if v.size == 0:
        return b""
    if v.dtype.itemsize == 8 and np.any(v >= (1 << 35)):
        raise VarintError("array varint values limited to < 2**35")
    if v.max() < 0x80:
        return v.astype(np.uint8).tobytes()
    # row i holds value i's 7-bit groups; `more` marks the groups that are
    # followed by another one, so it is both continuation bit and keep mask
    # (kept by index: a boolean mask this irregular indexes slower)
    width = uvarint_width(v.dtype)
    groups = np.empty((v.size, width), dtype=np.uint8)
    keep = np.empty((v.size, width), dtype=bool)
    keep[:, 0] = True
    low = v.dtype.type(0x7F)
    rest = v
    for i in range(width):
        group = (rest & low).astype(np.uint8)
        rest = rest >> v.dtype.type(7)
        if i + 1 < width:
            more = rest != 0
            keep[:, i + 1] = more
            group |= more.view(np.uint8) << 7
        groups[:, i] = group
    return groups.reshape(-1)[np.flatnonzero(keep)].tobytes()


def decode_uvarint_array(data, count: int) -> tuple[np.ndarray, int]:
    """Vectorised decode of `count` varints; returns (values, bytes consumed)."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size >= count and buf[:count].max() < 0x80:
        return buf[:count].astype(np.uint64), count
    terminators = np.flatnonzero(buf < 0x80)
    if terminators.size < count:
        raise VarintError("truncated varint array")
    ends = terminators[:count] + 1
    starts = np.concatenate([[0], ends[:-1]])
    lengths = ends - starts
    if np.any(lengths > ARRAY_MAX_BYTES):
        raise VarintError(f"array varint longer than {ARRAY_MAX_BYTES} bytes")
    values = (buf[starts] & 0x7F).astype(np.uint64)
    idx = np.flatnonzero(lengths > 1)
    for i in range(1, int(lengths.max())):
        chunk = buf[starts[idx] + i].astype(np.uint64) & np.uint64(0x7F)
        values[idx] |= chunk << np.uint64(7 * i)
        idx = idx[lengths[idx] > i + 1]
    return values, int(ends[-1])


def decode_uvarint_at(
    buf: np.ndarray, pos: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the varint that starts at each `pos[i]` and must end before
    `end[i]`; returns (values, encoded sizes)."""
    if (pos >= end).any():
        raise VarintError("truncated varint")
    first = buf[pos]
    values = (first & 0x7F).astype(np.uint64)
    sizes = np.ones(pos.size, dtype=np.int64)
    live = np.flatnonzero(first >= 0x80)
    for i in range(1, ARRAY_MAX_BYTES):
        if not live.size:
            return values, sizes
        at = pos[live] + i
        if (at >= end[live]).any():
            raise VarintError("truncated varint")
        b = buf[at]
        values[live] |= (b & 0x7F).astype(np.uint64) << np.uint64(7 * i)
        sizes[live] += 1
        live = live[b >= 0x80]
    if live.size:
        raise VarintError(f"array varint longer than {ARRAY_MAX_BYTES} bytes")
    return values, sizes
