"""Probe volumes, atlas geometry, block-change detection, octahedral mapping,
and raw-size arithmetic.

A probe volume is a regular 3-D grid of irradiance probes. Each probe owns a
small square block of texels in one of two 2-D atlases:

* color atlas: 10x10 texel blocks, one 32-bit texel packing three 10-bit
  unsigned channels (two alpha bits unused),
* visibility atlas: 18x18 texel blocks, one texel holding a pair of 16-bit
  floats (mean distance, mean squared distance).

Block sides include a 1-texel guard band around an 8x8 (or 16x16) core; the
guard band is a deterministic function of the core (see `packing`).
`AtlasKind.plane_dtype` is the element type of the three codec planes a
kind's texels pack into: uint16 for color, uint8 for visibility.

`block_grid` is the one (..., block row, block column, y, x, ...) view of
whole square blocks: of a probe atlas and of the codec's planes. The update
atlas's slots are viewed a core row to an element instead
(`packing.UpdateAtlasLayout.slots`). `changed_blocks` is the one
block-change reduction, shared by change detection and the codec's
P-frames. It tells which square blocks of axes 0 and 1 differ; any further
axes ride along inside the block, as in `packing.reconstruct_guard_band`.
It reads both inputs in memory order as the widest unsigned words (8, 4, 2
or 1 bytes) that divide a block row's bytes, so one compare of words, not
of elements, finds every changed block: a visibility atlas's 18-texel block
row is 72 bytes, nine 8-byte words. It works on whole square blocks only,
which every caller passes. It is one serial numpy reduction on the calling
thread; the worker pool (`workers`) runs only the codec's deflate and
inflate segments.

`throughput_bps` is in bits per second. In the paper's binary units
(1 Mb = 2**20 bits) a 2048-probe color volume's 10 Hz stream comes out at
exactly 62.5 Mbps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

BLOCK_SIDE = 16  # side of the codec's square blocks, in plane elements


class AtlasKind(enum.Enum):
    """The two streamed texture kinds and their per-probe geometry."""

    COLOR = "color"
    VISIBILITY = "visibility"

    @property
    def block_side(self) -> int:
        return 10 if self is AtlasKind.COLOR else 18

    @property
    def core_side(self) -> int:
        return self.block_side - 2

    @property
    def bits_per_texel(self) -> int:
        return 32

    @property
    def bits_per_probe(self) -> int:
        return self.block_side * self.block_side * self.bits_per_texel

    @property
    def plane_dtype(self) -> type:
        return np.uint16 if self is AtlasKind.COLOR else np.uint8


def default_probes_per_row(probe_count: int) -> int:
    """Probe blocks per atlas row: 16 for small volumes, else near-square."""
    if probe_count <= 256:
        return 16
    return math.ceil(math.sqrt(probe_count))


@dataclass(frozen=True)
class ProbeVolume:
    """Immutable grid of probes with world-space placement and active flags.

    Grid index <-> (i, j, k) is the row-major bijection with i fastest:
    ``index = i + nx * (j + ny * k)``. Probe (i, j, k) sits at
    ``origin + spacing * (i, j, k)``.
    """

    dims: tuple[int, int, int]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    active: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        nx, ny, nz = self.dims
        if min(nx, ny, nz) < 1:
            raise ValueError(f"volume dims must be >= 1, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.active is None:
            flags = np.ones(nx * ny * nz, dtype=bool)
        else:
            flags = np.asarray(self.active, dtype=bool)
            if flags.shape != (nx * ny * nz,):
                raise ValueError(
                    f"active flags shape {flags.shape} != ({nx * ny * nz},)"
                )
        flags = flags.copy()
        flags.setflags(write=False)
        object.__setattr__(self, "active", flags)

    @property
    def probe_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def probe_positions(self, indices: np.ndarray) -> np.ndarray:
        """World positions for an array of probe indices, shape (n, 3)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.probe_count):
            raise IndexError(f"probe index outside [0, {self.probe_count})")
        nx, ny, _ = self.dims
        ijk = np.stack(
            [indices % nx, (indices // nx) % ny, indices // (nx * ny)], axis=-1
        )
        return np.asarray(self.origin) + np.asarray(self.spacing) * ijk

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.origin, dtype=np.float64)
        hi = lo + np.asarray(self.spacing) * (np.asarray(self.dims) - 1)
        return lo, hi


class ProbeAtlas:
    """2-D texel array holding one block per probe, row-major by probe index.

    `blocks()` is the one view of the blocks: probe p's block is
    ``blocks()[divmod(p, probes_per_row)]``, and `block_index` turns an array
    of probe ids into that index, rejecting ids outside the volume. Blocks
    past the last probe in the final block row are padding.

    Color atlases store one packed uint32 per texel (R in bits 0..9,
    G in 10..19, B in 20..29, alpha bits 30..31 unused and kept zero).
    Visibility atlases store raw float16 bit patterns as a (H, W, 2) uint16
    array so that NaN payloads and signed zeros survive round trips.
    """

    def __init__(self, kind: AtlasKind, probe_count: int, probes_per_row: int | None = None) -> None:
        if probe_count < 1:
            raise ValueError("probe_count must be >= 1")
        self.kind = kind
        self.probe_count = probe_count
        if probes_per_row is None:
            probes_per_row = default_probes_per_row(probe_count)
        elif probes_per_row < 1:
            raise ValueError("probes_per_row must be >= 1")
        self.probes_per_row = probes_per_row
        side = kind.block_side
        self.block_rows = math.ceil(probe_count / self.probes_per_row)
        shape = (self.block_rows * side, self.probes_per_row * side)
        if kind is AtlasKind.COLOR:
            self.texels = np.zeros(shape, dtype=np.uint32)
        else:
            self.texels = np.zeros((*shape, 2), dtype=np.uint16)

    @property
    def height(self) -> int:
        return self.texels.shape[0]

    def blocks(self) -> np.ndarray:
        """Writable (block row, block column, y, x, ...) view of the texels."""
        return block_grid(self.texels, self.kind.block_side)

    def block_index(self, probes) -> tuple[np.ndarray, np.ndarray]:
        """(block rows, block columns) of probe ids, to index `blocks()` with."""
        ids = np.asarray(probes, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.probe_count):
            raise IndexError(f"probe id outside [0, {self.probe_count})")
        return np.divmod(ids, self.probes_per_row)


def block_grid(a: np.ndarray, side: int, axis: int = 0) -> np.ndarray:
    """Writable (..., block row, block column, y, x, ...) view of the
    ``side x side`` blocks of axes `axis` and `axis + 1` of `a`, which must
    be whole blocks. Cutting an axis in two never copies, whatever `a`'s
    memory layout."""
    height, width = a.shape[axis : axis + 2]
    grid = (height // side, side, width // side, side)
    return a.reshape(*a.shape[:axis], *grid, *a.shape[axis + 2 :]).swapaxes(axis + 1, axis + 2)


def changed_blocks(cur: np.ndarray, ref: np.ndarray, side: int) -> np.ndarray:
    """Which ``side x side`` blocks of axes 0 and 1 of `cur` differ from
    `ref`, in any bit; shape (block rows, block columns). Axes after the
    first two ride along inside the block: each of its ``side x side``
    entries holds all of them. Axes 0 and 1 must be whole blocks, and `cur`
    and `ref` of one shape and dtype (a `ValueError` otherwise: both are
    compared as their bytes).

    Both are read in C order, and an input in another layout is first
    copied into it. A block row's bytes are then compared as the widest
    unsigned words that divide them; the rows of each block are reduced
    first, then each block's words."""
    if cur.shape != ref.shape or cur.dtype != ref.dtype:
        raise ValueError(f"{cur.shape} {cur.dtype} compared with {ref.shape} {ref.dtype}")
    height, width = cur.shape[:2]
    if height % side or width % side:
        raise ValueError(f"{height} x {width} elements are not whole {side} x {side} blocks")
    rows, cols = height // side, width // side
    row_bytes = side * cur.itemsize * math.prod(cur.shape[2:])
    word = next(size for size in (8, 4, 2, 1) if row_bytes % size == 0)
    words = row_bytes // word
    # flattened in C order: a view of a C-contiguous input, else its copy
    a, b = (x.reshape(-1).view(np.uint8).view(f"u{word}") for x in (cur, ref))
    grid = (rows, side, cols * words)
    by_word = np.not_equal(a.reshape(grid), b.reshape(grid)).any(axis=1).reshape(rows, cols, words)
    # a reduction over the short innermost axis would run its inner loop once
    # per block, a few words at a time: one OR per word position is 3-4 times
    # faster (2048-slot colour planes: 0.007 against 0.028 ms on a 2-vCPU host)
    changed = np.zeros((rows, cols), bool)
    for k in range(words):
        changed |= by_word[..., k]
    return changed


# --- octahedral direction mapping ------------------------------------------
#
# Equal-area octahedral map: the unit square's centre is +z, the corners meet
# at -z, and the diamond |f.x|+|f.y| = 1 (f = 2uv - 1) is the equator. The
# lower hemisphere is folded outward, with the sign convention that 0 folds
# like a positive coordinate.


def _sign_not_zero(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0.0, 1.0, -1.0)


def oct_encode(direction: np.ndarray) -> np.ndarray:
    """Map unit direction(s) to octahedral uv in the unit square.

    Accepts shape (3,) or (n, 3); returns matching (2,) or (n, 2).
    """
    d = np.asarray(direction, dtype=np.float64)
    single = d.ndim == 1
    d = np.atleast_2d(d)
    norms = np.linalg.norm(d, axis=-1)
    if np.any(norms < 1e-12):
        raise ValueError("zero direction cannot be octahedrally encoded")
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("directions must be unit length within 1e-6")
    d = d / norms[..., None]
    denom = np.abs(d[..., 0]) + np.abs(d[..., 1]) + np.abs(d[..., 2])
    p = d[..., :2] / denom[..., None]
    lower = d[..., 2] < 0.0
    folded = (1.0 - np.abs(p[..., ::-1])) * _sign_not_zero(p)
    p = np.where(lower[..., None], folded, p)
    uv = p * 0.5 + 0.5
    return uv[0] if single else uv


def oct_decode(uv: np.ndarray) -> np.ndarray:
    """Inverse of `oct_encode`: octahedral uv back to a unit direction."""
    u = np.asarray(uv, dtype=np.float64)
    single = u.ndim == 1
    u = np.atleast_2d(u)
    f = u * 2.0 - 1.0
    z = 1.0 - np.abs(f[..., 0]) - np.abs(f[..., 1])
    xy = f
    folded = (1.0 - np.abs(f[..., ::-1])) * _sign_not_zero(f)
    xy = np.where((z < 0.0)[..., None], folded, xy)
    d = np.concatenate([xy, z[..., None]], axis=-1)
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)
    return d[0] if single else d


def texel_directions(core_side: int) -> np.ndarray:
    """Unit direction at each core texel centre; shape (side, side, 3).

    Index order is (row, col) with u along columns and v along rows.
    """
    c = (np.arange(core_side) + 0.5) / core_side
    u, v = np.meshgrid(c, c, indexing="xy")
    uv = np.stack([u.ravel(), v.ravel()], axis=-1)
    return oct_decode(uv).reshape(core_side, core_side, 3)


# --- size and throughput arithmetic -----------------------------------------


def throughput_bps(rate_hz: float, n_probes: int, kind: AtlasKind) -> float:
    """Required streaming throughput in bits/second at a given update rate."""
    if rate_hz < 0 or n_probes < 0:
        raise ValueError("rate and probe count must be >= 0")
    return rate_hz * n_probes * kind.bits_per_probe
