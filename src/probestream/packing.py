"""Bit-exact layout transforms between probe atlases and codec plane sets.

Three families of transforms live here, all lossless by construction:

* color texels <-> three 16-bit YUV planes carrying 10-bit values,
* visibility texels (pairs of raw float16 halves) <-> three 8-bit YUV planes
  via byte distribution: each row's big-endian byte stream s goes to the
  planes every third byte to each, plane c at (y, p) = s[3p + c], so a row
  of x texels is 4x/3 elements wide and x must be a multiple of 3. Held as
  an (h, 4x/3, 3) byte array, those planes are exactly the byte-swapped
  texels, and that is how they stay in memory: `PlaneSet.data` is the
  copy-free (3, h, 4x/3) transposed view of it. Packing is one byteswap,
  and unpacking planes in that layout copies nothing,
* probe block <-> core block (guard band strip / reconstruct by the
  octahedral wrap rule).

Plus the update-atlas slot allocator with per-probe slot caching. Its slot
grid is near square, its width in texels a multiple of 48 and its height of
16, so `pack_texels` makes planes of whole 16x16 codec blocks of either
kind: 48 texels pack to 48 colour or 64 visibility elements. Slot copies
are batched: `build_update_atlas` gathers the selected cores from
`ProbeAtlas.blocks()` and scatters them into `UpdateAtlasLayout.slots()`,
and `apply_update_entries` does the reverse with one
`reconstruct_guard_band` call, whose axes after the first two are channels,
so the entry axis rides along as one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from probestream.volume import BLOCK_SIDE, AtlasKind, ProbeAtlas, block_grid


@dataclass
class PlaneSet:
    """Three equally sized planes (Y, U, V) ready for frame encoding, of the
    element type `AtlasKind.plane_dtype` of their kind."""

    kind: AtlasKind
    data: np.ndarray  # shape (3, height, width), in any memory layout

    def __post_init__(self) -> None:
        if self.data.ndim != 3 or self.data.shape[0] != 3:
            raise ValueError(f"plane data must be (3, h, w), got {self.data.shape}")
        if self.data.dtype != self.kind.plane_dtype:
            raise ValueError(
                f"plane dtype {self.data.dtype} does not match {self.kind}"
            )

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def element_bits(self) -> int:
        return self.data.dtype.itemsize * 8

    def copy(self) -> "PlaneSet":
        """A copy in the same memory layout."""
        return PlaneSet(self.kind, self.data.copy(order="K"))

    def equals(self, other: "PlaneSet") -> bool:
        return self.kind == other.kind and np.array_equal(self.data, other.data)


# --- color packing -----------------------------------------------------------


def pack_color(texels: np.ndarray) -> PlaneSet:
    """Packed 32-bit color texels -> 16-bit YUV planes (R->Y, G->U, B->V).

    The two alpha bits are dropped; every plane element stays < 1024 with the
    upper six bits zero.
    """
    t = np.asarray(texels, dtype=np.uint32)
    if t.ndim != 2:
        raise ValueError("color texel region must be 2-D")
    planes = np.empty((3, *t.shape), dtype=np.uint16)
    # assignment keeps each value's low 16 bits; the mask then keeps 10
    planes[0] = t
    planes[1] = t >> 10
    planes[2] = t >> 20
    planes &= 0x3FF
    return PlaneSet(AtlasKind.COLOR, planes)


def unpack_color(planes: PlaneSet) -> np.ndarray:
    """Inverse of `pack_color`; alpha bits come back zero."""
    if planes.kind is not AtlasKind.COLOR:
        raise ValueError("expected color plane set")
    if planes.data.max(initial=0) > 1023:
        raise ValueError("color plane element exceeds 10-bit range")
    y, u, v = planes.data
    texels = v.astype(np.uint32)
    texels <<= 10
    texels |= u
    texels <<= 10
    texels |= y
    return texels


# --- visibility packing ------------------------------------------------------


def widened_width(texel_width: int) -> int:
    """Plane width in elements for a visibility row of `texel_width` texels:
    exactly 4/3 of it, for a width that is a multiple of 3."""
    if texel_width < 0 or texel_width % 3:
        raise ValueError(f"visibility rows of {texel_width} texels are not whole 3-texel groups")
    return 4 * texel_width // 3


def pack_visibility(texels: np.ndarray) -> PlaneSet:
    """Visibility texels -> 8-bit YUV planes by row-wise byte distribution.

    Each texel contributes four bytes (R-hi, R-lo, G-hi, G-lo; most
    significant byte first). Per row the byte stream s is laid out as
    Y[p] = s[3p], U[p] = s[3p+1], V[p] = s[3p+2]. The texel width must be
    a multiple of 3. The planes are the (3, h, q) transposed view of one
    contiguous (h, q, 3) array of the byte-swapped texels.
    """
    t = np.asarray(texels, dtype=np.uint16)
    if t.ndim != 3 or t.shape[2] != 2:
        raise ValueError("visibility texel region must be (h, w, 2)")
    h, w, _ = t.shape
    stream = t.astype(">u2").view(np.uint8).reshape(h, widened_width(w), 3)
    return PlaneSet(AtlasKind.VISIBILITY, stream.transpose(2, 0, 1))


def unpack_visibility(planes: PlaneSet, texel_width: int) -> np.ndarray:
    """Inverse of `pack_visibility` for rows of `texel_width` texels.

    Returns read-only big-endian (``>u2``) texels. For planes in
    `pack_visibility`'s layout, which `codec.decode_frame` also returns,
    they are a view of the planes and nothing is copied; planes in any
    other layout are copied once.
    """
    if planes.kind is not AtlasKind.VISIBILITY:
        raise ValueError("expected visibility plane set")
    if widened_width(texel_width) != planes.width:
        raise ValueError(
            f"plane width {planes.width} does not match "
            f"{texel_width} texels per row"
        )
    h = planes.height
    stream = np.ascontiguousarray(planes.data.transpose(1, 2, 0)).reshape(h, 3 * planes.width)
    texels = stream.view(">u2").reshape(h, texel_width, 2)
    texels.flags.writeable = False
    return texels


def pack_texels(texels: np.ndarray, kind: AtlasKind) -> PlaneSet:
    if kind is AtlasKind.COLOR:
        return pack_color(texels)
    return pack_visibility(texels)


def unpack_texels(planes: PlaneSet, kind: AtlasKind, texel_width: int) -> np.ndarray:
    if kind is AtlasKind.COLOR:
        return unpack_color(planes)
    return unpack_visibility(planes, texel_width)


# --- guard bands -------------------------------------------------------------
#
# A probe block is its core plus a 1-texel border. Crossing an edge of the
# octahedral square wraps to the same edge mirrored, so each border texel
# duplicates a core texel: edges copy the adjacent core row/column reversed,
# corners copy the diagonally opposite core corner.


def reconstruct_guard_band(core: np.ndarray) -> np.ndarray:
    """Rebuild a full block from a core by the octahedral wrap rule.

    The first two axes are the core's rows and columns; any further axes are
    channels and ride along, so a batch of cores moved to a trailing axis is
    rebuilt in one call.
    """
    n = core.shape[0]
    if core.shape[1] != n or n < 1:
        raise ValueError(f"core must be square, got {core.shape}")
    out = np.empty((n + 2, n + 2) + core.shape[2:], dtype=core.dtype)
    out[1:-1, 1:-1] = core
    out[0, 1:-1] = core[0, ::-1]
    out[-1, 1:-1] = core[-1, ::-1]
    out[1:-1, 0] = core[::-1, 0]
    out[1:-1, -1] = core[::-1, -1]
    out[0, 0] = core[-1, -1]
    out[0, -1] = core[-1, 0]
    out[-1, 0] = core[0, -1]
    out[-1, -1] = core[0, 0]
    return out


# --- update atlas slots ------------------------------------------------------


class SlotOverflowError(RuntimeError):
    pass


class UpdateAtlasLayout:
    """Slot allocator for the per-client probe update texture.

    Slots hold stripped probe cores. A probe keeps its cached slot across
    updates so the temporal codec sees stable block positions. Slots are
    handed out in order and never freed: uncached probes take the slots not
    yet handed out, lowest first in ascending probe-id order, so the taken
    slots are always ``0 ... len(probe_slot) - 1``. Once every slot is
    taken, an uncached probe takes the slot of the least recently selected
    cached probe, which leaves the cache. `probe_slot` is kept in that
    order: least recently selected first, probes selected together by slot.
    That order and the grid geometry are the whole state, deterministic in
    the sequence of selected probe sets, so a receiver holding a twin
    layout reproduces identical assignments from probe ids alone.

    The grid starts ``ceil(sqrt(slot_count))`` slots wide with as many rows
    as the slots need; then its width in texels is rounded up to a multiple
    of ``3 * BLOCK_SIDE`` and its height to one of `BLOCK_SIDE`. Slots past
    `slot_count` are padding.
    """

    def __init__(self, slot_count: int, core_side: int) -> None:
        if slot_count < 1:
            raise ValueError("slot_count must be >= 1")
        self.slot_count = slot_count
        self.core_side = core_side
        # the fewest slots whose texels span whole codec blocks
        across = math.lcm(3 * BLOCK_SIDE, core_side) // core_side
        down = math.lcm(BLOCK_SIDE, core_side) // core_side
        self.slots_per_row = math.ceil(math.ceil(math.sqrt(slot_count)) / across) * across
        self.slot_rows = math.ceil(math.ceil(slot_count / self.slots_per_row) / down) * down
        self.probe_slot: dict[int, int] = {}

    @property
    def width(self) -> int:
        return self.slots_per_row * self.core_side

    @property
    def height(self) -> int:
        return self.slot_rows * self.core_side

    def texel_shape(self, kind: AtlasKind) -> tuple[int, ...]:
        if kind is AtlasKind.COLOR:
            return (self.height, self.width)
        return (self.height, self.width, 2)

    def slots(self, texels: np.ndarray) -> np.ndarray:
        """Writable (slot row, slot column, y, x, ...) view of update texels;
        slot s is ``slots(texels)[divmod(s, slots_per_row)]``."""
        return block_grid(texels, self.core_side)

    def assign(self, probes) -> list[tuple[int, int]]:
        """Assign slots for a selected probe set; returns (slot, probe) pairs
        sorted by slot. Mutates the cache."""
        selected = sorted(set(int(p) for p in probes))
        if len(selected) > self.slot_count:
            raise SlotOverflowError(
                f"{len(selected)} probes selected for {self.slot_count} slots; "
                "budget the selection upstream"
            )
        new = [p for p in selected if p not in self.probe_slot]
        slots = list(range(len(self.probe_slot), self.slot_count)[: len(new)])
        if len(slots) < len(new):
            # `probe_slot` runs least recently selected first, so the victims
            # are its first unselected probes and need no sort. The budget
            # check leaves at least as many victims as needed
            keep = set(selected)
            unselected = (p for p in self.probe_slot if p not in keep)
            victims = list(itertools.islice(unselected, len(new) - len(slots)))
            slots += [self.probe_slot.pop(p) for p in victims]
        self.probe_slot.update(zip(new, slots))
        entries = sorted((self.probe_slot[p], p) for p in selected)
        # the selection is now the most recently selected, ties by slot
        for _, probe in entries:
            self.probe_slot[probe] = self.probe_slot.pop(probe)
        return entries


def _entry_index(entries, layout: UpdateAtlasLayout, atlas: ProbeAtlas):
    """`slots()` and `blocks()` indices of (slot, probe) entries; raises
    IndexError, before anything is written, on a slot or probe out of range."""
    slots, probes = np.asarray(entries, dtype=np.int64).reshape(-1, 2).T
    if slots.size and (slots.min() < 0 or slots.max() >= layout.slot_count):
        raise IndexError(f"slot outside [0, {layout.slot_count})")
    return np.divmod(slots, layout.slots_per_row), atlas.block_index(probes)


def build_update_atlas(
    selected,
    layout: UpdateAtlasLayout,
    source: ProbeAtlas,
    update_texels: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Write selected probes' stripped cores into their slots.

    `update_texels` persists across calls; slots belonging to unselected
    cached probes keep their previous contents so the temporal codec sees a
    stable background. Returns the texel array and the (slot, probe) entries.
    """
    # a layout moved by a failed call no longer matches the client's twin, so
    # bad ids, a layout of another kind and mismatched texels fail first
    source.block_index(selected)
    if layout.core_side != source.kind.core_side:
        raise ValueError(f"layout core side {layout.core_side} is not that of {source.kind}")
    shape, dtype = layout.texel_shape(source.kind), source.texels.dtype
    if update_texels is None:
        update_texels = np.zeros(shape, dtype)
    elif (update_texels.shape, update_texels.dtype) != (shape, dtype):
        raise ValueError(f"update texels {update_texels.shape} {update_texels.dtype} are not {shape} {dtype}")
    entries = layout.assign(selected)
    (slot_rows, slot_cols), (rows, cols) = _entry_index(entries, layout, source)
    layout.slots(update_texels)[slot_rows, slot_cols] = source.blocks()[rows, cols, 1:-1, 1:-1]
    return update_texels, entries


def apply_update_entries(
    entries: list[tuple[int, int]],
    update_texels: np.ndarray,
    layout: UpdateAtlasLayout,
    target: ProbeAtlas,
) -> None:
    """Copy slot cores into target probe blocks, rebuilding guard bands."""
    if update_texels.shape != layout.texel_shape(target.kind):
        raise ValueError(f"update texels {update_texels.shape} are not {layout.texel_shape(target.kind)}")
    (slot_rows, slot_cols), (rows, cols) = _entry_index(entries, layout, target)
    cores = layout.slots(update_texels)[slot_rows, slot_cols]
    blocks = reconstruct_guard_band(np.moveaxis(cores, 0, -1))
    target.blocks()[rows, cols] = np.moveaxis(blocks, -1, 0)
