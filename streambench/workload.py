"""Seeded synthetic scenes that feed the streaming benchmark.

A workload fixes the probe volume, the scene boxes, the camera path and what
changes between updates. `Scene` plays the server's renderer: it writes the
colour and visibility atlases between updates and re-renders only the probes
that the workload changes. Every block it writes carries the guard band that
`packing.reconstruct_guard_band` derives from the core, so the client's
rebuilt atlas can be bit-identical to the server's.

The library sees only what this module generates: atlases, boxes and camera
poses. Everything here is a function of the seed and the update index, never
of the wall clock, so the same seed gives the same frames on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from probestream.packing import reconstruct_guard_band
from probestream.selection import CameraPose, SceneGeometry
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume, texel_directions

PAPER_DIMS = (16, 8, 16)
NOISE_SIGMA = 2.0  # colour noise, in 10-bit units
LIGHT_RADIUS = 4.5  # probes nearer than this to the point light are relit
OBJECT_RADIUS = 1.2  # moving sphere that occludes visibility rays
OBJECT_REACH = 3.0  # probes nearer than this to the sphere are re-rendered
TINT = (1.0, 0.85, 0.7)  # light colour per channel
LIGHT_PERIOD = 30  # updates per lap of the point light: one lap per GOP of `relight_local`


@dataclass(frozen=True)
class Workload:
    name: str
    boxes: int  # scene boxes at the paper's 2048 probes; scaled with volume
    slot_share: float  # update-atlas slots (and budget) per probe
    gop: int
    change: str  # "none", "local_light" or "sun_sweep"
    camera_period: int  # updates per lap of the camera path
    camera_spin: float  # extra yaw per update, radians
    warmup: int  # updates checked but not timed: the join key frame and the join transient


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walk_static",
            boxes=90, slot_share=1.0, gop=30, change="none",
            camera_period=30, camera_spin=0.0, warmup=12,
        ),
        Workload(
            "relight_local",
            boxes=40, slot_share=1.0, gop=30, change="local_light",
            camera_period=60, camera_spin=0.0, warmup=2,
        ),
        Workload(
            "keyframe_churn",
            boxes=8, slot_share=0.25, gop=1, change="sun_sweep",
            camera_period=160, camera_spin=0.7, warmup=2,
        ),
    )
}


class Scene:
    """Volume, boxes, camera path and renderer for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, dims=PAPER_DIMS) -> None:
        self.workload = workload
        self.volume = ProbeVolume(tuple(dims))
        n = self.volume.probe_count
        self.slots = max(1, round(workload.slot_share * n))
        self.rng = np.random.default_rng(seed)
        lo, hi = self.volume.bounds
        self.centre = (lo + hi) / 2.0
        self.extent = hi - lo
        self.scale = self.extent.max() / (PAPER_DIMS[0] - 1)  # lengths below are at paper scale
        self.phase = self.rng.uniform(0.0, 2.0 * math.pi, size=4)
        self.positions = self.volume.probe_positions(np.arange(n))
        self.geometry = SceneGeometry(self._boxes(max(1, round(workload.boxes * n / 2048))))
        self.color_dirs = texel_directions(AtlasKind.COLOR.core_side).reshape(-1, 3)
        self.vis_dirs = texel_directions(AtlasKind.VISIBILITY.core_side).reshape(-1, 3)
        self.color = ProbeAtlas(AtlasKind.COLOR, n)
        self.visibility = ProbeAtlas(AtlasKind.VISIBILITY, n)
        everything = np.arange(n)
        self._write(self.color, everything, self._color_blocks(everything, 0))
        self._write(self.visibility, everything, self._visibility_blocks(everything, 0))

    # --- paths ----------------------------------------------------------------

    def camera_position(self, t: float) -> np.ndarray:
        w = self.workload
        lap = 2.0 * math.pi * t / w.camera_period + self.phase[0]
        bob = 2.0 * math.pi * t / 45.0 + self.phase[1]
        return self._on_path(lap, bob)

    def _on_path(self, lap, bob) -> np.ndarray:
        radius = (0.35 if self.workload.change == "none" else 0.12) * self.extent
        return self.centre + np.stack(
            np.broadcast_arrays(
                radius[0] * np.cos(lap),
                0.2 * self.extent[1] * np.sin(bob),
                radius[2] * np.sin(lap),
            ),
            axis=-1,
        )

    def pose(self, seq: int) -> CameraPose:
        ahead = self.camera_position(seq + 0.5) - self.camera_position(seq)
        ahead[1] = 0.0
        yaw = math.atan2(ahead[2], ahead[0]) + self.workload.camera_spin * seq
        forward = np.array([math.cos(yaw), -0.15, math.sin(yaw)])
        return CameraPose(self.camera_position(seq), forward)

    def light_position(self, seq: int) -> np.ndarray:
        a = 2.0 * math.pi * seq / LIGHT_PERIOD + self.phase[2]
        r = 0.3 * self.extent
        return self.centre + np.array(
            [r[0] * math.cos(a), 0.25 * self.extent[1] * math.sin(3 * a), r[2] * math.sin(a)]
        )

    def sun_direction(self, seq: int) -> np.ndarray:
        a = 2.0 * math.pi * seq / 60.0 + self.phase[3]
        return np.array([math.cos(a) * 0.7, 0.7, math.sin(a) * 0.7]) / math.sqrt(1.47)

    def object_position(self, seq: int) -> np.ndarray:
        # sweeps back and forth through one quarter of the volume
        s = math.sin(2.0 * math.pi * seq / 24.0 + self.phase[3])
        return self.centre + self.extent * np.array([0.25 * s, 0.0, 0.25])

    def _boxes(self, count: int) -> np.ndarray:
        """Random boxes that keep clear of every point the camera can reach."""
        lo, hi = self.volume.bounds
        lap, bob = np.meshgrid(np.linspace(0, 2 * math.pi, 241), np.linspace(0, 2 * math.pi, 13))
        path = self._on_path(lap, bob).reshape(-1, 3)
        boxes = []
        while len(boxes) < count:
            c = self.rng.uniform(lo, hi)
            h = self.rng.uniform(0.3, 1.0, size=3) * self.scale
            gap = np.maximum(np.abs(path - c) - h, 0.0)
            if np.sqrt((gap * gap).sum(axis=1)).min() > 0.6 * self.scale:
                boxes.append((c - h, c + h))
        return np.asarray(boxes)

    # --- renderer ---------------------------------------------------------------

    def advance(self, seq: int) -> None:
        """Render the atlases the server holds before update `seq`."""
        if seq == 0:
            return
        n = self.volume.probe_count
        change = self.workload.change
        if change == "local_light":
            near = np.zeros(n, dtype=bool)
            for s in (seq - 1, seq):
                d = np.linalg.norm(self.positions - self.light_position(s), axis=1)
                near |= d < LIGHT_RADIUS * self.scale
            ids = np.flatnonzero(near)
            self._write(self.color, ids, self._color_blocks(ids, seq))
        elif change == "sun_sweep":
            ids = np.arange(n)
            self._write(self.color, ids, self._color_blocks(ids, seq))
            near = np.zeros(n, dtype=bool)
            for s in (seq - 1, seq):
                d = np.linalg.norm(self.positions - self.object_position(s), axis=1)
                near |= d < OBJECT_REACH * self.scale
            ids = np.flatnonzero(near)
            self._write(self.visibility, ids, self._visibility_blocks(ids, seq))

    def _color_blocks(self, ids: np.ndarray, seq: int) -> np.ndarray:
        p = self.positions[ids][:, None, :]  # (n, 1, 3)
        d = self.color_dirs[None, :, :]  # (1, 64, 3)
        change = self.workload.change
        light = np.zeros((len(ids), d.shape[1]))
        if change == "local_light":
            to_light = self.light_position(seq) - p
            dist = np.linalg.norm(to_light, axis=2, keepdims=True)
            reach = LIGHT_RADIUS * self.scale
            falloff = np.clip(1.0 - dist / reach, 0.0, None) ** 2
            lambert = np.clip((d * to_light / np.maximum(dist, 1e-6)).sum(axis=2), 0.0, None)
            light = 360.0 * falloff[..., 0] * lambert
        elif change == "sun_sweep":
            light = 220.0 * np.clip(d @ self.sun_direction(seq), 0.0, None)
            light = np.broadcast_to(light, (len(ids), d.shape[1]))
        texel = np.zeros((len(ids), d.shape[1]), dtype=np.uint32)
        for c in range(3):
            value = (
                420.0
                + 170.0 * d[..., 1]
                + 60.0 * np.sin(0.35 * p[..., 0] + c)
                + 40.0 * np.cos(0.27 * p[..., 2] - 0.5 * c)
                + TINT[c] * light
                + self.rng.normal(0.0, NOISE_SIGMA, size=(len(ids), d.shape[1]))
            )
            texel |= np.clip(np.rint(value), 0, 1023).astype(np.uint32) << (10 * c)
        side = AtlasKind.COLOR.core_side
        return _with_guard_band(texel.reshape(len(ids), side, side))

    def _visibility_blocks(self, ids: np.ndarray, seq: int) -> np.ndarray:
        """Distance to the padded volume walls or the moving sphere, as halves."""
        p = self.positions[ids][:, None, :]
        d = self.vis_dirs[None, :, :]
        lo, hi = self.volume.bounds
        with np.errstate(divide="ignore"):
            inv = 1.0 / d  # +-inf along an axis the ray does not move on
        wall = np.where(inv > 0, (hi + 1.0 - p) * inv, (lo - 1.0 - p) * inv).min(axis=2)
        dist = wall
        if self.workload.change == "sun_sweep":
            oc = p - self.object_position(seq)
            b = (oc * d).sum(axis=2)
            disc = b * b - ((oc * oc).sum(axis=2) - (OBJECT_RADIUS * self.scale) ** 2)
            hit_t = -b - np.sqrt(np.maximum(disc, 0.0))
            dist = np.where((disc > 0) & (hit_t > 0.05), np.minimum(wall, hit_t), wall)
        moments = np.stack([dist, dist * dist * 1.05], axis=-1).astype(np.float16)
        side = AtlasKind.VISIBILITY.core_side
        return _with_guard_band(moments.view(np.uint16).reshape(len(ids), side, side, 2))

    @staticmethod
    def _write(atlas: ProbeAtlas, ids: np.ndarray, blocks: np.ndarray) -> None:
        rows, cols = np.divmod(ids, atlas.probes_per_row)
        block_view(atlas)[rows, :, cols] = blocks


def block_view(atlas: ProbeAtlas) -> np.ndarray:
    """Writable (block row, y, block col, x, ...) view; index it [rows, :, cols]."""
    side = atlas.kind.block_side
    return atlas.texels.reshape(
        atlas.block_rows, side, atlas.probes_per_row, side, *atlas.texels.shape[2:]
    )


def _with_guard_band(cores: np.ndarray) -> np.ndarray:
    """(n, s, s, ...) cores -> (n, s+2, s+2, ...) blocks by the library's wrap rule."""
    moved = np.moveaxis(cores, 0, 2)  # the probe axis rides along as a channel
    return np.ascontiguousarray(np.moveaxis(reconstruct_guard_band(moved), 2, 0))
