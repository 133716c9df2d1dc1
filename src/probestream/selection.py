"""Per-client probe selection: change detection, view culling, budgeting.

A probe is worth sending when it is active, its texels changed since the
last transmission to that client, and it can contribute to shading a point
the client might see. The potentially-visible set is gathered by casting a
grid of primary-view rays plus a deterministic uniform sphere of rays from
the camera position and collecting the probe cages of every hit point; rays
that escape the scene contribute the cage at the point where they leave the
probe volume, and the camera's own cell is always included so open scenes
never produce an empty selection.

Change detection finds the changed probe blocks with
`volume.changed_blocks`, the block-change reduction the codec also uses,
over the atlas texels read as one uint32 per texel.

The ray cast is boxes only, exact and culled, and returns the nearest t per
ray; `pvs_probes` forms the hit points from it. Every box gets a bounding
sphere once per scene. Rays go `RAY_CHUNK` at a time; per chunk, two
matmuls give each sphere centre's projection on each ray and its squared
distance from the ray's line, and only the (ray, box) pairs whose line
passes within the sphere, inflated to cover the slab test's RAY_EPS
tolerances and rounding, and not wholly behind the origin, go on to the
slab test. The slab test is the same elementwise float64 expressions a
dense all-pairs cast evaluates, so the surviving pairs get bit-identical t
values, and no pair the test would accept is culled (the inflation is
derived in `SceneGeometry._cull`). The nearest t of each ray is one
`np.minimum.reduceat` over its pairs. Temporaries stay O(`RAY_CHUNK` x
boxes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from probestream.volume import ProbeAtlas, ProbeVolume, changed_blocks

RAY_EPS = 1e-6
RAY_CHUNK = 1024  # rays per cull pass; bounds the (rays x boxes) temporaries
CULL_SLACK = 1e-12  # relative slack on the cull's squared lengths, see `SceneGeometry._cull`


class LayoutMismatchError(ValueError):
    pass


# --- scene geometry -----------------------------------------------------------


class SceneGeometry:
    """Axis-aligned boxes with a nearest-t ray query.

    Only the nearest hit's t comes back, not which box it hit, so equally
    near boxes need no tie rule.
    """

    def __init__(self, boxes=None) -> None:
        self.boxes = (
            np.asarray(boxes, dtype=np.float64).reshape(-1, 2, 3)
            if boxes is not None and len(boxes)
            else np.zeros((0, 2, 3))
        )
        if np.any(self.boxes[:, 0] > self.boxes[:, 1]):
            raise ValueError("box min must be <= box max componentwise")
        # a box's bounding sphere: its centre and half diagonal
        self._centres = self.boxes.mean(axis=1)
        self._radii = 0.5 * np.linalg.norm(self.boxes[:, 1] - self.boxes[:, 0], axis=1)

    def raycast(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The nearest hit's t per ray, inf where a ray misses every box.

        The rays go through the cull and the slab test `RAY_CHUNK` at a time.
        """
        d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        o = np.broadcast_to(np.atleast_2d(np.asarray(origins, dtype=np.float64)), d.shape)
        safe_d = np.where(np.abs(d) < RAY_EPS, RAY_EPS, d)
        best_t = np.full(d.shape[0], np.inf)
        for lo in range(0, d.shape[0], RAY_CHUNK):
            rows = slice(lo, lo + RAY_CHUNK)
            oc, sc = o[rows], safe_d[rows]
            ray, box = self._cull(oc, sc)
            if not ray.size:
                continue
            t = self._slab(oc[ray], sc[ray], box)
            # pairs come grouped by ray, so each group starts where the ray changes
            starts = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
            best_t[lo + ray[starts]] = np.minimum.reduceat(t, starts)
        return best_t

    def _cull(self, o, safe_d):
        """(ray, box) pairs the slab test might accept, grouped by ray with
        boxes ascending.

        A (ray, box) pair is kept when some point ``o + u * tau``, tau >= 0,
        on the ray's unit direction u lies within the inflated radius R of
        the box's bounding-sphere centre c. With s = u . (c - o) that is
        ``max(s, 0)**2 >= |c - o|**2 - R**2``: in front (s >= 0) the line
        must pass within R, behind it the origin must lie within R.

        Why no pair the slab test accepts is dropped:

        - Tolerance. The slab test runs on `safe_d`, so the cull takes u
          along `safe_d` too. The test accepts when ``tnear <= tfar +
          RAY_EPS`` and ``tnear > RAY_EPS``, or when ``tnear <= RAY_EPS <
          tfar``. In the first case every slab's interval, its far end
          widened by RAY_EPS, holds tnear, so ``o + safe_d * tnear`` lies
          within ``RAY_EPS * |safe_d|`` of the box; in the second ``o +
          safe_d * tfar`` lies in the box. Both points are ahead of the
          origin, so ``R = r + RAY_EPS * |safe_d|`` suffices, with
          ``|safe_d|`` taken at its chunk maximum.
        - Rounding. Each slab bound is within 3 ulps of exact, which moves
          the accepted point by a few ulps of its distance from the origin.
          That, the rounding of the sphere centres and radii, and the
          rounding of the expansion below each stay under 20 ulps of
          ``|c|**2 + |o|**2 + R**2``; the cull lowers ``|c - o|**2 - R**2``
          by `CULL_SLACK` (about 9000 ulps) times that sum.

        The expansion ``|c - o|**2 = |c|**2 - 2 o . c + |o|**2`` makes both
        s and the slackened ``|c - o|**2 - R**2`` one matmul each, for a
        shared or a per-ray origin alike.
        """
        nb = len(self.boxes)
        c = self._centres
        safe_len = np.linalg.norm(safe_d, axis=1)
        u = safe_d / safe_len[:, None]
        s = np.column_stack([u, -np.sum(u * o, axis=1)]) @ np.column_stack(
            [c, np.ones(nb)]
        ).T
        a = self._radii + RAY_EPS * safe_len.max()
        g = CULL_SLACK
        ray_f = np.column_stack([o, np.ones(len(o)), np.sum(o * o, axis=1)])
        box_f = np.column_stack([
            -2.0 * c,
            (1.0 - g) * np.sum(c * c, axis=1) - (1.0 + g) * a * a,
            np.full(nb, 1.0 - g),
        ])
        gap = ray_f @ box_f.T  # |c - o|**2 - R**2, lowered by the slack

        np.maximum(s, 0.0, out=s)
        s *= s
        # row-major flat indices, so pairs come grouped by ray
        return np.divmod(np.flatnonzero(s >= gap), nb)

    def _slab(self, o, safe_d, box):
        """Exact t per (ray, box) pair, inf on a miss: the entering hit from
        outside, or the exit wall from inside."""
        inv = 1.0 / safe_d
        t1 = (self.boxes[box, 0] - o) * inv
        t2 = (self.boxes[box, 1] - o) * inv
        tnear = np.minimum(t1, t2).max(axis=1)
        tfar = np.maximum(t1, t2).min(axis=1)
        t = np.where(tnear > RAY_EPS, tnear, tfar)
        return np.where((tnear <= tfar + RAY_EPS) & (t > RAY_EPS), t, np.inf)


# --- camera -------------------------------------------------------------------


@dataclass
class CameraPose:
    position: np.ndarray
    forward: np.ndarray
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    fov_y_deg: float = 90.0
    aspect: float = 1.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        f = np.asarray(self.forward, dtype=np.float64)
        norm = np.linalg.norm(f)
        if norm < 1e-9:
            raise ValueError("camera forward vector must be nonzero")
        self.forward = f / norm
        self.up = np.asarray(self.up, dtype=np.float64)

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f = self.forward
        r = np.cross(f, self.up)
        if np.linalg.norm(r) < 1e-9:  # up parallel to forward: pick another up
            r = np.cross(f, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(r) < 1e-9:
                r = np.cross(f, np.array([0.0, 0.0, 1.0]))
        r = r / np.linalg.norm(r)
        u = np.cross(r, f)
        return f, r, u

def frustum_directions(pose: CameraPose, cols: int, rows: int) -> np.ndarray:
    """Unit ray directions through a cols x rows grid over the view frustum."""
    f, r, u = pose.basis()
    tan_y = np.tan(np.radians(pose.fov_y_deg) / 2.0)
    tan_x = tan_y * pose.aspect
    xs = (np.arange(cols) + 0.5) / cols * 2.0 - 1.0
    ys = (np.arange(rows) + 0.5) / rows * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    dirs = (
        f[None, :]
        + (gx.reshape(-1, 1) * tan_x) * r[None, :]
        + (gy.reshape(-1, 1) * tan_y) * u[None, :]
    )
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@functools.lru_cache(maxsize=8)
def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, near-uniform unit directions on the sphere; the array
    is shared between calls and read-only."""
    if count < 1:
        dirs = np.zeros((0, 3))
    else:
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = np.pi * (1.0 + np.sqrt(5.0)) * i
        dirs = np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)
    dirs.flags.writeable = False
    return dirs


# --- selection parameters -----------------------------------------------------


@dataclass
class SelectionParams:
    sphere_rays: int = 1024
    raster_cols: int = 64
    raster_rows: int = 64

    def __post_init__(self) -> None:
        if self.raster_cols * self.raster_rows < 1 and self.sphere_rays < 1:
            raise ValueError("at least one ray is required")


# --- change detection ---------------------------------------------------------


def detect_changed(
    rendered: ProbeAtlas, last_sent: ProbeAtlas, volume: ProbeVolume
) -> np.ndarray:
    """Probe ids whose blocks differ from their last transmitted state.

    The comparison is exact: any bit difference marks the probe. Inactive
    probes are never reported.
    """
    if (
        rendered.kind != last_sent.kind
        or rendered.probe_count != last_sent.probe_count
        or rendered.probes_per_row != last_sent.probes_per_row
    ):
        raise LayoutMismatchError("atlases do not share a layout")
    if rendered.probe_count != volume.probe_count:
        raise LayoutMismatchError("atlas probe count does not match volume")
    # one uint32 per texel: a visibility texel's two halves compare as one
    cur, ref = (
        np.ascontiguousarray(a.texels).view(np.uint32).reshape(a.height, -1)
        for a in (rendered, last_sent)
    )
    side = rendered.kind.block_side
    changed = changed_blocks(cur, ref, side, side).reshape(-1)
    return np.flatnonzero(changed[: volume.probe_count] & volume.active)


# --- probe cages and the potentially visible set ------------------------------


# (di, dj, dk) of the 8 cage corners, di fastest
_CAGE_OFFSETS = np.array([(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)])


def cage_probes(points: np.ndarray, volume: ProbeVolume) -> np.ndarray:
    """The 8 cell-corner probe ids enclosing each point; shape (n, 8).

    Points outside the volume are clamped, so border cells repeat corners.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dims = np.asarray(volume.dims)
    rel = (p - np.asarray(volume.origin)) / np.asarray(volume.spacing)
    low = np.clip(
        np.floor(rel).astype(np.int64), 0, np.maximum(dims - 2, 0)
    )
    nx, ny, _ = volume.dims
    # a corner steps past `low` only along axes of two or more probes
    offsets = (_CAGE_OFFSETS * (dims > 1)) @ np.array([1, nx, nx * ny])
    base = low[:, 0] + nx * (low[:, 1] + ny * low[:, 2])
    return base[:, None] + offsets


def _volume_exit_points(
    origin: np.ndarray, dirs: np.ndarray, volume: ProbeVolume
) -> tuple[np.ndarray, np.ndarray]:
    """Where rays leave the probe volume's bounding box; (mask, points)."""
    lo, hi = volume.bounds
    safe = np.where(np.abs(dirs) < RAY_EPS, RAY_EPS, dirs)
    inv = 1.0 / safe
    t1 = (lo[None, :] - origin[None, :]) * inv
    t2 = (hi[None, :] - origin[None, :]) * inv
    tnear = np.minimum(t1, t2).max(axis=1)
    tfar = np.maximum(t1, t2).min(axis=1)
    ok = (tnear <= tfar) & (tfar > 0.0)
    pts = origin[None, :] + dirs * np.where(ok, tfar, 0.0)[:, None]
    return ok, pts


def pvs_rays(pose: CameraPose, params: SelectionParams) -> np.ndarray:
    parts = []
    if params.raster_cols > 0 and params.raster_rows > 0:
        parts.append(frustum_directions(pose, params.raster_cols, params.raster_rows))
    if params.sphere_rays > 0:
        parts.append(fibonacci_sphere(params.sphere_rays))
    return np.concatenate(parts) if parts else np.zeros((0, 3))


def pvs_probes(
    pose: CameraPose,
    scene: SceneGeometry,
    volume: ProbeVolume,
    params: SelectionParams,
    rays: np.ndarray | None = None,
) -> np.ndarray:
    """Active probes that could shade any point visible from the camera."""
    if rays is None:
        rays = pvs_rays(pose, params)
    mask = np.zeros(volume.probe_count, dtype=bool)
    if len(rays):
        t = scene.raycast(pose.position, rays)
        hit = np.isfinite(t)
        mask[cage_probes(pose.position + rays[hit] * t[hit][:, None], volume)] = True
        ok, exits = _volume_exit_points(pose.position, rays[~hit], volume)
        mask[cage_probes(exits[ok], volume)] = True
    # the camera's own cell always contributes, so open scenes stay covered
    mask[cage_probes(pose.position, volume)[0]] = True
    mask &= volume.active
    return np.flatnonzero(mask)


# --- budgeted selection ---------------------------------------------------------


def select_for_client(
    changed,
    pvs,
    volume: ProbeVolume,
    last_sent_seq: np.ndarray,
    current_seq: int,
    budget: int | None = None,
) -> list[int]:
    """Order the sendable set by staleness and truncate to the budget.

    Staleness is update sequences since last transmission (never-sent probes
    are the most stale); ties break on ascending probe id. Probes truncated
    away stay changed relative to their last transmitted state, so they are
    reconsidered on the next update.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    is_changed = np.zeros(volume.active.size, dtype=bool)
    is_changed[np.asarray(changed, np.int64)] = True
    is_visible = np.zeros_like(is_changed)
    is_visible[np.asarray(pvs, np.int64)] = True
    ids = np.flatnonzero(is_changed & is_visible & volume.active)
    # staleness current_seq - last_sent_seq, highest first, is the order of
    # last_sent_seq lowest first, which needs no subtraction that could wrap;
    # the stable sort keeps ascending ids within a tie
    ids = ids[np.argsort(np.asarray(last_sent_seq)[ids], kind="stable")]
    return ids[:budget].tolist()
