"""Per-client probe selection: change detection, view culling, budgeting.

A probe is worth sending when it is active, its texels changed since the
last transmission to that client, and it can contribute to shading a point
the client might see. The potentially-visible set is gathered by casting a
grid of primary-view rays plus a deterministic uniform sphere of rays from
the camera position and collecting the probe cages of every hit point; rays
that escape the scene contribute the cage at the point where they leave the
probe volume, and the camera's own cell is always included so open scenes
never produce an empty selection.

The ray cast is exact but culled. Every box gets a bounding sphere once
per scene. Rays go `RAY_CHUNK` at a time; per chunk, two matmuls give each
sphere centre's projection on each ray and its squared distance from the
ray's line, and only the (ray, box) pairs whose line passes within the
sphere, inflated to cover the slab test's RAY_EPS tolerances and rounding,
and not wholly behind the origin, go on to the slab test. Triangles are not
culled: every (ray, triangle) pair goes to the Moller-Trumbore test. Both
tests are the same elementwise float64 expressions a dense all-pairs cast
evaluates, so the surviving pairs get bit-identical t values, and no pair
the tests would accept is culled (the inflation is derived in
`SceneGeometry._cull`). The nearest hit per ray breaks ties toward the
lowest primitive, boxes numbered before triangles. Temporaries stay
O(`RAY_CHUNK` x primitives).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from probestream.volume import ProbeAtlas, ProbeVolume

RAY_EPS = 1e-6
RAY_CHUNK = 1024  # rays per cull pass; bounds the (rays x primitives) temporaries
CULL_SLACK = 1e-12  # relative slack on the cull's squared lengths, see `SceneGeometry._cull`


class LayoutMismatchError(ValueError):
    pass


# --- scene geometry -----------------------------------------------------------


class SceneGeometry:
    """Axis-aligned boxes plus triangles with a nearest-hit ray query.

    Primitives are numbered boxes first, then triangles; ties between equally
    near hits go to the lowest number.
    """

    def __init__(self, boxes=None, triangles=None) -> None:
        self.boxes = (
            np.asarray(boxes, dtype=np.float64).reshape(-1, 2, 3)
            if boxes is not None and len(boxes)
            else np.zeros((0, 2, 3))
        )
        if np.any(self.boxes[:, 0] > self.boxes[:, 1]):
            raise ValueError("box min must be <= box max componentwise")
        self.triangles = (
            np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
            if triangles is not None and len(triangles)
            else np.zeros((0, 3, 3))
        )
        e1 = self.triangles[:, 1] - self.triangles[:, 0]
        e2 = self.triangles[:, 2] - self.triangles[:, 0]
        face_n = np.cross(e1, e2)
        self._face_normals = face_n / np.maximum(
            np.linalg.norm(face_n, axis=1, keepdims=True), 1e-30
        )
        # a box's bounding sphere: its centre and half diagonal
        self._centres = self.boxes.mean(axis=1)
        self._radii = 0.5 * np.linalg.norm(self.boxes[:, 1] - self.boxes[:, 0], axis=1)

    def raycast(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nearest hits for a batch of rays.

        Returns (hit mask, t, points, normals); t is inf where rays miss.
        Normals face against the incoming ray. The rays go through the cull
        and the exact tests `RAY_CHUNK` at a time.
        """
        d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        o = np.broadcast_to(np.atleast_2d(np.asarray(origins, dtype=np.float64)), d.shape)
        safe_d = np.where(np.abs(d) < RAY_EPS, RAY_EPS, d)
        n = d.shape[0]
        best_t = np.full(n, np.inf)
        best_normal = np.zeros((n, 3))
        for lo in range(0, n, RAY_CHUNK):
            rows = slice(lo, lo + RAY_CHUNK)
            oc, dc, sc = o[rows], d[rows], safe_d[rows]
            ray, prim = self._cull(oc, sc)
            t, axis = self._intersect(oc[ray], dc[ray], sc[ray], prim)
            win = _first_nearest(ray, t)
            ray, prim = ray[win], prim[win]
            best_t[lo + ray] = t[win]
            best_normal[lo + ray] = self._normals(dc[ray], prim, axis[win])
        hit = np.isfinite(best_t)
        points = o + d * np.where(hit, best_t, 0.0)[:, None]
        return hit, best_t, points, best_normal

    def _cull(self, o, safe_d):
        """(ray, primitive) pairs the exact tests might accept, grouped by
        ray with primitives ascending. Every (ray, triangle) pair is kept.

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
        nb, nt = len(self.boxes), len(self.triangles)
        c = self._centres
        safe_len = np.linalg.norm(safe_d, axis=1)
        u = safe_d / safe_len[:, None]
        s = np.column_stack([u, -np.sum(u * o, axis=1)]) @ np.column_stack(
            [c, np.ones(nb)]
        ).T
        a = self._radii + RAY_EPS * safe_len.max()
        g = CULL_SLACK
        ray_f = np.column_stack([o, np.ones(len(o)), np.sum(o * o, axis=1)])
        prim_f = np.column_stack([
            -2.0 * c,
            (1.0 - g) * np.sum(c * c, axis=1) - (1.0 + g) * a * a,
            np.full(nb, 1.0 - g),
        ])
        gap = ray_f @ prim_f.T  # |c - o|**2 - R**2, lowered by the slack

        np.maximum(s, 0.0, out=s)
        s *= s
        keep = np.ones((len(o), nb + nt), dtype=bool)
        np.greater_equal(s, gap, out=keep[:, :nb])
        # row-major flat indices, so pairs come grouped by ray
        return np.divmod(np.flatnonzero(keep), nb + nt)

    def _intersect(self, o, d, safe_d, prim):
        """Exact t per (ray, primitive) pair, inf on a miss, and the box
        wall axis a box hit crosses."""
        nb = len(self.boxes)
        t = np.full(len(prim), np.inf)
        axis = np.zeros(len(prim), dtype=np.intp)
        box = prim < nb
        tri = ~box
        if box.any():
            t[box], axis[box] = self._slab(o[box], safe_d[box], prim[box])
        if tri.any():
            t[tri] = self._moller_trumbore(o[tri], d[tri], prim[tri] - nb)
        return t, axis

    def _slab(self, o, safe_d, box):
        inv = 1.0 / safe_d
        lo = self.boxes[box, 0]
        hi = self.boxes[box, 1]
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        near_ax = np.argmax(tmin, axis=1)
        far_ax = np.argmin(tmax, axis=1)
        tnear = np.take_along_axis(tmin, near_ax[:, None], 1)[:, 0]
        tfar = np.take_along_axis(tmax, far_ax[:, None], 1)[:, 0]
        valid = tnear <= tfar + RAY_EPS
        # entering hit from outside, or interior hit on the exit wall
        t_entry = np.where(valid & (tnear > RAY_EPS), tnear, np.inf)
        t_exit = np.where(valid & (tnear <= RAY_EPS) & (tfar > RAY_EPS), tfar, np.inf)
        t = np.minimum(t_entry, t_exit)
        return t, np.where(np.isfinite(t_entry), near_ax, far_ax)

    def _moller_trumbore(self, o, d, tri):
        v0 = self.triangles[tri, 0]
        e1 = self.triangles[tri, 1] - v0
        e2 = self.triangles[tri, 2] - v0
        pvec = np.cross(d, e2)
        det = np.sum(e1 * pvec, axis=1)
        ok = np.abs(det) > RAY_EPS
        inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = o - v0
        u = np.sum(tvec * pvec, axis=1) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.sum(d * qvec, axis=1) * inv_det
        t = np.sum(e2 * qvec, axis=1) * inv_det
        ok &= (u >= -RAY_EPS) & (v >= -RAY_EPS) & (u + v <= 1.0 + RAY_EPS)
        ok &= t > RAY_EPS
        return np.where(ok, t, np.inf)

    def _normals(self, d, prim, axis):
        """Unit normals, against the ray, of the primitives the rays hit."""
        nb = len(self.boxes)
        normal = np.zeros((len(prim), 3))
        box = np.flatnonzero(prim < nb)
        sign = -np.sign(d[box, axis[box]])
        normal[box, axis[box]] = np.where(sign == 0.0, 1.0, sign)
        tri = prim >= nb
        face_n = self._face_normals[prim[tri] - nb]
        flip = np.sum(face_n * d[tri], axis=1) > 0
        face_n[flip] *= -1.0
        normal[tri] = face_n
        return normal


def _first_nearest(ray: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per ray, the first of its pairs with the least finite t; pairs are
    grouped by ray, so the first is the lowest primitive."""
    hit = np.flatnonzero(np.isfinite(t))
    if not hit.size:
        return hit
    ray, t = ray[hit], t[hit]
    starts = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
    t_min = np.minimum.reduceat(t, starts)
    best = np.flatnonzero(t == np.repeat(t_min, np.diff(np.r_[starts, t.size])))
    first = np.r_[True, ray[best[1:]] != ray[best[:-1]]]
    return hit[best[first]]


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
    differs = rendered.blocks() != last_sent.blocks()
    changed = differs.any(axis=tuple(range(2, differs.ndim))).reshape(-1)
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
        hit, _, points, _ = scene.raycast(pose.position, rays)
        mask[cage_probes(points[hit], volume)] = True
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
