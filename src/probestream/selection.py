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

The ray cast is boxes only, from one origin, exact and culled, and returns
the nearest t per ray; `pvs_probes` forms the hit points from it. Every box
gets a bounding sphere once per scene. Once per call, each box's bounds and
sphere centre are offset by the origin, each sphere gets a threshold, and
each ray its unit direction and 1 / direction. The rays then go through the
cull a `PAIR_BUDGET` of (ray, box) pairs at a time: one matmul gives each
sphere centre's projection on each ray, and only the pairs whose projection
reaches the sphere's threshold, i.e. whose ray passes within the sphere,
inflated to cover the slab test's RAY_EPS tolerances and rounding, go on to
the slab test. The slab test is the same elementwise float64 expressions a
dense all-pairs cast evaluates, so the surviving pairs get bit-identical t
values, and no pair the test would accept is culled (the inflation is
derived in `SceneGeometry._cull`). The nearest t of each ray is one
`np.minimum.reduceat` over its pairs. Temporaries stay O(`PAIR_BUDGET`).

Rays, boxes and points are held component-first, shape (3, n), inside this
module: an elementwise numpy operation between an (n, 3) array and a
3-vector or an (n, 1) column, or a reduction over the length-3 axis, runs
its inner loop three elements at a time and costs several times more per
element than the same operation on rows of n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from probestream.volume import ProbeAtlas, ProbeVolume, changed_blocks

RAY_EPS = 1e-6
PAIR_BUDGET = 1 << 17  # (ray, box) pairs per cull pass; bounds the (rays x boxes) temporaries
CULL_SLACK = 1e-12  # relative slack on the cull's squared lengths, see `SceneGeometry._cull`


class LayoutMismatchError(ValueError):
    pass


def _by_component(vectors) -> np.ndarray:
    """(n, 3) vectors as a component-first (3, n) float64 array."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(vectors, dtype=np.float64)).T)


def _sq3(v: np.ndarray) -> np.ndarray:
    """Squared length of each column of a component-first (3, n) array."""
    x, y, z = v
    return x * x + y * y + z * z


def _norm3(v: np.ndarray) -> np.ndarray:
    """Length of each column of a component-first (3, n) array; bit for bit
    `np.linalg.norm(v.T, axis=1)`."""
    return np.sqrt(_sq3(v))


def _slab_bounds(lo, hi, inv):
    """tnear and tfar of the slab test per column of component-first arrays:
    `lo` and `hi` are box bounds minus the ray origin, `inv` is 1 / the safe
    direction."""
    t1 = lo * inv
    t2 = hi * inv
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    tnear = np.maximum(np.maximum(tmin[0], tmin[1]), tmin[2])
    tfar = np.minimum(np.minimum(tmax[0], tmax[1]), tmax[2])
    return tnear, tfar


def _slab(lo, hi, inv):
    """Exact t per (ray, box) pair, inf on a miss: the entering hit from
    outside, or the exit wall from inside. Arguments as `_slab_bounds`."""
    tnear, tfar = _slab_bounds(lo, hi, inv)
    t = np.where(tnear > RAY_EPS, tnear, tfar)
    return np.where((tnear <= tfar + RAY_EPS) & (t > RAY_EPS), t, np.inf)


# --- scene geometry -----------------------------------------------------------


class SceneGeometry:
    """Axis-aligned boxes with a nearest-t ray query from one origin.

    Only the nearest hit's t comes back, not which box it hit, so equally
    near boxes need no tie rule. Each box's bounding sphere is computed once
    per scene, and the bounds' and sphere's offsets from the origin once per
    `raycast` call.
    """

    def __init__(self, boxes=None) -> None:
        self.boxes = (
            np.asarray(boxes, dtype=np.float64).reshape(-1, 2, 3)
            if boxes is not None and len(boxes)
            else np.zeros((0, 2, 3))
        )
        if np.any(self.boxes[:, 0] > self.boxes[:, 1]):
            raise ValueError("box min must be <= box max componentwise")
        self._lo, self._hi = (_by_component(self.boxes[:, i]) for i in (0, 1))
        # a box's bounding sphere: its centre and half diagonal; infinite or
        # huge bounds give a non-finite sphere, which `_cull` never rejects
        with np.errstate(over="ignore", invalid="ignore"):
            self._centres = (self._lo + self._hi) / 2.0
            self._radii = 0.5 * _norm3(self._hi - self._lo)

    def raycast(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The nearest hit's t per ray from `origin`, inf where a ray misses
        every box; `directions` has shape (n, 3).

        The box bounds minus the origin and each ray's 1 / direction are
        computed once; the rays go through the cull and the slab test a
        `PAIR_BUDGET` of (ray, box) pairs at a time.
        """
        o = np.asarray(origin, dtype=np.float64).reshape(3, 1)
        d = _by_component(directions)
        safe_d = np.where(np.abs(d) < RAY_EPS, RAY_EPS, d)
        inv = 1.0 / safe_d
        lo = self._lo - o
        hi = self._hi - o
        best_t = np.full(d.shape[1], np.inf)
        for ray, box in self._cull(o, safe_d):
            t = _slab(lo.take(box, axis=1), hi.take(box, axis=1), inv.take(ray, axis=1))
            # pairs come grouped by ray, so each group starts where the ray changes
            starts = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
            best_t[ray[starts]] = np.minimum.reduceat(t, starts)
        return best_t

    def _cull(self, o, safe_d):
        """Per chunk of rays, the (ray, box) pairs the slab test might accept,
        grouped by ray with boxes ascending; chunks without a pair are
        skipped. `o` is the (3, 1) origin, `safe_d` the (3, n) directions
        the slab test runs on.

        A (ray, box) pair is kept when some point ``o + u * tau``, tau >= 0,
        on the ray's unit direction u lies within the inflated radius R of
        the box's bounding-sphere centre c. With s = u . (c - o) that is
        ``max(s, 0)**2 >= |c - o|**2 - R**2``: in front (s >= 0) the line
        must pass within R, behind it the origin must lie within R. So a box
        whose (slackened) ``|c - o|**2 - R**2`` is at most 0 keeps every
        ray, and otherwise a ray is kept when s reaches the box's threshold,
        the square root of that difference. All but s is per box and
        computed once per call; s is one (rays x boxes) matmul per chunk.

        Why no pair the slab test accepts is dropped:

        - Tolerance. The slab test runs on `safe_d`, so the cull takes u
          along `safe_d` too. The test accepts when ``tnear <= tfar +
          RAY_EPS`` and ``tnear > RAY_EPS``, or when ``tnear <= RAY_EPS <
          tfar``. In the first case every slab's interval, its far end
          widened by RAY_EPS, holds tnear, so ``o + safe_d * tnear`` lies
          within ``RAY_EPS * |safe_d|`` of the box; in the second ``o +
          safe_d * tfar`` lies in the box. Both points are ahead of the
          origin, so ``R = r + RAY_EPS * |safe_d|`` suffices, with
          ``|safe_d|`` taken at its maximum over the call.
        - Rounding. Each slab bound is within 3 ulps of exact, which moves
          the accepted point by a few ulps of its distance from the origin,
          at most ``|c - o| + R``. The centre, rounded once per scene, is
          off by under an ulp of ``|c|``; ``c - o``, rounded once per call,
          by half an ulp of ``|c - o|``; u and s carry a few ulps of
          ``|c - o|``, and R, its square and the threshold a few ulps of
          ``|c - o|**2 + R**2``. Each of these moves ``max(s, 0)**2 - (|c -
          o|**2 - R**2)`` by under 20 ulps of ``S = |c - o|**2 + R**2 +
          |c|**2``, and the cull lowers ``|c - o|**2 - R**2`` by
          `CULL_SLACK` (about 9000 ulps) times S. On s, that lowers the
          threshold by at least ``CULL_SLACK * |c - o| / 2``, about 4500
          ulps of the largest s the box can have.
        - Non-finite arithmetic. Infinite or huge bounds can make s or a
          threshold inf or NaN. A box whose threshold is not finite keeps
          every ray, and a NaN s is kept: a pair is dropped only when s is
          definitely below a finite threshold.
        """
        nb = self._radii.size
        if not nb or not safe_d.shape[1]:
            return
        safe_len = _norm3(safe_d)
        u = safe_d / safe_len
        g = CULL_SLACK
        with np.errstate(over="ignore", invalid="ignore"):
            rel = self._centres - o
            reach = self._radii + RAY_EPS * safe_len.max()
            # |c - o|**2 - R**2, lowered by the slack
            gap = (1.0 - g) * _sq3(rel) - (1.0 + g) * reach * reach - g * _sq3(self._centres)
            threshold = np.full(nb, -np.inf)
            np.sqrt(gap, out=threshold, where=np.isfinite(gap) & (gap > 0.0))
        step = max(1, PAIR_BUDGET // nb)
        for first in range(0, u.shape[1], step):
            with np.errstate(over="ignore", invalid="ignore"):
                s = u[:, first : first + step].T @ rel
            # row-major flat indices, so pairs come grouped by ray
            ray, box = np.divmod(np.flatnonzero(~(s < threshold)), nb)
            if ray.size:
                yield first + ray, box


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
    dirs = f[:, None] + (gx.reshape(-1) * tan_x) * r[:, None] + (gy.reshape(-1) * tan_y) * u[:, None]
    return (dirs / _norm3(dirs)).T


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
        counts = (self.sphere_rays, self.raster_cols, self.raster_rows)
        if min(counts) < 0:
            raise ValueError(f"ray counts must be >= 0, got {counts}")
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
    p = _by_component(points)
    dims = np.asarray(volume.dims)
    rel = (p - np.asarray(volume.origin)[:, None]) / np.asarray(volume.spacing)[:, None]
    low = np.clip(np.floor(rel).astype(np.int64), 0, np.maximum(dims - 2, 0)[:, None])
    nx, ny, _ = volume.dims
    # a corner steps past `low` only along axes of two or more probes
    offsets = (_CAGE_OFFSETS * (dims > 1)) @ np.array([1, nx, nx * ny])
    base = low[0] + nx * (low[1] + ny * low[2])
    return base[:, None] + offsets


def _volume_exit_points(
    origin: np.ndarray, d: np.ndarray, volume: ProbeVolume
) -> tuple[np.ndarray, np.ndarray]:
    """Where rays with component-first (3, n) directions `d` leave the probe
    volume's bounding box; (mask, component-first points)."""
    o = origin[:, None]
    lo, hi = (b[:, None] - o for b in volume.bounds)
    safe = np.where(np.abs(d) < RAY_EPS, RAY_EPS, d)
    tnear, tfar = _slab_bounds(lo, hi, 1.0 / safe)
    ok = (tnear <= tfar) & (tfar > 0.0)
    return ok, o + d * np.where(ok, tfar, 0.0)


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
    o = pose.position
    # component-first; the public calls get transposed views, which they
    # transpose back without a copy
    d = _by_component(rays)
    t = scene.raycast(o, d.T)
    hit = np.isfinite(t)
    ok, exits = _volume_exit_points(o, np.compress(~hit, d, axis=1), volume)
    hits = o[:, None] + np.compress(hit, d, axis=1) * t[hit]
    # the camera's own cell always contributes, so open scenes stay covered
    points = np.concatenate([hits, np.compress(ok, exits, axis=1), o[:, None]], axis=1)
    mask = np.zeros(volume.probe_count, dtype=bool)
    mask[cage_probes(points.T, volume)] = True
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
