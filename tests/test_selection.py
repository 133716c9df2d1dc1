import copy
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream import selection
from probestream.selection import (
    PAIR_BUDGET,
    RAY_EPS,
    CameraPose,
    LayoutMismatchError,
    SceneGeometry,
    SelectionParams,
    _cage_cells,
    _slab,
    _volume_exit_points,
    detect_changed,
    fibonacci_sphere,
    frustum_directions,
    pvs_probes,
    pvs_rays,
    select_for_client,
)
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume

INF = math.inf


def _cages(points, volume):
    """The 8 cell-corner probe ids of each (n, 3) point, or of one point."""
    base, offsets = _cage_cells(np.atleast_2d(np.asarray(points, dtype=np.float64)).T, volume)
    return base[:, None] + offsets


# --- scalar reference ray cast --------------------------------------------------
#
# One ray against one box at a time, in plain Python floats, with the slab
# formulas written out as numpy evaluates them.


def _ref_box(o, d, lo, hi):
    """t of one ray against one box; inf on a miss."""
    inv = [1.0 / (RAY_EPS if abs(c) < RAY_EPS else c) for c in d]
    tmin, tmax = [], []
    for a in range(3):
        t1 = (lo[a] - o[a]) * inv[a]
        t2 = (hi[a] - o[a]) * inv[a]
        tmin.append(min(t1, t2))
        tmax.append(max(t1, t2))
    tnear, tfar = max(tmin), min(tmax)
    valid = tnear <= tfar + RAY_EPS
    t_entry = tnear if valid and tnear > RAY_EPS else INF
    t_exit = tfar if valid and tnear <= RAY_EPS and tfar > RAY_EPS else INF
    return min(t_entry, t_exit)


def reference_raycast(origin, directions, boxes):
    """Nearest t per ray from one origin over every box, inf on a miss."""
    o = np.asarray(origin, dtype=np.float64).tolist()
    box_list = np.asarray(boxes).tolist()
    return np.array([
        min((_ref_box(o, d, lo, hi) for lo, hi in box_list), default=INF)
        for d in np.atleast_2d(directions).tolist()
    ])


# --- ray-cast oracle -------------------------------------------------------------


TINY = (0.0, -0.0, 1e-9, -1e-9, 1e-7, -5e-7, 9.99e-7, -9.99e-7, RAY_EPS, -RAY_EPS)


def _scene_case(seed: int, shared_origin: bool):
    """Random boxes plus rays aimed at their awkward spots."""
    rng = np.random.default_rng(seed)
    nb = rng.integers(0, 6)
    lo = rng.uniform(-4.0, 4.0, size=(nb, 3))
    size = rng.uniform(0.05, 3.0, size=(nb, 3))
    size[rng.random((nb, 3)) < 0.1] = 0.0  # flat boxes
    boxes = np.stack([lo, lo + size], axis=1)

    centres = boxes.mean(axis=1) if nb else np.zeros((0, 3))
    origin = rng.uniform(-6.0, 6.0, size=3)
    if nb and rng.random() < 0.3:
        origin = centres[rng.integers(nb)]  # inside a box

    targets = [rng.normal(size=(8, 3)) + origin]  # random directions
    for b in boxes:
        corners = np.array([[b[i][0], b[j][1], b[k][2]] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        edge = corners[0] + (corners[1] - corners[0]) * rng.random()
        targets.append(corners[rng.integers(8, size=2)])  # grazing a corner
        targets.append(edge[None])  # grazing an edge
        targets.append(corners[:1] + rng.choice([-1, 1], size=(1, 3)) * 2e-7)  # just off a corner
        targets.append(2.0 * origin - b.mean(axis=0)[None])  # box behind the origin
    dirs = np.concatenate(targets) - origin
    axis = np.eye(3)[rng.integers(3, size=4)] * rng.choice([-1.0, 1.0], size=(4, 1))
    tiny = dirs[rng.integers(len(dirs), size=6)].copy()
    small = rng.random(tiny.shape) < 0.3
    tiny[small] = rng.choice(TINY, size=int(small.sum()))
    tiny[:, rng.integers(3)] = rng.choice(TINY, size=len(tiny))
    dirs = np.concatenate([dirs, axis, tiny])
    dirs *= 10.0 ** rng.uniform(-2.0, 2.0, size=(len(dirs), 1))
    if shared_origin:
        origins = origin
    else:
        origins = np.repeat(origin[None], len(dirs), axis=0)
        moved = rng.random(len(dirs)) < 0.5
        origins[moved] = rng.uniform(-6.0, 6.0, size=(int(moved.sum()), 3))
        if nb:
            inside = rng.random(len(dirs)) < 0.2
            origins[inside] = centres[rng.integers(nb, size=int(inside.sum()))]
    return boxes, origins, dirs


def _per_origin(origins, dirs):
    """(origin, ray indices) for each distinct origin; per-ray origins run as
    one `raycast` call per origin, a (3,) origin is shared by every ray."""
    rows = np.broadcast_to(origins, np.shape(dirs))
    distinct, which = np.unique(rows, axis=0, return_inverse=True)
    return [(o, np.flatnonzero(which.reshape(-1) == i)) for i, o in enumerate(distinct)]


def _assert_matches_reference(scene, origins, dirs):
    t = np.empty(len(dirs))
    for origin, rays in _per_origin(origins, dirs):
        t[rays] = scene.raycast(origin, dirs[rays])
        ref_t = reference_raycast(origin, dirs[rays], scene.boxes)
        np.testing.assert_array_equal(np.isfinite(t[rays]), np.isfinite(ref_t))
        np.testing.assert_array_equal(t[rays], ref_t)
    return t


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_raycast_matches_scalar_reference(seed, shared_origin):
    boxes, origins, dirs = _scene_case(seed, shared_origin)
    _assert_matches_reference(SceneGeometry(boxes), origins, dirs)


def test_raycast_reference_cases_hit():
    # the generated cases do exercise hits
    box_hits = 0
    for seed in range(20):
        boxes, origins, dirs = _scene_case(seed, seed % 2 == 0)
        t = _assert_matches_reference(SceneGeometry(boxes), origins, dirs)
        box_hits += int(np.isfinite(t).sum())
    assert box_hits > 50


def _tangent_rays(seed: int, scale: float = 1.0):
    """Rays that pass just outside a box's bounding sphere past one of its
    corners, across the diagonal: within the slab test's RAY_EPS tolerance
    at scale 1, and by a few ulps of the corner in a scene scaled so far out
    that RAY_EPS is below an ulp and only `CULL_SLACK` covers the rounding."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-4.0, 0.0, size=(6, 3)) * scale
    boxes = np.stack([lo, lo + rng.uniform(0.2, 3.0, size=(6, 3)) * scale], axis=1)
    origins, dirs = [], []
    for lo, hi in boxes:
        c = (lo + hi) / 2.0
        w = (hi - c) / np.linalg.norm(hi - c)
        unit = RAY_EPS if scale == 1.0 else 8.0 * np.spacing(np.linalg.norm(hi))
        for push in rng.uniform(0.05, 0.5, size=6) * unit:
            d = rng.normal(size=3)
            d -= (d @ w) * w
            d /= np.linalg.norm(d)
            origins.append(hi + push * w - 5.0 * scale * d)
            dirs.append(d)
    return boxes, np.array(origins), np.array(dirs)


@pytest.mark.parametrize("case", ["random", "tangent", "rounding"])
def test_cull_keeps_every_accepted_pair(case):
    # the slab test on every (ray, box) pair against the cull's pairs
    outside = accepted_pairs = 0
    for seed in range(40):
        if case == "random":
            boxes, origins, dirs = _scene_case(seed, seed % 2 == 0)
        else:
            boxes, origins, dirs = _tangent_rays(seed, 1e10 if case == "rounding" else 1.0)
        scene = SceneGeometry(boxes)
        nb = len(scene.boxes)
        for origin, rays in _per_origin(origins, dirs):
            d = dirs[rays]
            o = origin.reshape(3, 1)
            safe_d = np.where(np.abs(d.T) < RAY_EPS, RAY_EPS, d.T)
            ray, box = np.divmod(np.arange(len(d) * nb), max(nb, 1))
            t = _slab(scene._lo[:, box] - o, scene._hi[:, box] - o, 1.0 / safe_d[:, ray])
            accepted = np.isfinite(t).reshape(len(d), nb)
            kept = np.zeros_like(accepted)
            for r, b in scene._cull(o, safe_d):
                kept[r, b] = True
            assert not (accepted & ~kept).any()
            accepted_pairs += int(accepted.sum())
            if case == "tangent":
                # accepted pairs whose line misses the bare bounding sphere
                u = d / np.linalg.norm(d, axis=1, keepdims=True)
                rel = scene._centres.T[None] - origin
                along = np.sum(rel * u[:, None], axis=2)
                perp = np.linalg.norm(rel - along[..., None] * u[:, None], axis=2)
                outside += int((accepted & (perp > scene._radii * (1 + 1e-9))).sum())
    if case == "tangent":
        assert outside > 100
    assert accepted_pairs > 500


def test_raycast_matches_scalar_reference_across_chunks():
    # 2.5 chunks of rays from a point amid the boxes, so that hits fall on
    # both sides of every chunk boundary and in the partial last chunk
    rng = np.random.default_rng(4)
    nb = 64
    lo = rng.uniform(-6.0, 6.0, size=(nb, 3))
    boxes = np.stack([lo, lo + rng.uniform(0.3, 2.0, size=(nb, 3))], axis=1)
    scene = SceneGeometry(boxes)
    step = PAIR_BUDGET // nb
    dirs = rng.normal(size=(5 * step // 2, 3))
    t = _assert_matches_reference(scene, np.array([0.5, -0.25, 0.75]), dirs)
    for chunk in (t[:step], t[step : 2 * step], t[2 * step :]):
        assert np.isfinite(chunk).mean() > 0.3


def test_cull_keeps_boxes_it_cannot_do_arithmetic_on():
    # an infinite or huge bound makes a bounding sphere inf or NaN, or
    # overflows its squares; such a box must reach the slab test
    for far in (INF, 1e300):
        scene = SceneGeometry([
            ((-far, 0.0, 0.0), (0.0, 1.0, 1.0)),
            ((2.0, -far, -far), (3.0, far, far)),
            ((-far, -far, 4.0), (far, far, far)),
            ((-1.0, 5.0, -1.0), (1.0, far, 1.0)),
        ])
        assert scene.raycast([1.0, 0.5, 0.5], [[-1.0, 0.0, 0.0]])[0] == 1.0
        dirs = np.concatenate([np.eye(3), -np.eye(3), np.random.default_rng(0).normal(size=(60, 3))])
        for origin in ([1.0, 0.5, 0.5], [0.5, -2.0, 1.5], [-3.0, 0.5, -2.0]):
            t = _assert_matches_reference(scene, np.array(origin), dirs)
            assert np.isfinite(t).mean() > 0.5
    # a finite sphere so far from the origin that only |c - o|**2 overflows
    scene = SceneGeometry([((1e154, -1e150, -1e150), (1.0000001e154, 1e150, 1e150))])
    t = _assert_matches_reference(scene, np.array([-1e154, 0.5, 0.5]), np.eye(3))
    assert t[0] == 2e154


def test_raycast_edge_cases():
    box = [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]
    scene = SceneGeometry(box)
    o = np.array([-1.0, 0.5, 0.5])
    t = scene.raycast(o, np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    assert t[0] == 1.0 and t[1] == INF  # a box behind the origin is missed
    # from inside, the ray hits the exit wall
    t = scene.raycast(np.array([0.5, 0.5, 0.5]), np.array([0.0, 0.0, 2.0]))
    assert t[0] == 0.25
    # entering through the corner (1, 1, 1)
    t = scene.raycast(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0, -1.0]))
    assert t[0] == 1.0
    # just ahead of the origin, the x slab [1.5e-6, 1 + 1.5e-6] and the y slab
    # [-1, 0.8e-6] miss each other by less than RAY_EPS: a hit at tnear,
    # although tfar is below RAY_EPS
    grazed = SceneGeometry([((0.0, -1.0, 0.0), (1.0, 0.8e-6, 1.0))])
    t = grazed.raycast(np.array([-1.5e-6, 0.0, 0.5]), np.array([1.0, 1.0, 0.0]))
    assert t[0] == 1.5e-6
    # equally near hits: box a is entered through its x wall, box b through
    # its y wall, both at t = 1
    a = ((0.0, -5.0, 0.0), (1.0, 1.0, 1.0))
    b = ((-5.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    o2, d2 = np.array([-1.0, -1.0, 0.5]), np.array([[1.0, 1.0, 0.0]])
    for order in ((a, b), (b, a)):
        assert SceneGeometry(order).raycast(o2, d2)[0] == 1.0
    # an empty scene misses everything
    assert SceneGeometry([]).raycast(o, np.array([[1.0, 0.0, 0.0]]))[0] == INF


# --- seeded PVS scene -----------------------------------------------------------


def _pvs_scene(seed=7, boxes=40):
    volume = ProbeVolume((16, 8, 16))
    rng = np.random.default_rng(seed)
    lo, hi = volume.bounds
    centre = rng.uniform(lo, hi, size=(boxes, 3))
    half = rng.uniform(0.2, 1.2, size=(boxes, 3))
    scene = SceneGeometry(np.stack([centre - half, centre + half], axis=1))
    mid = (lo + hi) / 2.0
    poses = []
    for i in range(8):
        a = 2.0 * math.pi * i / 8
        pos = mid + np.array([5.5 * math.cos(a), 1.5 * math.sin(2 * a), 5.5 * math.sin(a)])
        poses.append(CameraPose(pos, [-math.sin(a), -0.15, math.cos(a)]))
    return volume, scene, poses


def test_pvs_golden():
    volume, scene, poses = _pvs_scene()
    digest = hashlib.sha256()
    for pose in poses:
        ids = pvs_probes(pose, scene, volume, SelectionParams())
        digest.update(ids.astype("<i8").tobytes())
    assert digest.hexdigest() == "655ec87a90a531766da18a0ec57bf78a010d39769192585a2541d2f0166f0581"


def _length(v):
    """Length of a 3-vector, each product and sum rounded on its own."""
    x, y, z = (float(c) for c in v)
    return math.sqrt(x * x + y * y + z * z)


def _numpy_basis(pose):
    """`CameraPose.basis` as `np.cross` calls and explicit lengths."""
    f = pose.forward
    r = np.cross(f, pose.up)
    if _length(r) < 1e-9:
        r = np.cross(f, np.array([1.0, 0.0, 0.0]))
        if _length(r) < 1e-9:
            r = np.cross(f, np.array([0.0, 0.0, 1.0]))
    r = r / _length(r)
    return f, r, np.cross(r, f)


_axis = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_axis, _axis, _axis).filter(lambda v: max(map(abs, v)) > 1e-3),
    st.one_of(
        st.tuples(_axis, _axis, _axis),
        st.sampled_from([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)]),
    ),
    st.sampled_from([None, 1.0, -2.5]),
)
def test_camera_basis_matches_numpy_bit_for_bit(forward, up, parallel):
    # `parallel` makes up a multiple of forward, so another up is picked
    if parallel is not None:
        up = tuple(parallel * c for c in forward)
    pose = CameraPose(np.zeros(3), forward, up)
    given_forward = np.array(forward, dtype=np.float64)
    assert pose.forward.tobytes() == (given_forward / _length(given_forward)).tobytes()
    for got, want in zip(pose.basis(), _numpy_basis(pose)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pvs_memory_bounded():
    # 5120 rays against 90 boxes; the rays go through the cull a chunk at a time
    volume, scene, poses = _pvs_scene(seed=5, boxes=90)
    params = SelectionParams()
    assert len(pvs_rays(poses[0], params)) == 5120
    pvs_probes(poses[0], scene, volume, params)
    tracemalloc.start()
    try:
        pvs_probes(poses[0], scene, volume, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize(
    "sphere, cols, rows", [(0, -2, -3), (-5, 64, 64), (1024, -1, 64), (1024, 64, -1), (0, 0, 0), (0, 0, 8)]
)
def test_selection_params_reject_negative_or_no_rays(sphere, cols, rows):
    with pytest.raises(ValueError):
        SelectionParams(sphere_rays=sphere, raster_cols=cols, raster_rows=rows)


def test_selection_params_accept_one_kind_of_ray():
    pose = CameraPose([0, 0, 0], [0, 0, 1])
    none = fibonacci_sphere(0)
    assert none.shape == (0, 3) and none.dtype == np.float64 and not none.flags.writeable
    # the empty part adds no ray and changes no dtype
    raster = pvs_rays(pose, SelectionParams(0, 4, 2))
    assert raster.shape == (8, 3) and raster.dtype == np.float64
    assert np.array_equal(raster, frustum_directions(pose, 4, 2))
    for cols, rows in ((0, 3), (3, 0)):
        sphere = pvs_rays(pose, SelectionParams(5, cols, rows))
        assert sphere.shape == (5, 3) and sphere.dtype == np.float64
        assert np.array_equal(sphere, fibonacci_sphere(5))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(1, 5)] * 3),
    st.integers(0, 2**20),
)
def test_cage_cells_match_scalar_reference(dims, seed):
    # axes of one probe included, where a cage repeats its corners
    rng = np.random.default_rng(seed)
    volume = ProbeVolume(dims, origin=(0.5, -1.0, 0.25), spacing=(0.7, 1.3, 2.0))
    points = rng.uniform(-4.0, 12.0, size=(40, 3))
    expected = []
    for point in points:
        low = [
            min(max(math.floor((point[a] - volume.origin[a]) / volume.spacing[a]), 0), max(dims[a] - 2, 0))
            for a in range(3)
        ]
        corners = []
        for dk in (0, 1):
            for dj in (0, 1):
                for di in (0, 1):
                    i, j, k = (min(low[a] + d, dims[a] - 1) for a, d in enumerate((di, dj, dk)))
                    corners.append(i + dims[0] * (j + dims[1] * k))
        expected.append(corners)
    assert _cages(points, volume).tolist() == expected

def test_pvs_covers_every_hit_cage():
    volume, scene, poses = _pvs_scene(seed=3)
    rng = np.random.default_rng(0)
    active = rng.random(volume.probe_count) < 0.8
    volume = ProbeVolume(volume.dims, active=active)
    params = SelectionParams(sphere_rays=512, raster_cols=24, raster_rows=16)
    for pose in poses:
        pvs = pvs_probes(pose, scene, volume, params)
        assert volume.active[pvs].all()
        rays = pvs_rays(pose, params)
        t = scene.raycast(pose.position, rays)
        hit = np.isfinite(t)
        assert hit.any()
        cages = np.unique(_cages(pose.position + rays[hit] * t[hit][:, None], volume))
        assert np.isin(cages[active[cages]], pvs).all()
        own = _cages(pose.position, volume)[0]
        assert np.isin(own[active[own]], pvs).all()


def _ref_exit(o, d, lo, hi):
    """Where one ray leaves the box [lo, hi], o + d*tfar; None if it does not."""
    inv = [1.0 / (RAY_EPS if abs(c) < RAY_EPS else c) for c in d]
    t1 = [(lo[a] - o[a]) * inv[a] for a in range(3)]
    t2 = [(hi[a] - o[a]) * inv[a] for a in range(3)]
    tnear = max(min(t1[a], t2[a]) for a in range(3))
    tfar = min(max(t1[a], t2[a]) for a in range(3))
    return [o[a] + d[a] * tfar for a in range(3)] if tnear <= tfar and tfar > 0.0 else None


def _reference_pvs(position, rays, boxes, volume):
    """pvs_probes in Python floats: each ray's hit point o + d*t from the
    scalar ray cast, or the point where a missing ray leaves the volume's
    box, then the cages of those points and of the camera, active only."""
    o = position.tolist()
    lo, hi = (b.tolist() for b in volume.bounds)
    points = []
    for d, t in zip(rays.tolist(), reference_raycast(position, rays, boxes).tolist()):
        point = [o[a] + d[a] * t for a in range(3)] if t < INF else _ref_exit(o, d, lo, hi)
        if point is not None:
            points.append(point)
    ids = set(_cages(np.reshape(points, (-1, 3)), volume).ravel().tolist())
    ids |= set(_cages(position, volume)[0].tolist())
    return [p for p in sorted(ids) if volume.active[p]]


def _grid_wall_scene():
    """Walls whose faces lie on planes of the probe grid, open towards +z, so
    hit points fall on cell boundaries: a hit point off by more than rounding
    lands in the neighbouring cell. One camera sits above the volume, where
    some rays miss the volume's box."""
    volume = ProbeVolume((8, 8, 8))
    far = 20.0
    walls = [
        ((-far, -far, -far), (2.0, far, far)),
        ((5.0, -far, -far), (far, far, far)),
        ((-far, -far, -far), (far, 1.0, far)),
        ((-far, 6.0, -far), (far, far, far)),
        ((-far, -far, -far), (far, far, 3.0)),
    ]
    poses = [
        CameraPose([3.3, 3.6, 4.45], [0.3, -0.2, 1.0]),
        CameraPose([2.5, 1.75, 6.5], [1.0, 0.5, -0.25]),
        CameraPose([4.9, 5.1, 3.2], [-1.0, -0.1, 0.1]),
        CameraPose([3.3, 3.6, 9.0], [0.1, 0.2, -1.0]),  # outside the volume
    ]
    return volume, SceneGeometry(walls), poses


@pytest.mark.parametrize("case", ["grid_walls", "random", "empty"])
def test_pvs_matches_scalar_reference(case):
    # one ray at a time, so that each ray's own cage is compared: `pvs_rays`
    # is patched to return the one ray
    if case == "random":
        volume, scene, poses = _pvs_scene(seed=3)
        active = np.random.default_rng(0).random(volume.probe_count) < 0.8
        volume = ProbeVolume(volume.dims, active=active)
        poses = poses[::3]
    else:
        volume, scene, poses = _grid_wall_scene()
        if case == "empty":
            scene = SceneGeometry([])
    params = SelectionParams(sphere_rays=128, raster_cols=12, raster_rows=8)
    hits = 0
    for pose in poses:
        rays = pvs_rays(pose, params)
        for ray in rays:
            with mock.patch.object(selection, "pvs_rays", return_value=ray[None]):
                got = pvs_probes(pose, scene, volume, params)
            assert got.tolist() == _reference_pvs(pose.position, ray[None], scene.boxes, volume)
        # exit points lie on the volume's faces, where a cage seldom moves, so
        # they are compared directly
        miss = ~np.isfinite(scene.raycast(pose.position, rays))
        hits += int((~miss).sum())
        ok, exits = _volume_exit_points(pose.position, rays[miss].T, volume)
        lo, hi = (b.tolist() for b in volume.bounds)
        ref = [_ref_exit(pose.position.tolist(), d, lo, hi) for d in rays[miss].tolist()]
        assert ok.tolist() == [p is not None for p in ref]
        assert exits[:, ok].T.tolist() == [p for p in ref if p is not None]
    assert (hits > 0) == (case != "empty")


# --- change detection --------------------------------------------------------------


def _atlases(kind, count=6):
    rng = np.random.default_rng(11)
    a = ProbeAtlas(kind, count)
    if kind is AtlasKind.COLOR:
        a.texels[...] = rng.integers(0, 1 << 30, size=a.texels.shape)
    else:
        a.texels[...] = np.float16(1.5).view(np.uint16)
    return a, copy.deepcopy(a)


def _core(atlas, probe):
    """Writable view of a probe's core texels."""
    return atlas.blocks()[divmod(probe, atlas.probes_per_row)][1:-1, 1:-1]


def test_detect_color_exact_per_channel():
    volume = ProbeVolume((6, 1, 1))
    a, b = _atlases(AtlasKind.COLOR)
    for probe, shift in ((1, 0), (3, 10), (5, 20)):
        block = _core(b, probe)
        channel = int(block[0, 0] >> shift) & 0x3FF
        step = 5 if channel < 1000 else -5
        block[0, 0] = (block[0, 0] & ~np.uint32(0x3FF << shift)) | np.uint32((channel + step) << shift)
    assert list(detect_changed(a, b, volume)) == [1, 3, 5]


def test_detect_visibility_exact_nan_and_signed_zero():
    volume = ProbeVolume((6, 1, 1))
    a, b = _atlases(AtlasKind.VISIBILITY)
    f16 = lambda x: np.float16(x).view(np.uint16)  # noqa: E731
    _core(b, 0)[0, 0, 1] = f16(1.5 + 0.25)  # mean-square half moved
    _core(b, 1)[2, 2, 0] = f16(1.5 - 0.5)  # mean half moved
    _core(a, 2)[0, 0, 0] = f16(0.0)
    _core(b, 2)[0, 0, 0] = f16(-0.0)  # signed zero
    _core(a, 3)[1, 1, 0] = _core(b, 3)[1, 1, 0] = np.uint16(0x7E00)  # same NaN
    _core(a, 4)[1, 1, 1] = np.uint16(0x7E00)  # NaN against a number
    _core(a, 5)[1, 1, 1], _core(b, 5)[1, 1, 1] = np.uint16(0x7E00), np.uint16(0x7E01)
    assert list(detect_changed(a, b, volume)) == [0, 1, 2, 4, 5]


def test_detect_skips_inactive_and_rejects_mismatched_layouts():
    active = np.array([True, False, True, True, False, True])
    volume = ProbeVolume((6, 1, 1), active=active)
    a, b = _atlases(AtlasKind.COLOR)
    b.texels ^= np.uint32(1)
    assert list(detect_changed(a, b, volume)) == [0, 2, 3, 5]
    with pytest.raises(LayoutMismatchError):
        detect_changed(a, ProbeAtlas(AtlasKind.COLOR, 6, probes_per_row=3), volume)
    with pytest.raises(LayoutMismatchError):
        detect_changed(a, ProbeAtlas(AtlasKind.COLOR, 5), volume)
    with pytest.raises(LayoutMismatchError):
        detect_changed(a, ProbeAtlas(AtlasKind.VISIBILITY, 6), volume)
    with pytest.raises(LayoutMismatchError):
        detect_changed(a, b, ProbeVolume((7, 1, 1)))


@pytest.mark.parametrize("kind", list(AtlasKind))
def test_detect_never_reports_padding_blocks(kind):
    # 7 probes in rows of 16: blocks 7 to 15 of the only block row are padding
    volume = ProbeVolume((7, 1, 1))
    a = ProbeAtlas(kind, 7, probes_per_row=16)
    b = copy.deepcopy(a)
    side = kind.block_side
    b.texels[:, 7 * side :] = 1
    assert list(detect_changed(a, b, volume)) == []
    # the last element of the last probe's block, and the first of the first
    last, first = b.blocks()[0, 6], b.blocks()[0, 0]
    last[(-1,) * last.ndim] = 1
    first[(0,) * first.ndim] = 1
    assert list(detect_changed(a, b, volume)) == [0, 6]
    # texels in any memory order compare the same
    fortran = ProbeAtlas(kind, 7, 16)
    fortran.texels = np.asfortranarray(b.texels)
    assert list(detect_changed(a, fortran, volume)) == [0, 6]


# --- budgeted selection ---------------------------------------------------------------


def test_select_orders_by_staleness_then_id():
    volume = ProbeVolume((8, 1, 1), active=[True] * 7 + [False])
    last = np.array([5, -1, 3, 3, 9, -1, 1, -1])
    ids = select_for_client([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 7], volume, last, 10, budget=8)
    assert ids == [1, 5, 6, 2, 3, 0, 4]  # never sent first; 7 is inactive
    # only probes both changed and potentially visible are offered
    assert select_for_client([3, 2, 4, 4], [4, 2, 0], volume, last, 10, budget=8) == [2, 4]
    assert select_for_client([1, 5, 6, 2], range(8), volume, last, 10, budget=2) == [1, 5]
    assert select_for_client([1, 5], range(8), volume, last, 10, budget=0) == []


def test_select_defers_past_budget_to_the_next_update():
    volume = ProbeVolume((6, 1, 1))
    last = np.full(6, -1)
    changed = set(range(6))
    sent = []
    for seq in range(3):
        ids = select_for_client(sorted(changed), range(6), volume, last, seq, budget=2)
        last[ids] = seq
        changed -= set(ids)
        changed.add(0)  # probe 0 changes again every update
        sent.append(ids)
    # the deferred probes were never sent, so they outrank the fresh change to 0
    assert sent == [[0, 1], [2, 3], [4, 5]]
    assert select_for_client(sorted(changed), range(6), volume, last, 3, budget=2) == [0]


def _select_reference(changed, pvs, volume, last_sent_seq, current_seq, budget):
    """The selection rule one probe at a time, in Python integers."""
    visible = set(int(p) for p in pvs)
    ids = [p for p in sorted(set(int(p) for p in changed)) if p in visible and volume.active[p]]
    ids.sort(key=lambda p: (-(current_seq - int(last_sent_seq[p])), p))
    return ids[:budget]


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(1, 40),
    st.integers(-1, 6),
    st.integers(0, 45),  # above 40, no probe is cut
    st.booleans(),
)
def test_select_matches_scalar_reference(data, n, seq_hi, budget, pvs_as_range):
    active = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    volume = ProbeVolume((n, 1, 1), active=active)
    ids = st.integers(0, n - 1)
    changed = data.draw(st.lists(ids, max_size=2 * n))  # duplicates, any order
    if pvs_as_range:
        lo = data.draw(ids)
        pvs = range(lo, data.draw(st.integers(lo, n)))
    else:
        pvs = data.draw(st.lists(ids, max_size=2 * n))
    # a narrow range of sequence numbers, so that staleness ties are common
    last = np.array(data.draw(st.lists(st.integers(-1, seq_hi), min_size=n, max_size=n)))
    current = seq_hi + 1
    got = select_for_client(changed, pvs, volume, last, current, budget)
    assert got == _select_reference(changed, pvs, volume, last, current, budget)
    assert all(type(p) is int for p in got)


@pytest.mark.parametrize("bad", [-1, -8, 8, 9])
@pytest.mark.parametrize("where", ["changed", "pvs"])
def test_select_rejects_ids_outside_the_volume(bad, where):
    # a negative id would otherwise wrap to the end of the volume
    volume = ProbeVolume((2, 2, 2))
    ids = {"changed": [7], "pvs": [7]}
    ids[where] = [1, bad]
    with pytest.raises(IndexError):
        select_for_client(ids["changed"], ids["pvs"], volume, np.full(8, -1), 5, budget=8)


def test_select_rejects_negative_budget():
    volume = ProbeVolume((8, 1, 1))
    last = np.full(8, -1)
    with pytest.raises(ValueError):
        select_for_client([1, 2, 3], range(8), volume, last, 5, budget=-1)
