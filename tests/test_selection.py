import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.selection import (
    RAY_EPS,
    CameraPose,
    LayoutMismatchError,
    SceneGeometry,
    SelectionParams,
    cage_probes,
    detect_changed,
    pvs_probes,
    pvs_rays,
    select_for_client,
)
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume

INF = math.inf


# --- scalar reference ray cast --------------------------------------------------
#
# One ray against one primitive at a time, in plain Python floats, with the
# slab and Moller-Trumbore formulas written out in the order numpy evaluates
# them (a 3-term sum adds left to right; `np.cross` forms a1*b2 - a2*b1).


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _ref_box(o, d, lo, hi):
    """(t, normal) of one ray against one box; t is inf on a miss."""
    inv = [1.0 / (RAY_EPS if abs(c) < RAY_EPS else c) for c in d]
    tmin, tmax = [], []
    for a in range(3):
        t1 = (lo[a] - o[a]) * inv[a]
        t2 = (hi[a] - o[a]) * inv[a]
        tmin.append(min(t1, t2))
        tmax.append(max(t1, t2))
    near_ax = max(range(3), key=lambda a: tmin[a])  # first of the ties
    far_ax = min(range(3), key=lambda a: tmax[a])
    tnear, tfar = tmin[near_ax], tmax[far_ax]
    valid = tnear <= tfar + RAY_EPS
    t_entry = tnear if valid and tnear > RAY_EPS else INF
    t_exit = tfar if valid and tnear <= RAY_EPS and tfar > RAY_EPS else INF
    t = min(t_entry, t_exit)
    axis = near_ax if t_entry != INF else far_ax
    normal = [0.0, 0.0, 0.0]
    normal[axis] = -1.0 if d[axis] > 0 else 1.0
    return t, tuple(normal)


def _ref_triangle(o, d, tri):
    v0, v1, v2 = tri
    e1, e2 = _sub(v1, v0), _sub(v2, v0)
    pvec = _cross(d, e2)
    det = _dot(e1, pvec)
    ok = abs(det) > RAY_EPS
    inv_det = 1.0 / det if ok else 0.0
    tvec = _sub(o, v0)
    u = _dot(tvec, pvec) * inv_det
    qvec = _cross(tvec, e1)
    v = _dot(d, qvec) * inv_det
    t = _dot(e2, qvec) * inv_det
    ok = ok and u >= -RAY_EPS and v >= -RAY_EPS and u + v <= 1.0 + RAY_EPS and t > RAY_EPS
    n = _cross(e1, e2)
    length = max(math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]), 1e-30)
    n = tuple(c / length for c in n)
    if _dot(n, d) > 0:
        n = tuple(-c for c in n)
    return (t if ok else INF), n


def reference_raycast(origins, directions, boxes, triangles):
    """Nearest hit per ray: boxes in order, then triangles; a later primitive
    wins only when strictly closer."""
    d_all = np.atleast_2d(directions).tolist()
    o_all = np.atleast_2d(origins).tolist()
    hit, ts, points, normals = [], [], [], []
    for i, d in enumerate(d_all):
        o = o_all[i if len(o_all) > 1 else 0]
        best_t, best_n = INF, (0.0, 0.0, 0.0)
        for lo, hi in np.asarray(boxes).tolist():
            t, n = _ref_box(o, d, lo, hi)
            if t < best_t:
                best_t, best_n = t, n
        for tri in np.asarray(triangles).tolist():
            t, n = _ref_triangle(o, d, tri)
            if t < best_t:
                best_t, best_n = t, n
        h = best_t != INF
        s = best_t if h else 0.0
        hit.append(h)
        ts.append(best_t)
        points.append([o[a] + d[a] * s for a in range(3)])
        normals.append(best_n)
    return np.array(hit), np.array(ts), np.array(points), np.array(normals)


# --- ray-cast oracle -------------------------------------------------------------


TINY = (0.0, -0.0, 1e-9, -1e-9, 1e-7, -5e-7, 9.99e-7, -9.99e-7, RAY_EPS, -RAY_EPS)


def _scene_case(seed: int, shared_origin: bool):
    """Random boxes and triangles plus rays aimed at their awkward spots."""
    rng = np.random.default_rng(seed)
    nb, nt = rng.integers(0, 6, size=2)
    lo = rng.uniform(-4.0, 4.0, size=(nb, 3))
    size = rng.uniform(0.05, 3.0, size=(nb, 3))
    size[rng.random((nb, 3)) < 0.1] = 0.0  # flat boxes
    boxes = np.stack([lo, lo + size], axis=1)
    tris = rng.uniform(-4.0, 4.0, size=(nt, 3, 3))
    if nt and rng.random() < 0.3:
        tris[0, 2] = tris[0, 0] + 1e-3 * (tris[0, 1] - tris[0, 0])  # sliver

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
    for tri in tris:
        w = rng.dirichlet(np.ones(3))
        inside = w @ tri
        targets.append(tri[rng.integers(3)][None])  # through a vertex
        targets.append((0.5 * (tri[0] + tri[1]) + 1e-7 * (tri[0] + tri[1] - 2 * tri[2]))[None])  # just off an edge
        targets.append(inside[None])
    dirs = np.concatenate(targets) - origin
    axis = np.eye(3)[rng.integers(3, size=4)] * rng.choice([-1.0, 1.0], size=(4, 1))
    tiny = dirs[rng.integers(len(dirs), size=6)].copy()
    small = rng.random(tiny.shape) < 0.3
    tiny[small] = rng.choice(TINY, size=int(small.sum()))
    tiny[:, rng.integers(3)] = rng.choice(TINY, size=len(tiny))
    for tri in tris[:2]:  # nearly parallel to a triangle's plane
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        along = (tri[1] - tri[0]) + rng.choice([-1.0, 1.0]) * 1e-7 * n
        tiny = np.concatenate([tiny, along[None]])
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
    return boxes, tris, origins, dirs


def _assert_matches_reference(scene, origins, dirs):
    hit, t, points, normals = scene.raycast(origins, dirs)
    ref_hit, ref_t, ref_points, ref_normals = reference_raycast(
        origins, dirs, scene.boxes, scene.triangles
    )
    np.testing.assert_array_equal(hit, ref_hit)
    np.testing.assert_array_equal(t, ref_t)
    np.testing.assert_array_equal(points, ref_points)
    np.testing.assert_array_equal(normals[hit], ref_normals[hit])
    assert not normals[~hit].any()
    return hit, t


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_raycast_matches_scalar_reference(seed, shared_origin):
    boxes, tris, origins, dirs = _scene_case(seed, shared_origin)
    _assert_matches_reference(SceneGeometry(boxes, tris), origins, dirs)


def test_raycast_reference_cases_hit():
    # the generated cases do exercise hits, on both primitive kinds
    box_hits = triangle_hits = 0
    for seed in range(20):
        boxes, tris, origins, dirs = _scene_case(seed, seed % 2 == 0)
        hit, t = _assert_matches_reference(SceneGeometry(boxes, tris), origins, dirs)
        t_boxes = SceneGeometry(boxes, None).raycast(origins, dirs)[1]
        box_hits += int((hit & (t == t_boxes)).sum())
        triangle_hits += int((hit & (t != t_boxes)).sum())
    assert box_hits > 50 and triangle_hits > 20


def _tangent_rays(seed: int):
    """Rays that pass just outside a box's bounding sphere past one of its
    corners, across the diagonal, within the slab test's RAY_EPS tolerance."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-4.0, 0.0, size=(6, 3))
    boxes = np.stack([lo, lo + rng.uniform(0.2, 3.0, size=(6, 3))], axis=1)
    origins, dirs = [], []
    for lo, hi in boxes:
        c = (lo + hi) / 2.0
        w = (hi - c) / np.linalg.norm(hi - c)
        for push in rng.uniform(0.05, 0.5, size=6) * RAY_EPS:
            d = rng.normal(size=3)
            d -= (d @ w) * w
            d /= np.linalg.norm(d)
            origins.append(hi + push * w - 5.0 * d)
            dirs.append(d)
    return boxes, None, np.array(origins), np.array(dirs)


@pytest.mark.parametrize("case", ["random", "tangent"])
def test_cull_keeps_every_accepted_pair(case):
    # the exact tests on every (ray, primitive) pair against the cull's pairs
    outside = 0
    for seed in range(40):
        if case == "random":
            boxes, tris, origins, dirs = _scene_case(seed, seed % 2 == 0)
        else:
            boxes, tris, origins, dirs = _tangent_rays(seed)
        scene = SceneGeometry(boxes, tris)
        d = np.atleast_2d(dirs)
        o = np.broadcast_to(np.atleast_2d(origins), d.shape)
        safe_d = np.where(np.abs(d) < RAY_EPS, RAY_EPS, d)
        nb = len(scene.boxes)
        m = nb + len(scene.triangles)
        ray, prim = np.divmod(np.arange(len(d) * m), m)
        t, _ = scene._intersect(o[ray], d[ray], safe_d[ray], prim)
        accepted = np.isfinite(t).reshape(len(d), m)
        kept = np.zeros_like(accepted)
        kept[scene._cull(o, safe_d)] = True
        assert not (accepted & ~kept).any()
        assert kept[:, nb:].all()  # triangles are not culled
        if case == "tangent":
            # accepted box pairs whose line misses the bare bounding sphere
            u = d / np.linalg.norm(d, axis=1, keepdims=True)
            rel = scene._centres[None] - o[:, None]
            along = np.sum(rel * u[:, None], axis=2)
            perp = np.linalg.norm(rel - along[..., None] * u[:, None], axis=2)
            outside += int((accepted[:, :nb] & (perp > scene._radii * (1 + 1e-9))).sum())
    if case == "tangent":
        assert outside > 100


def test_raycast_edge_cases():
    box = [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]
    scene = SceneGeometry(box)
    o = np.array([-1.0, 0.5, 0.5])
    hit, t, points, normals = scene.raycast(o, np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    assert list(hit) == [True, False]  # a box behind the origin is missed
    assert t[0] == 1.0 and np.array_equal(normals[0], [-1.0, 0.0, 0.0])
    # from inside, the ray hits the exit wall
    hit, t, _, normals = scene.raycast(np.array([0.5, 0.5, 0.5]), np.array([0.0, 0.0, 2.0]))
    assert hit[0] and t[0] == 0.25 and np.array_equal(normals[0], [0.0, 0.0, -1.0])
    # entering through the corner (1, 1, 1)
    hit, t, _, _ = scene.raycast(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0, -1.0]))
    assert hit[0] and t[0] == 1.0
    # equally near hits go to the lower primitive: box a is entered through
    # its x wall, box b through its y wall, both at t = 1
    a = ((0.0, -5.0, 0.0), (1.0, 1.0, 1.0))
    b = ((-5.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    o2, d2 = np.array([-1.0, -1.0, 0.5]), np.array([[1.0, 1.0, 0.0]])
    for order, normal in (((a, b), [-1.0, 0.0, 0.0]), ((b, a), [0.0, -1.0, 0.0])):
        hit, t, _, normals = SceneGeometry(order).raycast(o2, d2)
        assert t[0] == 1.0 and np.array_equal(normals[0], normal)
    # an empty scene misses everything
    hit, t, points, normals = SceneGeometry().raycast(o, np.array([[1.0, 0.0, 0.0]]))
    assert not hit.any() and t[0] == INF and np.array_equal(points[0], o)


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


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(1, 5)] * 3),
    st.integers(0, 2**20),
)
def test_cage_probes_match_scalar_reference(dims, seed):
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
    assert cage_probes(points, volume).tolist() == expected

def test_pvs_covers_every_hit_cage():
    volume, scene, poses = _pvs_scene(seed=3)
    rng = np.random.default_rng(0)
    active = rng.random(volume.probe_count) < 0.8
    volume = ProbeVolume(volume.dims, active=active)
    params = SelectionParams(sphere_rays=512, raster_cols=24, raster_rows=16)
    for pose in poses:
        pvs = pvs_probes(pose, scene, volume, params)
        assert volume.active[pvs].all()
        hit, _, points, _ = scene.raycast(pose.position, pvs_rays(pose, params))
        assert hit.any()
        cages = np.unique(cage_probes(points[hit], volume))
        assert np.isin(cages[active[cages]], pvs).all()
        own = cage_probes(pose.position, volume)[0]
        assert np.isin(own[active[own]], pvs).all()


# --- change detection --------------------------------------------------------------


def _atlases(kind, count=6):
    rng = np.random.default_rng(11)
    a = ProbeAtlas(kind, count)
    if kind is AtlasKind.COLOR:
        a.texels[...] = rng.integers(0, 1 << 30, size=a.texels.shape)
    else:
        a.texels[...] = np.float16(1.5).view(np.uint16)
    return a, a.copy()


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


# --- budgeted selection ---------------------------------------------------------------


def test_select_orders_by_staleness_then_id():
    volume = ProbeVolume((8, 1, 1), active=[True] * 7 + [False])
    last = np.array([5, -1, 3, 3, 9, -1, 1, -1])
    ids = select_for_client([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 7], volume, last, 10)
    assert ids == [1, 5, 6, 2, 3, 0, 4]  # never sent first; 7 is inactive
    # only probes both changed and potentially visible are offered
    assert select_for_client([3, 2, 4, 4], [4, 2, 0], volume, last, 10) == [2, 4]
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


def _select_reference(changed, pvs, volume, last_sent_seq, current_seq, budget=None):
    """The selection rule one probe at a time, in Python integers."""
    visible = set(int(p) for p in pvs)
    ids = [p for p in sorted(set(int(p) for p in changed)) if p in visible and volume.active[p]]
    ids.sort(key=lambda p: (-(current_seq - int(last_sent_seq[p])), p))
    return ids if budget is None else ids[:budget]


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(1, 40),
    st.integers(-1, 6),
    st.one_of(st.none(), st.integers(0, 45)),
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


def test_select_rejects_negative_budget():
    volume = ProbeVolume((8, 1, 1))
    last = np.full(8, -1)
    with pytest.raises(ValueError):
        select_for_client([1, 2, 3], range(8), volume, last, 5, budget=-1)
