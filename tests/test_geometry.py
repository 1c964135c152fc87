"""Point clouds: sampling recipes, weights, co-normals, serialization."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from nlpoisson import geometry
from nlpoisson.geometry import (
    T_MIN,
    _COINCIDENT_RTOL,
    _TIE_RTOL,
    _WINDOW_SIZE,
    PointCloud,
    _cell_weight,
    _fan_areas,
    _hull_volumes,
    _simplex_cell_weights,
    _tangent_frames,
    boundary_weights,
    build_cloud,
    get_case,
    load_cloud_csv,
    sample_case,
    save_cloud_csv,
    volume_weights,
)

SQ3 = np.sqrt(3.0)


def test_counts_and_delta():
    c = sample_case("hemisphere2", 5, 1)
    assert (c.n0, c.m0) == (40, 15)
    assert c.delta == pytest.approx(np.sqrt(0.2), rel=1e-15)
    c3 = sample_case("hemisphere3", 4, 1)
    assert (c3.n0, c3.m0) == (256, 64)


def test_unknown_case_and_small_t():
    with pytest.raises(ValueError):
        sample_case("klein_bottle", 5, 1)
    with pytest.raises(ValueError):
        sample_case("hemisphere2", 3, 1)


@pytest.mark.parametrize("t", [5.5, 5.0, True, "5"], ids=repr)
def test_non_integral_t_is_refused(t):
    """A resolution is integral: a float, even a whole one, a bool or a
    string is refused with a ValueError naming it, before any sampling."""
    with pytest.raises(ValueError, match=rf"t = {t!r}"):
        sample_case("hemisphere2", t, 1)


def test_numpy_integer_t_samples_as_int():
    a = sample_case("hemisphere2", np.int64(6), 1)
    b = sample_case("hemisphere2", 6, 1)
    assert np.array_equal(a.points, b.points) and a.delta == b.delta


def test_determinism_bit_exact():
    a = build_cloud("hemisphere2", 8, 42)
    b = build_cloud("hemisphere2", 8, 42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.L, b.L)
    c = build_cloud("hemisphere2", 8, 43)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("name,t", [("hemisphere2", 7), ("hemisphere3", 4)])
def test_points_on_manifold(name, t):
    case = get_case(name)
    cloud = sample_case(name, t, 3)
    norms = (cloud.points**2).sum(axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    q = cloud.boundary
    if name == "hemisphere2":
        assert np.abs(q[:, 0] ** 2 + q[:, 1] ** 2 - 0.75).max() < 1e-12
        assert np.abs(q[:, 2] - 0.5).max() == 0.0
    else:
        assert np.abs(q[:, 3]).max() == 0.0
    # boundary aliases the tail of the point list exactly
    assert np.array_equal(q, cloud.points[cloud.n0 - cloud.m0:])


def test_conormal_values():
    q = np.array([[SQ3 / 2.0, 0.0, 0.5]])
    n = get_case("hemisphere2").conormal(q)
    assert np.allclose(n, [[0.5, 0.0, -SQ3 / 2.0]], atol=1e-14)
    q3 = np.array([[3**-0.5, 3**-0.5, 3**-0.5, 0.0]])
    n3 = get_case("hemisphere3").conormal(q3)
    assert np.allclose(n3, [[0.0, 0.0, 0.0, -1.0]], atol=1e-15)


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_conormal_field(name, t):
    cloud = sample_case(name, t, 5)
    case = get_case(name)
    n = case.conormal(cloud.boundary)
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-12
    # tangent to the manifold: orthogonal to the ambient surface normal q
    assert np.abs((n * cloud.boundary).sum(axis=1)).max() < 1e-10
    # zero components are +0.0, as written to cloud.csv
    assert not np.any((n == 0.0) & np.signbit(n))


def _windows(points, m):
    """Each point's k-NN window for an m-dimensional patch as
    displacements from it, (n, k+1, d)."""
    k = min(_WINDOW_SIZE[m], len(points) - 1)    # as the builder caps it
    idx = cKDTree(points).query(points, k=k + 1)[1]
    return points[idx] - points[:, None, :]


def _frame_tilt(points, m, normals):
    """Worst |frame . nu| of the estimated frames over the exact normals
    nu (rows of each array in normals), after checking orthonormality."""
    frames = _tangent_frames(_windows(points, m), m)
    gram = frames @ frames.transpose(0, 2, 1)
    assert np.abs(gram - np.eye(m)).max() < 1e-12
    return max(np.abs(frames @ nu[:, :, None]).max() for nu in normals)


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_tangent_frames(name, t):
    """The windows' principal directions approach the exact tangent
    spaces as the cloud refines from t.  On the unit sphere the normal
    at x is x; hemisphere3's boundary 2-sphere also has the normal e_d."""
    case = get_case(name)
    if name == "hemisphere2":
        tilt = [_frame_tilt(p, 2, [p])
                for p in (sample_case(case, s, 1).points
                          for s in (t, 2 * t, 4 * t))]
        assert tilt[0] > tilt[1] > tilt[2] and tilt[2] <= 0.1
        return
    volume, boundary = [], []
    for s in (t, 2 * t):
        cloud = sample_case(case, s, 1)
        p, q = cloud.points, cloud.boundary
        volume.append(_frame_tilt(p, 3, [p]))
        e_d = np.tile(np.eye(4)[-1], (len(q), 1))
        boundary.append(_frame_tilt(q, 2, [q, e_d]))
    assert volume[0] > volume[1] and boundary[0] > boundary[1]


@pytest.mark.parametrize("name,t", [("hemisphere2", 20), ("hemisphere3", 6)])
def test_weights_similarity_equivariant(name, t):
    """Moving a cloud by x -> s Q x + b scales A by s^m and L by s^(m-1):
    the weights read nothing but the points."""
    cloud = sample_case(name, t, 1)
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((cloud.d, cloud.d)))
    s, b = 2.5, rng.standard_normal(cloud.d)
    moved = replace(cloud, points=s * cloud.points @ Q.T + b)
    for weights, power in ((volume_weights, cloud.m),
                           (boundary_weights, cloud.m - 1)):
        w, w_moved = weights(cloud), weights(moved)
        assert np.all(np.abs(w_moved - s**power * w) <= 1e-12 * s**power * w)


@pytest.mark.parametrize("name,t", [("hemisphere2", 20), ("hemisphere3", 6)])
def test_cell_weights_ignore_the_window_batch(name, t, monkeypatch):
    """The windows are projected and walked in blocks of _WINDOW_BATCH, and
    every block size gives the same weights bit for bit: hemisphere2's 2-D
    volume windows, hemisphere3's 3-D volume and 2-D boundary windows."""
    cloud = sample_case(name, t, 1)
    windows = [(points, m) for points, m in ((cloud.points, cloud.m),
                                             (cloud.boundary, cloud.m - 1))
               if m > 1]
    wants = [_simplex_cell_weights(points, m) for points, m in windows]
    for (points, m), want in zip(windows, wants):
        for batch in (1, 7, 256, 1024, len(points)):
            monkeypatch.setattr(geometry, "_WINDOW_BATCH", batch)
            assert np.array_equal(_simplex_cell_weights(points, m), want), batch


def test_conormal_smoothness():
    cloud = sample_case("hemisphere2", 20, 2)
    case = get_case("hemisphere2")
    q = cloud.boundary
    n = case.conormal(q)
    diffs = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    ndiffs = np.linalg.norm(n[:, None, :] - n[None, :, :], axis=2)
    mask = (diffs > 0) & (diffs <= cloud.delta)
    assert np.all(ndiffs[mask] <= 3.0 * diffs[mask])


def test_exact_fields_values():
    case, case3 = get_case("hemisphere2"), get_case("hemisphere3")
    pole = np.array([[0.0, 0.0, 1.0]])
    u, f = case.exact_u(pole), case.forcing(pole)
    assert u[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert f[0] == pytest.approx(2.0, abs=1e-15)
    q = np.array([[SQ3 / 2.0, 0.0, 0.5]])
    u = case.exact_u(q)
    assert u[0] == pytest.approx(-1.0 / 12.0, abs=1e-15)
    x3 = np.array([[3**-0.5, 3**-0.5, 3**-0.5, 0.0]])
    u3, f3 = case3.exact_u(x3), case3.forcing(x3)
    assert u3[0] == pytest.approx(3.0**-1.5, rel=1e-14)
    assert f3[0] == pytest.approx(15.0 * 3.0**-1.5, rel=1e-14)


def test_exact_u_weighted_mean_small():
    for t, tol in ((10, 2e-2), (30, 5e-3)):
        cloud = build_cloud("hemisphere2", t, 1)
        u = get_case("hemisphere2").exact_u(cloud.points)
        assert abs(float(u @ cloud.A) / cloud.A.sum()) < tol


def test_flat_patch_cell_weights():
    """Dense planar patch: interior cells carry the analytic area per point.

    A triangular lattice tiles the plane with 6 triangles per interior
    vertex and no cocircular ambiguity, so the cell rule must reproduce
    the per-point area h * (sqrt(3)/2 h) away from the patch edges.
    """
    h = 0.05
    rows = []
    for j in range(22):
        x0 = 0.5 * h if j % 2 else 0.0
        xs = x0 + h * np.arange(22)
        rows.append(np.column_stack(
            [xs, np.full(22, j * h * SQ3 / 2.0), np.zeros(22)]))
    pts = np.concatenate(rows)
    w = _simplex_cell_weights(pts, m=2)
    cell = h * h * SQ3 / 2.0
    lo, hi = 3 * h, 18 * h
    interior = ((pts[:, 0] > lo) & (pts[:, 0] < hi)
                & (pts[:, 1] > lo) & (pts[:, 1] < hi))
    assert interior.sum() > 100
    assert np.all(np.abs(w[interior] - cell) <= 0.2 * cell)


def test_degenerate_collinear_perturbation():
    local = np.zeros((21, 2))
    local[:, 0] = np.linspace(0.0, 1.0, 21)
    local[0] = [0.5, 0.0]
    w = _cell_weight(local)
    assert np.isfinite(w) and w >= 0.0


def _projected_windows(points, m):
    """Per-point windows projected on their principal directions."""
    rel = _windows(points, m)
    frames = _tangent_frames(rel, m)
    return np.stack([rel[i] @ frames[i].T for i in range(len(points))])


def _qhull_windows(points, m):
    """Per-point projected windows and their Qhull cell weights."""
    local = _projected_windows(points, m)
    return local, np.array([_cell_weight(window) for window in local])


def _on_window_hull(local):
    """Windows whose row 0 lies on their convex hull: an angular gap >= pi."""
    c = local[:, 1:]
    ang = np.sort(np.arctan2(c[:, :, 1], c[:, :, 0]), axis=1)
    gaps = np.diff(ang, axis=1, append=ang[:, :1] + 2.0 * np.pi)
    return gaps.max(axis=1) >= np.pi


def _planar(xy):
    return np.column_stack([xy, np.zeros(len(xy))])


@pytest.mark.parametrize("name,t,seed", [
    ("hemisphere2", 10, 1), ("hemisphere2", 10, 2), ("hemisphere2", 10, 3),
    ("hemisphere2", 40, 1), ("hemisphere2", 40, 2), ("hemisphere2", 40, 3),
    ("hemisphere3", 8, 1),
])
def test_fan_walk_matches_qhull_stars(name, t, seed):
    """The batched fan walk reproduces every per-point Qhull star.

    hemisphere2 volume windows include points on their window's hull
    (open fans near the cap's rim); hemisphere3 boundary windows lie on
    a closed 2-sphere, so every fan closes.  No window of these clouds
    needs the Qhull fallback.
    """
    cloud = sample_case(name, t, seed)
    points = cloud.points if name == "hemisphere2" else cloud.boundary
    local, ref = _qhull_windows(points, 2)
    area, degenerate = _fan_areas(local)
    assert not degenerate.any()
    assert _on_window_hull(local).any() == (name == "hemisphere2")
    assert np.all(np.abs(area / 3.0 - ref) <= 1e-13 * ref)
    w = _simplex_cell_weights(points, 2)
    assert np.all(np.abs(w - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("t", [4, 8])
def test_inverted_hull_matches_qhull_stars(t):
    """One convex hull of the inverted window reproduces every per-point
    Qhull star of hemisphere3's 3-D volume windows, those whose centre
    lies on the window's hull included.  No window of these clouds needs
    the Qhull fallback."""
    case = get_case("hemisphere3")
    on_hull = False
    for seed in (1, 2, 3):
        points = sample_case(case, t, seed).points
        local, ref = _qhull_windows(points, 3)
        volume, degenerate = _hull_volumes(local)
        assert not degenerate.any()
        assert np.all(np.abs(volume / 4.0 - ref) <= 1e-13 * ref)
        w = _simplex_cell_weights(points, 3)
        assert np.all(np.abs(w - ref) <= 1e-13 * ref)
        on_hull = on_hull or any(0 in ConvexHull(x).vertices for x in local)
    assert on_hull


def _square_lattice():
    x, y = np.meshgrid(0.1 * np.arange(8), 0.1 * np.arange(8))
    return np.column_stack([x.ravel(), y.ravel()])


def _duplicated_neighbour():
    xy = np.random.default_rng(3).random((60, 2))
    return np.vstack([xy, xy[17], xy[40] + 1e-13])


def _collinear():
    return np.column_stack([np.linspace(0.0, 1.0, 30), np.zeros(30)])


def _twelve_points():
    # fewer points than a 2-D window holds, so k is capped at n - 1
    return np.random.default_rng(1).random((12, 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [_square_lattice, _duplicated_neighbour,
                                  _collinear])
def test_fan_walk_degenerate_windows_take_qhull(make):
    """Cocircular, coincident and collinear windows go to Qhull unchanged.

    Every window of the square lattice has four cocircular points in its
    star, a duplicated point has a neighbour at distance 0 (or 1e-13), and
    a collinear window has no triangle at all; each must be flagged and
    get exactly the Qhull weight, with no floating-point warning on the
    way.  The exact copy and its original share the star the original
    has in the cloud without the copy.
    """
    points = _planar(make())
    local, ref = _qhull_windows(points, 2)
    _, degenerate = _fan_areas(local)
    if make is _duplicated_neighbour:
        dists = cKDTree(points).query(points, k=2)[0][:, 1]
        must = dists <= 1e-12
        assert must.sum() == 4
    else:
        must = np.ones(len(points), dtype=bool)
    assert np.all(degenerate[must])
    w = _simplex_cell_weights(points, 2)
    if make is _duplicated_neighbour:
        kept = np.delete(np.arange(len(points)), 60)   # row 60 copies row 17
        local, ref_kept = _qhull_windows(points[kept], 2)
        ref[kept] = ref_kept
        ref[[17, 60]] = ref_kept[17] / 2
        degenerate[kept] = _fan_areas(local)[1]
        degenerate[60] = degenerate[17]
    assert np.array_equal(w[degenerate], ref[degenerate])
    assert np.all(np.abs(w - ref) <= 1e-13 * ref)


def _fan_walk_one(window):
    """Reference for _fan_areas: one window (k+1, 2) walked alone with
    plain 2-vectors, by the same s, tie and closure rules, counter-clockwise
    then clockwise."""
    c = [(float(u), float(v)) for u, v in window[1:]]
    r2 = [u * u + v * v for u, v in c]
    first = min(range(len(c)), key=lambda i: (r2[i], i))
    degenerate = r2[first] <= _COINCIDENT_RTOL**2 * max(r2)
    twice_area, steps, closed = 0.0, 0, False
    for sense in (1.0, -1.0):
        cur = first
        while not (closed or degenerate):
            a0, a1 = c[cur]
            cross = [sense * (a0 * v - a1 * u) for u, v in c]
            s = [(r2[i] - (a0 * u + a1 * v)) / cross[i] if cross[i] > 0.0
                 else np.inf for i, (u, v) in enumerate(c)]
            nxt = min(range(len(c)), key=lambda i: (s[i], i))
            s1 = s[nxt]
            if s1 == np.inf:
                break                                 # fan open this side
            s2 = min(s[:nxt] + s[nxt + 1:])
            twice_area += cross[nxt]
            steps += 1
            closed = nxt == first
            degenerate = ((s2 < np.inf and s2 - s1
                           <= _TIE_RTOL * max(1.0, abs(s1)))
                          or (not closed and steps >= len(window)))
            cur = nxt
    return 0.5 * twice_area, degenerate or steps == 0


@pytest.mark.parametrize("points,settled", [
    pytest.param(lambda t=t: sample_case("hemisphere2", t, 1).points, True,
                 id=f"hemisphere2-{t}") for t in (10, 40)] + [
    pytest.param(lambda make=make: _planar(make()), make is _twelve_points,
                 id=make.__name__)
    for make in (_square_lattice, _duplicated_neighbour, _collinear,
                 _twelve_points)])
def test_fan_walk_matches_one_window_walk(points, settled):
    """The batched fan walk gives every window's area and degenerate flag
    bit for bit as a walk of that window alone: closed fans inside the
    cap, open ones at its rim and on the hull of twelve points (windows of
    all the cloud), and the windows it hands to Qhull."""
    local = _projected_windows(points(), 2)
    area, degenerate = _fan_areas(local)
    ref = [_fan_walk_one(window) for window in local]
    assert np.array_equal(area, [a for a, _ in ref])
    assert np.array_equal(degenerate, [d for _, d in ref])
    if settled:
        assert not degenerate.any() and _on_window_hull(local).any()
    else:
        assert degenerate.any()


def _uneven_circle(n):
    """n points at sorted uniform angles on hemisphere2's rim circle."""
    phi = np.sort(2.0 * np.pi * np.random.default_rng(3).random(n))
    rho = SQ3 / 2.0
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                            np.full(n, 0.5)])


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4),
                                    ("circle", 40)])
@pytest.mark.parametrize("copies", [1, 2])
def test_duplicated_points_share_one_star(name, t, copies):
    """Exact copies of a point split its star (on the uneven circle of t
    points, its segment): the total weight and every other point's weight
    are those of the cloud without the copies."""
    if name == "circle":
        points, m, i = _uneven_circle(t), 1, 17
    else:
        cloud = sample_case(name, t, 1)
        points, m, i = cloud.points, cloud.m, 37
    plain = _simplex_cell_weights(points, m)
    w = _simplex_cell_weights(
        np.insert(points, [i + 1] * copies, points[i], axis=0), m)
    shared = slice(i, i + 1 + copies)
    assert np.array_equal(np.delete(w, shared), np.delete(plain, i))
    assert np.all(w[shared] == plain[i] / (copies + 1))
    assert abs(w.sum() - plain.sum()) <= 1e-12 * plain.sum()


@pytest.mark.parametrize("make", [_square_lattice, _duplicated_neighbour,
                                  _collinear, None],
                         ids=lambda make: make.__name__ if make else "hemisphere2")
def test_weights_read_no_seed(make):
    """A cloud's seed does not reach its weights, not even through Qhull's
    retry of a window it cannot triangulate (the collinear one).  A planar
    fixture is weighted as the volume of a 2-patch and as the boundary of
    a 3-patch, both 2-D windows; the cap cloud is hemisphere2's at t=10."""
    if make is None:
        flat = rim = sample_case("hemisphere2", 10, 5)
    else:
        points = _planar(make())
        flat = PointCloud(case_name="plane", m=2, t=T_MIN, seed=5, delta=1.0,
                          points=points, m0=3)
        rim = replace(flat, m=3, m0=len(points))
    (w5, L5), (w6, L6) = [(volume_weights(replace(flat, seed=seed)),
                           boundary_weights(replace(rim, seed=seed)))
                          for seed in (5, 6)]
    assert np.array_equal(w5, w6) and np.array_equal(L5, L6)


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_weights_read_no_case(name, t):
    """A cloud whose case is not registered is weighted bit for bit as
    the registered one: the weights read only the points and m."""
    cloud = sample_case(name, t, 1)
    stray = replace(cloud, case_name="unregistered")
    assert np.array_equal(volume_weights(stray), volume_weights(cloud))
    assert np.array_equal(boundary_weights(stray), boundary_weights(cloud))


def test_cell_weights_refuse_small_or_unknown_dimension():
    """Fewer than m + 2 points, or an m with no window size, is refused
    with the value named; m + 2 points are enough."""
    points = _uneven_circle(5)
    with pytest.raises(ValueError, match="m = 4"):
        _simplex_cell_weights(points, 4)
    with pytest.raises(ValueError, match="at least 4 points .* got 3"):
        _simplex_cell_weights(points[:3], 2)
    with pytest.raises(ValueError, match="at least 3 points .* got 2"):
        _simplex_cell_weights(np.vstack([points[:2], points[:1]]), 1)
    assert np.all(_simplex_cell_weights(points[:3], 1) > 0.0)


def test_volume_weights_cap_area():
    cloud = build_cloud("hemisphere2", 40, 1)
    assert np.all(cloud.A > 0)
    assert abs(cloud.A.sum() - np.pi) < 0.05 * np.pi
    for t in (10, 20):
        c = build_cloud("hemisphere2", t, 2)
        assert abs(c.A.sum() - np.pi) < 0.10 * np.pi


def test_volume_weights_shell_volume():
    cloud = build_cloud("hemisphere3", 6, 1)
    assert np.all(cloud.A > 0)
    assert abs(cloud.A.sum() - np.pi**2) < 0.10 * np.pi**2


def test_boundary_weights_equispaced_circle():
    m0 = 48
    phi = 2.0 * np.pi * np.arange(m0) / m0
    rho = SQ3 / 2.0
    q = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.full(m0, 0.5)])
    L = _simplex_cell_weights(q, 1)
    # equal chords; chord vs arc differs by O(1/m0^2)
    arc = 2.0 * np.pi * rho / m0
    assert np.abs(L - arc).max() < 2e-3 * arc
    assert np.abs(L - L[0]).max() < 1e-12


def _segment_weights_loop(q):
    """Per-point reference for _segment_weights."""
    m0 = len(q)
    kq = min(m0, 16)
    dists, idx = cKDTree(q).query(q, k=kq)
    L = np.empty(m0)
    for k in range(m0):
        u = q[idx[k, 1]] - q[k]
        d2 = None
        for jj in range(2, kq):
            if (q[idx[k, jj]] - q[k]) @ u < 0.0:
                d2 = dists[k, jj]
                break
        if d2 is None:
            rel = q - q[k]
            opposite = np.nonzero(rel @ u < 0.0)[0]
            if opposite.size:
                d2 = np.sqrt((rel[opposite] ** 2).sum(axis=1)).min()
            else:
                d2 = dists[k, 2]
        L[k] = 0.5 * (dists[k, 1] + d2)
    return L


def _cluster_on_circle():
    # 20 points bunched on a short arc: the arc's ends see no opposite
    # point among their 15 nearest, so the full scan finds one
    phi = np.concatenate([np.linspace(0.0, 0.05, 20),
                          np.linspace(1.0, 5.0, 6)])
    rho = SQ3 / 2.0
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                            np.full(phi.size, 0.5)])


def _ray():
    # either end of a straight run of points has no point behind it
    return np.column_stack([np.linspace(0.0, 1.0, 20) ** 2,
                            np.zeros(20), np.zeros(20)])


@pytest.mark.parametrize("q", [
    sample_case("hemisphere2", 8, 1).boundary,
    sample_case("hemisphere2", 40, 2).boundary,
    _cluster_on_circle(),
    _ray(),
], ids=["cap8", "cap40", "cluster", "ray"])
def test_segment_weights_match_loop(q):
    assert np.array_equal(_simplex_cell_weights(q, 1),
                          _segment_weights_loop(q))


def test_boundary_weights_modes():
    cloud = sample_case("hemisphere2", 8, 1)
    L = boundary_weights(cloud)
    assert np.all(L >= 0)
    tiny = sample_case("hemisphere2", 8, 1)
    tiny.m0 = 2
    with pytest.raises(ValueError):
        boundary_weights(tiny)


def test_boundary_weights_sphere_area():
    cloud = sample_case("hemisphere3", 10, 1)
    cloud.L = boundary_weights(cloud)
    assert abs(cloud.L.sum() - 4.0 * np.pi) < 0.05 * 4.0 * np.pi


def test_cloud_csv_roundtrip(tmp_path):
    cloud = build_cloud("hemisphere2", 6, 9)
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    assert back.case_name == cloud.case_name
    assert (back.t, back.seed, back.m0) == (cloud.t, cloud.seed, cloud.m0)
    assert back.delta == cloud.delta
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.A, cloud.A)
    assert np.array_equal(back.L, cloud.L)
    assert np.array_equal(back.normals, cloud.normals)
    # a horizon set to a NumPy scalar is stored, written and read as a float
    moved = replace(cloud, delta=np.float64(0.35))
    save_cloud_csv(moved, path)
    back = load_cloud_csv(path)
    assert type(back.delta) is float and back.delta == 0.35


def test_cloud_dimension_follows_points():
    """d is read from the points, as n0 is, so it cannot disagree with
    them."""
    cloud = sample_case("hemisphere2", 5, 1)
    assert cloud.d == 3
    assert replace(cloud, points=cloud.points[:, :2]).d == 2
    with pytest.raises(TypeError):
        replace(cloud, d=4)


def test_cloud_csv_dimension_matches_header(small_cloud, tmp_path):
    """A file whose d metadata disagrees with its header's coordinate
    columns is refused with both numbers named."""
    def edit(lines):
        return [l.replace(" d=3 ", " d=4 ") for l in lines]
    path = _edited_csv(small_cloud, tmp_path, edit)
    with pytest.raises(ValueError, match="d = 4, but the header has 3"):
        load_cloud_csv(path)


def test_cloud_csv_needs_weights(tmp_path):
    """An unweighted cloud is refused with the missing fields named, and
    nothing is written."""
    path = tmp_path / "cloud.csv"
    cloud = sample_case("hemisphere2", 5, 1)
    with pytest.raises(ValueError, match="no A, L, normals"):
        save_cloud_csv(cloud, path)
    weighted = replace(build_cloud("hemisphere2", 5, 1), normals=None)
    with pytest.raises(ValueError, match="no normals;"):
        save_cloud_csv(weighted, path)
    assert not path.exists()


def _edited_csv(cloud, tmp_path, edit):
    """Write cloud as CSV, pass its lines through edit, return the path."""
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return path


@pytest.mark.parametrize("drop, key", [("# case=", "case"), ("m0=", "m0")])
def test_cloud_csv_missing_metadata(small_cloud, tmp_path, drop, key):
    """Without its metadata line, or one key of it, a file is refused and
    the key named."""
    def edit(lines):
        if drop.startswith("#"):
            return [l for l in lines if not l.startswith(drop)]
        return [" ".join(tok for tok in l.split() if not tok.startswith(drop))
                + "\n" if l.startswith("# case=") else l for l in lines]
    path = _edited_csv(small_cloud, tmp_path, edit)
    with pytest.raises(ValueError, match=f"metadata key '{key}'"):
        load_cloud_csv(path)


def test_cloud_csv_boundary_row_count(small_cloud, tmp_path):
    """A file short of one boundary row does not load as a smaller m0."""
    path = _edited_csv(small_cloud, tmp_path, lambda lines: lines[:-1])
    with pytest.raises(ValueError, match="boundary rows"):
        load_cloud_csv(path)


def test_cloud_csv_boundary_coordinates(small_cloud, tmp_path):
    """A boundary row must repeat the coordinates of its tail point."""
    def edit(lines):
        kind, x0, rest = lines[-1].split(",", 2)
        return lines[:-1] + [",".join([kind, repr(float(x0) + 1e-9), rest])]
    path = _edited_csv(small_cloud, tmp_path, edit)
    with pytest.raises(ValueError, match="boundary coordinates"):
        load_cloud_csv(path)


@pytest.mark.parametrize("kind, row, field, value, column", [
    ("interior", 0, 1, "nan", "x1"),
    ("interior", 3, 3, "inf", "weight"),
    ("boundary", 2, 3, "inf", "weight"),
    ("boundary", 0, 6, "-inf", "n2"),
])
def test_cloud_csv_refuses_non_finite(small_cloud, tmp_path, kind, row, field,
                                      value, column):
    """A nan or inf coordinate, weight or co-normal is refused, with its row
    kind, row index within that kind and column named."""
    def edit(lines):
        at = [i for i, l in enumerate(lines) if l.startswith(kind + ",")][row]
        fields = lines[at].rstrip("\n").split(",")
        fields[field + 1] = value
        return lines[:at] + [",".join(fields) + "\n"] + lines[at + 1:]
    path = _edited_csv(small_cloud, tmp_path, edit)
    with pytest.raises(ValueError,
                       match=f"{kind} row {row}, column {column}: non-finite"):
        load_cloud_csv(path)
