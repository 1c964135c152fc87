"""Point clouds: sampling recipes, weights, co-normals, serialization."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from nlpoisson.geometry import (
    _cell_weight,
    _fan_areas,
    _hull_volumes,
    _segment_weights,
    _simplex_cell_weights,
    boundary_weights,
    build_cloud,
    conormal,
    exact_fields,
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
    n = conormal("hemisphere2", q)
    assert np.allclose(n, [[0.5, 0.0, -SQ3 / 2.0]], atol=1e-14)
    q3 = np.array([[3**-0.5, 3**-0.5, 3**-0.5, 0.0]])
    n3 = conormal("hemisphere3", q3)
    assert np.allclose(n3, [[0.0, 0.0, 0.0, -1.0]], atol=1e-15)
    with pytest.raises(ValueError):
        conormal("hemisphere2", np.array([[0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_conormal_field(name, t):
    cloud = sample_case(name, t, 5)
    case = get_case(name)
    n = case.conormal(cloud.boundary)
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-12
    # tangent to the manifold: orthogonal to the ambient surface normal q
    assert np.abs((n * cloud.boundary).sum(axis=1)).max() < 1e-10


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
    u, f = exact_fields("hemisphere2", np.array([[0.0, 0.0, 1.0]]))
    assert u[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert f[0] == pytest.approx(2.0, abs=1e-15)
    q = np.array([[SQ3 / 2.0, 0.0, 0.5]])
    u, _ = exact_fields("hemisphere2", q)
    assert u[0] == pytest.approx(-1.0 / 12.0, abs=1e-15)
    x3 = np.array([[3**-0.5, 3**-0.5, 3**-0.5, 0.0]])
    u3, f3 = exact_fields("hemisphere3", x3)
    assert u3[0] == pytest.approx(3.0**-1.5, rel=1e-14)
    assert f3[0] == pytest.approx(15.0 * 3.0**-1.5, rel=1e-14)
    with pytest.raises(ValueError):
        exact_fields("hemisphere2", np.array([[2.0, 0.0, 0.0]]))


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
    frames = np.tile(np.array([[1.0, 0, 0], [0, 1.0, 0]]), (len(pts), 1, 1))
    w = _simplex_cell_weights(pts, frames, k=12, seed=0)
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
    w = _cell_weight(local, spacing=0.05, seed=7)
    assert np.isfinite(w) and w >= 0.0


def _qhull_windows(points, frames, k, seed):
    """Per-point projected windows and their Qhull cell weights."""
    dists, idx = cKDTree(points).query(points, k=k + 1)
    local = np.stack([(points[idx[i]] - points[i]) @ frames[i].T
                      for i in range(len(points))])
    ref = np.array([_cell_weight(local[i], float(dists[i, 1]), seed + i)
                    for i in range(len(points))])
    return local, ref


def _on_window_hull(local):
    """Windows whose row 0 lies on their convex hull: an angular gap >= pi."""
    c = local[:, 1:]
    ang = np.sort(np.arctan2(c[:, :, 1], c[:, :, 0]), axis=1)
    gaps = np.diff(ang, axis=1, append=ang[:, :1] + 2.0 * np.pi)
    return gaps.max(axis=1) >= np.pi


def _planar(xy):
    pts = np.column_stack([xy, np.zeros(len(xy))])
    return pts, np.tile(np.eye(3)[:2], (len(pts), 1, 1))


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
    case = get_case(name)
    cloud = sample_case(name, t, seed)
    if name == "hemisphere2":
        points, k = cloud.points, case.k_volume
        frames = case.surface_frames(points)
    else:
        points, k = cloud.boundary, case.k_boundary
        frames = case.boundary_frames(points)
    local, ref = _qhull_windows(points, frames, k, seed)
    area, degenerate = _fan_areas(local)
    assert not degenerate.any()
    assert _on_window_hull(local).any() == (name == "hemisphere2")
    assert np.all(np.abs(area / 3.0 - ref) <= 1e-13 * ref)
    w = _simplex_cell_weights(points, frames, k, seed)
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
        frames = case.surface_frames(points)
        local, ref = _qhull_windows(points, frames, case.k_volume, seed)
        volume, degenerate = _hull_volumes(local)
        assert not degenerate.any()
        assert np.all(np.abs(volume / 4.0 - ref) <= 1e-13 * ref)
        w = _simplex_cell_weights(points, frames, case.k_volume, seed)
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
    points, frames = _planar(make())
    local, ref = _qhull_windows(points, frames, 12, 5)
    _, degenerate = _fan_areas(local)
    if make is _duplicated_neighbour:
        dists = cKDTree(points).query(points, k=2)[0][:, 1]
        must = dists <= 1e-12
        assert must.sum() == 4
    else:
        must = np.ones(len(points), dtype=bool)
    assert np.all(degenerate[must])
    w = _simplex_cell_weights(points, frames, 12, 5)
    if make is _duplicated_neighbour:
        kept = np.delete(np.arange(len(points)), 60)   # row 60 copies row 17
        local, ref_kept = _qhull_windows(points[kept], frames[kept], 12, 5)
        ref[kept] = ref_kept
        ref[[17, 60]] = ref_kept[17] / 2
        degenerate[kept] = _fan_areas(local)[1]
        degenerate[60] = degenerate[17]
    assert np.array_equal(w[degenerate], ref[degenerate])
    assert np.all(np.abs(w - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("name,t", [("hemisphere2", 10), ("hemisphere3", 4)])
@pytest.mark.parametrize("copies", [1, 2])
def test_duplicated_points_share_one_star(name, t, copies):
    """Exact copies of point 37 split its star: the total weight and every
    other point's weight are those of the cloud without the copies."""
    cloud = sample_case(name, t, 1)
    plain = volume_weights(cloud)
    cloud.points = np.insert(cloud.points, [38] * copies, cloud.points[37],
                             axis=0)
    w = volume_weights(cloud)
    shared = slice(37, 38 + copies)
    assert np.array_equal(np.delete(w, shared), np.delete(plain, 37))
    assert np.all(w[shared] == plain[37] / (copies + 1))
    assert abs(w.sum() - plain.sum()) <= 1e-12 * plain.sum()


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
    L = _segment_weights(q)
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
    assert np.array_equal(_segment_weights(q), _segment_weights_loop(q))


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
