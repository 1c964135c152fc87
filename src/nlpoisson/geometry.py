"""Test manifolds, point-cloud sampling, and quadrature weights.

Two parametrized benchmark manifolds are provided: the upper spherical cap
(z >= 1/2 on the unit sphere in R^3) and the upper half of the unit
3-sphere (w >= 0 in R^4).  Each case gives its exact solution, forcing
and rim co-normal as methods.  For each, this module draws seeded random
clouds with the prescribed interior/boundary counts, computes per-point
volume weights by local tangent-plane Delaunay cells, and computes
boundary weights (arc segments on the circle, triangle cells on the
boundary 2-sphere).  The weights read nothing but the points and the
dimension m of the patch they sample, which sets the k-NN window: not
the case, and not the seed.

A cell is 1/(m+1) of the Delaunay star of a point in its k-NN window,
projected on the window's top-m principal directions; on a curve it is
half the chords to the nearest point on either side.  On 2-D tangent
planes the stars come from a batched fan walk (gift wrapping around the
point, a block of windows in lockstep); on 3-D tangent spaces from one
convex hull per window of its neighbours inverted about the point.
Qhull triangulates the windows whose star neither can settle
(coincident or cospherical neighbours), one at a time, and joggles a
window it cannot triangulate as given (collinear or coplanar points).

Boundary points are stored as the tail of the point array: the k-th
boundary point aliases point ``n0 - m0 + k``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import factorial
from numbers import Integral

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree


@dataclass
class PointCloud:
    """Sampled manifold with quadrature weights.

    points holds all n0 samples; the final m0 rows lie on the boundary.
    A are volume weights (one per point), L boundary weights (one per
    boundary point), normals the outward unit co-normals at the boundary.
    """

    case_name: str
    m: int
    t: int
    seed: int
    delta: float
    points: np.ndarray
    m0: int
    A: np.ndarray | None = None
    L: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        # a NumPy scalar would be written as np.float64(...) by repr
        self.delta = float(self.delta)

    n0 = property(lambda self: self.points.shape[0])
    d = property(lambda self: self.points.shape[1])
    boundary = property(lambda self: self.points[self.n0 - self.m0:])


class ManifoldCase:
    """The cap {|x| = 1, x_d >= height} of the unit m-sphere in R^(m+1).

    Its boundary is the (m-1)-sphere of radius rho = sqrt(1 - height^2)
    in the plane x_d = height; the co-normal below follows from m and
    height.  Subclasses give the recipe: counts(t) -> (n0, m0),
    sample_points(rng, n0, m0), exact_u(x) and forcing(x), and the
    measures.
    """

    name: str
    m: int
    height: float
    volume: float
    boundary_measure: float
    rho = property(lambda self: np.sqrt(1.0 - self.height**2))

    def conormal(self, q: np.ndarray) -> np.ndarray:
        """Outward unit co-normal (height q'/rho, -rho) at boundary points
        q = (q', height) (rows)."""
        q = np.atleast_2d(q)
        n = np.empty_like(q)
        # + 0.0: a zero height gives 0.0, not -0.0, where q' is negative
        n[:, :-1] = q[:, :-1] * (self.height / self.rho) + 0.0
        n[:, -1] = -self.rho
        return n


class Hemisphere2(ManifoldCase):
    """Spherical cap x^2 + y^2 + z^2 = 1, z >= 1/2, circle boundary."""

    name = "hemisphere2"
    m = 2
    height = 0.5
    volume = np.pi                      # cap area 2*pi*(1 - 1/2)
    boundary_measure = property(lambda self: 2.0 * np.pi * self.rho)

    def counts(self, t):
        return t * t + 3 * t, 3 * t

    def sample_points(self, rng, n0, m0):
        B = rng.random((n0, 2))
        pts = np.empty((n0, 3))
        ni = n0 - m0
        z = (B[:ni, 1] + 1.0) / 2.0
        r = np.sqrt(1.0 - z * z)
        phi = 2.0 * np.pi * B[:ni, 0]
        pts[:ni, 0] = r * np.cos(phi)
        pts[:ni, 1] = r * np.sin(phi)
        pts[:ni, 2] = z
        bphi = 2.0 * np.pi * B[ni:, 0]
        pts[ni:, 0] = self.rho * np.cos(bphi)
        pts[ni:, 1] = self.rho * np.sin(bphi)
        pts[ni:, 2] = self.height
        return pts

    def exact_u(self, x):
        x = np.atleast_2d(x)
        return (x[:, 2] - 0.5) ** 2 - 1.0 / 12.0

    def forcing(self, x):
        x = np.atleast_2d(x)
        z = x[:, 2]
        return 6.0 * z * z - 2.0 * z - 2.0


class Hemisphere3(ManifoldCase):
    """Half 3-sphere x^2 + y^2 + z^2 + w^2 = 1, w >= 0, 2-sphere boundary."""

    name = "hemisphere3"
    m = 3
    height = 0.0
    volume = np.pi**2                   # half of the 3-sphere volume 2*pi^2
    boundary_measure = 4.0 * np.pi

    def counts(self, t):
        return 3 * t**3 + 4 * t**2, 4 * t**2

    def sample_points(self, rng, n0, m0):
        B = rng.random((n0, 3))
        pts = np.empty((n0, 4))
        ni = n0 - m0
        a, b, c = B[:ni, 0], B[:ni, 1], B[:ni, 2]
        ra, rc = np.sqrt(a), np.sqrt(1.0 - a)
        pts[:ni, 0] = ra * np.cos(2.0 * np.pi * b)
        pts[:ni, 1] = ra * np.sin(2.0 * np.pi * b)
        pts[:ni, 2] = rc * np.cos(np.pi * c)
        pts[:ni, 3] = rc * np.sin(np.pi * c)
        a, b = B[ni:, 0], B[ni:, 1]
        zb = 2.0 * b - 1.0
        rb = np.sqrt(1.0 - zb * zb)
        pts[ni:, 0] = rb * np.cos(2.0 * np.pi * a)
        pts[ni:, 1] = rb * np.sin(2.0 * np.pi * a)
        pts[ni:, 2] = zb
        pts[ni:, 3] = self.height
        return pts

    def exact_u(self, x):
        x = np.atleast_2d(x)
        return x[:, 0] * x[:, 1] * x[:, 2]

    def forcing(self, x):
        x = np.atleast_2d(x)
        return 15.0 * x[:, 0] * x[:, 1] * x[:, 2]


CASES: dict[str, ManifoldCase] = {
    "hemisphere2": Hemisphere2(),
    "hemisphere3": Hemisphere3(),
}


def get_case(name: str) -> ManifoldCase:
    try:
        return CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; available: {sorted(CASES)}") from None


T_MIN = 4  # smallest resolution parameter a cloud is sampled at


def sample_case(case: ManifoldCase | str, t: int, seed: int) -> PointCloud:
    """Draw the seeded point cloud for one resolution.

    delta = sqrt(1/t); the interior/boundary counts and coordinates follow
    the case recipe exactly, driven by a single uniform matrix from a
    PCG64 generator so identical (case, t, seed) reproduce bit-identical
    clouds.  t is integral, a NumPy integer included but not a bool.
    """
    if isinstance(case, str):
        case = get_case(case)
    if isinstance(t, bool) or not isinstance(t, Integral):
        raise ValueError(f"t = {t!r}: need an integral resolution")
    if t < T_MIN:
        raise ValueError(f"resolution parameter t must be >= {T_MIN}")
    n0, m0 = case.counts(t)
    points = case.sample_points(np.random.default_rng(seed), n0, m0)
    return PointCloud(case_name=case.name, m=case.m, t=t, seed=seed,
                      delta=float(np.sqrt(1.0 / t)), points=points, m0=m0)


def _simplex_measures(coords: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Unsigned measures of simplices given vertex coordinates (n, m)."""
    m = coords.shape[1]
    verts = coords[simplices]                     # (ns, m+1, m)
    edges = verts[:, 1:, :] - verts[:, :1, :]     # (ns, m, m)
    return np.abs(np.linalg.det(edges)) / factorial(m)


def _cell_weight(local: np.ndarray) -> float:
    """1/(m+1) of the total measure of Delaunay simplices incident to row 0.

    A window Qhull cannot triangulate (collinear or coplanar points) is
    retried once with Qhull's deterministic joggle (option QJ); the
    simplices are measured at the unjoggled points.
    """
    m = local.shape[1]
    try:
        tri = Delaunay(local)
    except QhullError:
        tri = Delaunay(local, qhull_options="QJ")
    incident = np.any(tri.simplices == 0, axis=1)
    if not np.any(incident):
        return 0.0
    total = _simplex_measures(tri.points, tri.simplices[incident]).sum()
    return float(total / (m + 1))


# A neighbour closer to the centre than this fraction of the window's
# radius counts as coincident with it, and two circumcentre parameters
# closer than this (relative) count as a tie between cocircular points;
# either sends the window to Qhull.
_COINCIDENT_RTOL = 1e-10
_TIE_RTOL = 1e-10
# Windows projected and walked together, whatever the size of the cloud.
# A step of the fan walk costs about 35 us on top of its per-window work,
# whatever the block's size, and a block takes 11-12 steps: at hemisphere2
# t=40 (1720 windows, one BLAS thread) blocks of 512 walk in 6.6 ms
# against 7.7 ms for 256 and 5.9 ms for 1024.  At k = 20 a block's windows
# take about 260 KB, and each of the walk's per-coordinate (block, k)
# arrays 80 KB; blocks of 1024 raised the benchmark's peak RSS.
_WINDOW_BATCH = 512
# Neighbours in the k-NN window of a point, by the dimension m of the
# patch; a cloud of n points caps it at n - 1.
_WINDOW_SIZE = {1: 15, 2: 20, 3: 50}


def _fan_areas(local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas of the Delaunay stars of row 0 in a batch of planar windows.

    local has shape (n, k+1, 2), row 0 of each window at the origin.  The
    star is gift-wrapped from the nearest neighbour, which is always a
    Delaunay neighbour.  From a star edge (0, a), the next triangle
    (0, a, c) is the one whose circumcentre a/2 + s/2 perp(a) lies lowest
    along the bisector of 0a, s = (|c|^2 - a.c) / cross(a, c), over the c
    on the swept side (cross > 0; both signs flip for the clockwise
    sweep).  All fans advance together, counter-clockwise until they close
    on the nearest neighbour or run out of candidates (row 0 on its
    window's hull), then clockwise from the nearest neighbour for the fans
    left open.

    Returns (area, degenerate).  degenerate marks the windows whose star
    the walk cannot settle: a neighbour coincident with row 0, a near-tie
    in s, an empty star, or a fan still open after k+1 steps.  Their
    areas are meaningless.

    The walk keeps each coordinate of the live windows' neighbours as its
    own contiguous (live, k) array, so cross(a, c) = a0 c1 - a1 c0 and
    a.c = a0 c0 + a1 c1 are elementwise products of those arrays, not
    reductions over a 2-long axis, and round as such a reduction does.
    The arrays shrink only on a step where some window leaves the walk.
    """
    n, kp1, _ = local.shape
    x = np.ascontiguousarray(local[:, 1:, 0])     # (n, k)
    y = np.ascontiguousarray(local[:, 1:, 1])
    r2 = x * x + y * y
    first = r2.argmin(axis=1)
    degenerate = r2.min(axis=1) <= _COINCIDENT_RTOL**2 * r2.max(axis=1)
    twice_area = np.zeros(n)
    steps = np.zeros(n, dtype=int)
    closed = np.zeros(n, dtype=bool)
    for sense in (1.0, -1.0):
        live = np.flatnonzero(~(closed | degenerate))
        xl, yl, r2l, first_l = x[live], y[live], r2[live], first[live]
        cur = first_l
        j = np.arange(live.size)
        while live.size:
            a0, a1 = xl[j, cur][:, None], yl[j, cur][:, None]
            cross = a0 * yl
            cross -= a1 * xl
            if sense < 0.0:
                np.negative(cross, out=cross)
            lift = a0 * xl
            lift += a1 * yl
            np.subtract(r2l, lift, out=lift)
            s = np.full(cross.shape, np.inf)
            np.divide(lift, cross, out=s, where=cross > 0.0)
            nxt = s.argmin(axis=1)
            s1 = s[j, nxt]
            step = np.isfinite(s1)                # False: fan open this side
            s[j, nxt] = np.inf
            s2 = s.min(axis=1)
            tie = step & np.isfinite(s2)
            tie[tie] = (s2[tie] - s1[tie]
                        <= _TIE_RTOL * np.maximum(1.0, np.abs(s1[tie])))
            taken = live[step]
            twice_area[taken] += cross[j, nxt][step]
            steps[taken] += 1
            closes = step & (nxt == first_l)
            stuck = tie | (step & ~closes & (steps[live] >= kp1))
            closed[live[closes]] = True
            degenerate[live[stuck]] = True
            go = step & ~closes & ~stuck
            cur = nxt
            if not go.all():
                live, cur, first_l = live[go], cur[go], first_l[go]
                xl, yl, r2l = xl[go], yl[go], r2l[go]
                j = j[:live.size]
    degenerate |= steps == 0
    return 0.5 * twice_area, degenerate


def _hull_volumes(local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measures of the Delaunay stars of row 0 in a batch of m-D windows.

    local has shape (n, k+1, m), row 0 of each window at the origin; the
    3-D windows come here.  The inversion p -> p / |p|^2 maps a sphere
    through the origin to a plane and its inside to the far side of that
    plane, so a simplex (0, a, b, c) is Delaunay exactly when the inverted
    a, b, c span a facet of the inverted neighbours' convex hull with the
    origin strictly on its inner side (K. Q. Brown, Inf. Process. Lett. 9,
    1979).  One ConvexHull per window replaces its Delaunay triangulation,
    and needs no point at infinity when row 0 lies on its window's hull.

    Returns (volume, degenerate) as _fan_areas does: degenerate marks the
    windows with a neighbour coincident with row 0, a hull Qhull cannot
    build, or an empty star.  Their volumes are meaningless.
    """
    m = local.shape[2]
    c = local[:, 1:, :]
    r2 = (c * c).sum(axis=2)                      # (n, k)
    degenerate = r2.min(axis=1) <= _COINCIDENT_RTOL**2 * r2.max(axis=1)
    volume = np.zeros(len(local))
    for j in np.flatnonzero(~degenerate):
        try:
            hull = ConvexHull(c[j] / r2[j, :, None])
        except QhullError:
            degenerate[j] = True
            continue
        star = hull.simplices[hull.equations[:, -1] < 0.0]
        volume[j] = np.abs(np.linalg.det(c[j][star])).sum() / factorial(m)
    degenerate |= volume == 0.0
    return volume, degenerate


def _segment_weights(q: np.ndarray, dists: np.ndarray,
                     idx: np.ndarray) -> np.ndarray:
    """Half the distance to each of the two neighbors along the curve.

    dists and idx are the k-NN query of q on itself, row 0 the point.
    The neighbors are the nearest curve point on each side of q_k
    (tangentially opposite signs), so the weights tile the curve like
    trapezoid segments; for equally spaced points both are simply the two
    nearest neighbors.
    """
    m0 = len(q)
    u = q[idx[:, 1]] - q                           # toward the nearest
    rel = q[idx[:, 2:]] - q[:, None, :]            # (m0, k-1, d)
    opposite = (rel * u[:, None, :]).sum(axis=2) < 0.0
    first = opposite.argmax(axis=1)
    d2 = dists[np.arange(m0), first + 2]
    for k in np.flatnonzero(~opposite.any(axis=1)):   # scan the whole curve
        rel_k = q - q[k]
        behind = np.nonzero(rel_k @ u[k] < 0.0)[0]
        if behind.size:
            d2[k] = np.sqrt((rel_k[behind] ** 2).sum(axis=1)).min()
        else:
            d2[k] = dists[k, 2]  # degenerate cluster: fall back to 2nd nearest
    return 0.5 * (dists[:, 1] + d2)


def _tangent_frames(rel: np.ndarray, m: int) -> np.ndarray:
    """Top-m principal directions (n, m, d) of windows of displacements
    rel (n, k+1, d), from the scatter about each window's mean (about its
    point, the mean's offset from it would tilt the frames); a matmul
    takes the means faster than rel.mean on windows this small."""
    kp1 = rel.shape[1]
    c = rel - np.full((1, kp1), 1.0 / kp1) @ rel
    _, vecs = np.linalg.eigh(c.transpose(0, 2, 1) @ c)
    return vecs[:, :, -m:].transpose(0, 2, 1)


def _simplex_cell_weights(points: np.ndarray, m: int) -> np.ndarray:
    """Per-point cell weights on a curved m-dimensional patch, from the
    points and m alone.

    For each point: gather its k = min(_WINDOW_SIZE[m], n - 1) nearest
    neighbors.  On a curve the cell is the segment rule of the window's
    chords (:func:`_segment_weights`).  Otherwise project the k+1 points
    on the window's top-m principal directions (:func:`_tangent_frames`)
    and keep 1/(m+1) of the measure of the Delaunay simplices incident to
    the point: 2-D stars from a batched fan walk (:func:`_fan_areas`), 3-D
    ones from inverted convex hulls (:func:`_hull_volumes`), and the
    windows either marks degenerate triangulated one by one by Qhull
    (:func:`_cell_weight`).  Under a similarity x -> s Q x + b of the
    cloud the weights scale by s^m.

    Exact copies of a point share its one cell, so that they add nothing
    to the total weight, and take no slot in any window.
    """
    n = points.shape[0]
    if m not in _WINDOW_SIZE:
        raise ValueError(f"no k-NN window for m = {m}: not in {list(_WINDOW_SIZE)}")
    if n < m + 2:
        raise ValueError(f"need at least {m + 2} points for m = {m}, got {n}")
    dists, idx = cKDTree(points).query(points, k=min(_WINDOW_SIZE[m], n - 1) + 1)
    if dists[:, 1].min() == 0.0:
        _, first, inverse, counts = np.unique(
            points, axis=0, return_index=True, return_inverse=True,
            return_counts=True)
        if len(first) < n:
            keep = np.sort(first)
            weights = _simplex_cell_weights(points[keep], m)
            return weights[np.searchsorted(keep, first)[inverse]] / counts[inverse]
    if m == 1:
        return _segment_weights(points, dists, idx)
    weights = np.empty(n)
    for lo in range(0, n, _WINDOW_BATCH):
        block = slice(lo, lo + _WINDOW_BATCH)
        rel = points[idx[block]]
        rel -= points[block, None, :]  # row 0: the point
        local = rel @ _tangent_frames(rel, m).transpose(0, 2, 1)
        if m == 2:
            area, redo = _fan_areas(local)
            weights[block] = area / 3.0
        else:
            volume, redo = _hull_volumes(local)
            weights[block] = volume / (m + 1)
        for j in np.flatnonzero(redo):
            weights[lo + j] = _cell_weight(local[j])
    return weights


def volume_weights(cloud: PointCloud) -> np.ndarray:
    """Volume weights by tangent-plane Delaunay cells around each point."""
    return _simplex_cell_weights(cloud.points, cloud.m)


def boundary_weights(cloud: PointCloud) -> np.ndarray:
    """Boundary weights: arc segments (m=2) or triangle cells (m=3)."""
    if cloud.m0 < 3:
        raise ValueError("need at least 3 boundary points")
    return _simplex_cell_weights(cloud.boundary, cloud.m - 1)


def build_cloud(case: ManifoldCase | str, t: int, seed: int) -> PointCloud:
    """Sample a cloud and attach volume weights, boundary weights, normals."""
    if isinstance(case, str):
        case = get_case(case)
    cloud = sample_case(case, t, seed)
    cloud.A = volume_weights(cloud)
    cloud.L = boundary_weights(cloud)
    cloud.normals = case.conormal(cloud.boundary)
    return cloud


def save_cloud_csv(cloud: PointCloud, path) -> None:
    """Write a cloud as CSV: kind,x0..,weight,n0.. with metadata comments.

    Raises ValueError, before writing, if A, L or normals is missing.
    """
    missing = [k for k in ("A", "L", "normals") if getattr(cloud, k) is None]
    if missing:
        raise ValueError(f"cloud has no {', '.join(missing)}; "
                         "weight it with build_cloud before saving")
    d = cloud.d
    buf = io.StringIO()
    buf.write("# nlpoisson point cloud\n")
    buf.write(f"# case={cloud.case_name} t={cloud.t} seed={cloud.seed} "
              f"delta={cloud.delta!r} m={cloud.m} d={d} m0={cloud.m0}\n")
    def fmt(v):
        return repr(float(v))

    cols = [f"x{i}" for i in range(d)]
    ncols = [f"n{i}" for i in range(d)]
    buf.write("kind," + ",".join(cols) + ",weight," + ",".join(ncols) + "\n")
    empty_normals = "," * (d - 1)
    for i in range(cloud.n0):
        xs = ",".join(fmt(v) for v in cloud.points[i])
        buf.write(f"interior,{xs},{fmt(cloud.A[i])},{empty_normals}\n")
    for k in range(cloud.m0):
        xs = ",".join(fmt(v) for v in cloud.boundary[k])
        ns = ",".join(fmt(v) for v in cloud.normals[k])
        buf.write(f"boundary,{xs},{fmt(cloud.L[k])},{ns}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_cloud_csv(path) -> PointCloud:
    """Read a cloud written by :func:`save_cloud_csv`.

    Raises ValueError on a missing metadata key, a d unlike the header's
    count of coordinate columns, a boundary row count other than m0, a
    non-finite coordinate, weight or co-normal (naming its row kind, row
    index and column), or boundary coordinates that differ from the tail
    of the point rows.
    """
    meta: dict[str, str] = {}
    rows: dict[str, list[list[str]]] = {"interior": [], "boundary": []}
    ncoords = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        meta[key] = val
                continue
            kind, *fields = line.split(",")
            if kind == "kind":
                ncoords = sum(col.startswith("x") for col in fields)
            elif kind in rows:
                rows[kind].append(fields)
            elif line:
                raise ValueError(f"unknown row kind {kind!r}")
    for key in ("case", "t", "seed", "delta", "m", "d", "m0"):
        if key not in meta:
            raise ValueError(f"{path}: missing metadata key {key!r}")
    d, m0 = int(meta["d"]), int(meta["m0"])
    if ncoords != d:
        raise ValueError(f"{path}: metadata d = {d}, but the header has "
                         f"{ncoords} coordinate columns")
    if len(rows["boundary"]) != m0:
        raise ValueError(f"{path}: {len(rows['boundary'])} boundary rows, "
                         f"expected m0 = {m0}")
    interior = np.array([[float(v) for v in r[:d + 1]] for r in rows["interior"]])
    boundary = np.array([[float(v) for v in r[:2 * d + 1]]
                         for r in rows["boundary"]]).reshape(m0, 2 * d + 1)
    columns = ([f"x{i}" for i in range(d)] + ["weight"]
               + [f"n{i}" for i in range(d)])
    for kind, table in (("interior", interior), ("boundary", boundary)):
        bad = np.argwhere(~np.isfinite(table))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"{path}: {kind} row {row}, column {columns[col]}: "
                             f"non-finite value {table[row, col]!r}")
    points = interior[:, :d]
    if not np.array_equal(boundary[:, :d], points[len(points) - m0:]):
        raise ValueError(f"{path}: boundary coordinates differ from the "
                         f"last {m0} point rows")
    return PointCloud(case_name=meta["case"], m=int(meta["m"]),
                      t=int(meta["t"]), seed=int(meta["seed"]),
                      delta=float(meta["delta"]), points=points, m0=m0,
                      A=interior[:, d], L=boundary[:, d],
                      normals=boundary[:, d + 1:])
