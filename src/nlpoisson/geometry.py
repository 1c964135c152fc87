"""Test manifolds, point-cloud sampling, and quadrature weights.

Two parametrized benchmark manifolds are provided: the upper spherical cap
(z >= 1/2 on the unit sphere in R^3) and the upper half of the unit
3-sphere (w >= 0 in R^4).  For each, this module draws seeded random
clouds with the prescribed interior/boundary counts, computes per-point
volume weights by local tangent-plane Delaunay cells, and computes
boundary weights (arc segments on the circle, triangle cells on the
boundary 2-sphere).

A cell is 1/(m+1) of the Delaunay star of a point in its projected k-NN
window.  On 2-D tangent planes the stars come from a batched fan walk
(gift wrapping around the point, a block of windows in lockstep); Qhull
triangulates the 3-D windows, and the 2-D windows whose star the walk
cannot settle (coincident or cocircular neighbours), one at a time.

Boundary points are stored as the tail of the point array: the k-th
boundary point aliases point ``n0 - m0 + k``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree


@dataclass
class PointCloud:
    """Sampled manifold with quadrature weights.

    points holds all n0 samples; the final m0 rows lie on the boundary.
    A are volume weights (one per point), L boundary weights (one per
    boundary point), normals the outward unit co-normals at the boundary.
    """

    case_name: str
    m: int
    d: int
    t: int
    seed: int
    delta: float
    points: np.ndarray
    m0: int
    A: np.ndarray | None = None
    L: np.ndarray | None = None
    normals: np.ndarray | None = None

    @property
    def n0(self) -> int:
        return self.points.shape[0]

    @property
    def boundary(self) -> np.ndarray:
        return self.points[self.n0 - self.m0:]


class ManifoldCase:
    """Base class for the benchmark manifolds; subclasses fill in recipes."""

    name: str
    m: int
    d: int
    k_volume: int
    volume: float
    boundary_measure: float

    def counts(self, t: int) -> tuple[int, int]:
        raise NotImplementedError

    def sample_points(self, B: np.ndarray, n0: int, m0: int) -> np.ndarray:
        raise NotImplementedError

    def exact_u(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forcing(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def conormal(self, q: np.ndarray) -> np.ndarray:
        """Outward unit co-normal at boundary points q (rows)."""
        raise NotImplementedError

    def surface_frames(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal tangent bases of the manifold, shape (n, m, d)."""
        raise NotImplementedError

    def boundary_frames(self, q: np.ndarray) -> np.ndarray:
        """Orthonormal tangent bases of the boundary manifold."""
        raise NotImplementedError

    def on_manifold(self, x: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        raise NotImplementedError

    def on_boundary(self, q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        raise NotImplementedError


def _householder_tangent_frames(normals: np.ndarray) -> np.ndarray:
    """Tangent frames orthogonal to unit ``normals`` via Householder maps.

    For each unit vector nu in R^d, reflect e_d onto +-nu; the images of
    e_1..e_{d-1} form a deterministic orthonormal basis of nu-perp.
    Returns shape (n, d-1, d).
    """
    nu = np.atleast_2d(normals)
    n, d = nu.shape
    sign = np.where(nu[:, -1] >= 0, 1.0, -1.0)
    v = nu.copy()
    v[:, -1] += sign  # reflect onto -sign * e_d, |v|^2 = 2 (1 + |nu_d|)
    vsq = (v * v).sum(axis=1)
    frames = np.empty((n, d - 1, d))
    for i in range(d - 1):
        e = np.zeros(d)
        e[i] = 1.0
        frames[:, i, :] = e - (2.0 * v[:, i] / vsq)[:, None] * v
    return frames


class Hemisphere2(ManifoldCase):
    """Spherical cap x^2 + y^2 + z^2 = 1, z >= 1/2, circle boundary."""

    name = "hemisphere2"
    m = 2
    d = 3
    k_volume = 20
    volume = np.pi                      # cap area 2*pi*(1 - 1/2)
    boundary_rho = np.sqrt(3.0) / 2.0
    boundary_z = 0.5
    boundary_measure = 2.0 * np.pi * boundary_rho

    def counts(self, t):
        return t * t + 3 * t, 3 * t

    def sample_points(self, B, n0, m0):
        pts = np.empty((n0, 3))
        ni = n0 - m0
        z = (B[:ni, 1] + 1.0) / 2.0
        r = np.sqrt(1.0 - z * z)
        phi = 2.0 * np.pi * B[:ni, 0]
        pts[:ni, 0] = r * np.cos(phi)
        pts[:ni, 1] = r * np.sin(phi)
        pts[:ni, 2] = z
        bphi = 2.0 * np.pi * B[ni:, 0]
        pts[ni:, 0] = self.boundary_rho * np.cos(bphi)
        pts[ni:, 1] = self.boundary_rho * np.sin(bphi)
        pts[ni:, 2] = self.boundary_z
        return pts

    def exact_u(self, x):
        x = np.atleast_2d(x)
        return (x[:, 2] - 0.5) ** 2 - 1.0 / 12.0

    def forcing(self, x):
        x = np.atleast_2d(x)
        z = x[:, 2]
        return 6.0 * z * z - 2.0 * z - 2.0

    def conormal(self, q):
        q = np.atleast_2d(q)
        n = np.empty_like(q)
        scale = self.boundary_z / self.boundary_rho
        n[:, 0] = q[:, 0] * scale
        n[:, 1] = q[:, 1] * scale
        n[:, 2] = -self.boundary_rho
        return n

    def surface_frames(self, x):
        return _householder_tangent_frames(np.atleast_2d(x))

    def boundary_frames(self, q):
        # circle tangent, embedded; unused by the weight recipes for m=2
        q = np.atleast_2d(q)
        tang = np.zeros((q.shape[0], 1, 3))
        tang[:, 0, 0] = -q[:, 1] / self.boundary_rho
        tang[:, 0, 1] = q[:, 0] / self.boundary_rho
        return tang

    def on_manifold(self, x, tol=1e-10):
        x = np.atleast_2d(x)
        radial = np.abs((x * x).sum(axis=1) - 1.0) <= 2 * tol
        return radial & (x[:, 2] >= 0.5 - tol)

    def on_boundary(self, q, tol=1e-10):
        q = np.atleast_2d(q)
        return self.on_manifold(q, tol) & (np.abs(q[:, 2] - 0.5) <= tol)


class Hemisphere3(ManifoldCase):
    """Half 3-sphere x^2 + y^2 + z^2 + w^2 = 1, w >= 0, 2-sphere boundary."""

    name = "hemisphere3"
    m = 3
    d = 4
    k_volume = 50
    k_boundary = 20
    volume = np.pi**2                   # half of the 3-sphere volume 2*pi^2
    boundary_measure = 4.0 * np.pi

    def counts(self, t):
        return 3 * t**3 + 4 * t**2, 4 * t**2

    def sample_points(self, B, n0, m0):
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
        pts[ni:, 3] = 0.0
        return pts

    def exact_u(self, x):
        x = np.atleast_2d(x)
        return x[:, 0] * x[:, 1] * x[:, 2]

    def forcing(self, x):
        x = np.atleast_2d(x)
        return 15.0 * x[:, 0] * x[:, 1] * x[:, 2]

    def conormal(self, q):
        q = np.atleast_2d(q)
        n = np.zeros_like(q)
        n[:, 3] = -1.0
        return n

    def surface_frames(self, x):
        return _householder_tangent_frames(np.atleast_2d(x))

    def boundary_frames(self, q):
        # boundary is the unit 2-sphere inside w = 0; frame its 3-D normal
        q = np.atleast_2d(q)
        sub = _householder_tangent_frames(q[:, :3])
        frames = np.zeros((q.shape[0], 2, 4))
        frames[:, :, :3] = sub
        return frames

    def on_manifold(self, x, tol=1e-10):
        x = np.atleast_2d(x)
        radial = np.abs((x * x).sum(axis=1) - 1.0) <= 2 * tol
        return radial & (x[:, 3] >= -tol)

    def on_boundary(self, q, tol=1e-10):
        q = np.atleast_2d(q)
        return self.on_manifold(q, tol) & (np.abs(q[:, 3]) <= tol)


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


def sample_case(case: ManifoldCase | str, t: int, seed: int) -> PointCloud:
    """Draw the seeded point cloud for one resolution.

    delta = sqrt(1/t); the interior/boundary counts and coordinates follow
    the case recipe exactly, driven by a single uniform matrix from a
    PCG64 generator so identical (case, t, seed) reproduce bit-identical
    clouds.
    """
    if isinstance(case, str):
        case = get_case(case)
    if t < 4:
        raise ValueError("resolution parameter t must be >= 4")
    n0, m0 = case.counts(t)
    rng = np.random.default_rng(seed)
    ncols = 2 if case.m == 2 else 3
    B = rng.random((n0, ncols))
    points = case.sample_points(B, n0, m0)
    return PointCloud(case_name=case.name, m=case.m, d=case.d, t=t, seed=seed,
                      delta=float(np.sqrt(1.0 / t)), points=points, m0=m0)


def _simplex_measures(coords: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Unsigned measures of simplices given vertex coordinates (n, m)."""
    m = coords.shape[1]
    verts = coords[simplices]                     # (ns, m+1, m)
    edges = verts[:, 1:, :] - verts[:, :1, :]     # (ns, m, m)
    from math import factorial
    return np.abs(np.linalg.det(edges)) / factorial(m)


def _cell_weight(local: np.ndarray, spacing: float, seed: int) -> float:
    """1/(m+1) of the total measure of Delaunay simplices incident to row 0.

    Degenerate configurations are retried once after a deterministic
    perturbation of 1e-12 * spacing in a seed-derived direction.
    """
    m = local.shape[1]
    try:
        tri = Delaunay(local)
    except QhullError:
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(local.shape)
        tri = Delaunay(local + 1e-12 * spacing * direction)
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
# Windows projected and walked together: keeps the walk's arrays to a few
# hundred KB whatever the size of the cloud.
_WINDOW_BATCH = 256


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
    """
    n, kp1, _ = local.shape
    c = local[:, 1:, :]
    r2 = (c * c).sum(axis=2)                      # (n, k)
    first = r2.argmin(axis=1)
    degenerate = r2.min(axis=1) <= _COINCIDENT_RTOL**2 * r2.max(axis=1)
    twice_area = np.zeros(n)
    steps = np.zeros(n, dtype=int)
    closed = np.zeros(n, dtype=bool)
    for sense in (1.0, -1.0):
        live = np.flatnonzero(~(closed | degenerate))
        cur = first[live]
        while live.size:
            j = np.arange(live.size)
            cl = c[live]                          # (nl, k, 2)
            a = cl[j, cur]                        # (nl, 2)
            cross = sense * (a[:, :1] * cl[:, :, 1] - a[:, 1:] * cl[:, :, 0])
            lift = r2[live] - (a[:, None, :] * cl).sum(axis=2)
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
            closes = step & (nxt == first[live])
            stuck = tie | (step & ~closes & (steps[live] >= kp1))
            closed[live[closes]] = True
            degenerate[live[stuck]] = True
            go = step & ~closes & ~stuck
            live, cur = live[go], nxt[go]
    degenerate |= steps == 0
    return 0.5 * twice_area, degenerate


def _simplex_cell_weights(points: np.ndarray, frames: np.ndarray, k: int,
                          seed: int) -> np.ndarray:
    """Per-point simplex-cell weights on a curved patch.

    For each point: gather the k nearest neighbors, project the k+1 points
    onto the tangent space (frames[i] rows are the basis) and keep 1/(m+1)
    of the measure of the Delaunay simplices incident to the point.  On
    2-D tangent planes the stars come from a batched fan walk
    (:func:`_fan_areas`) over blocks of windows; 3-D windows, and 2-D
    windows the walk marks degenerate, are triangulated one by one by
    Qhull (:func:`_cell_weight`).

    Exact copies of a point share its one star, so that they add nothing
    to the total weight, and take no slot in any window.
    """
    n = points.shape[0]
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points for {k}-neighbor cells")
    tree = cKDTree(points)
    dists, idx = tree.query(points, k=k + 1)
    if dists[:, 1].min() == 0.0:
        _, first, inverse, counts = np.unique(
            points, axis=0, return_index=True, return_inverse=True,
            return_counts=True)
        if len(first) < n:
            keep = np.sort(first)
            weights = _simplex_cell_weights(points[keep], frames[keep], k, seed)
            return weights[np.searchsorted(keep, first)[inverse]] / counts[inverse]
    weights = np.empty(n)
    for lo in range(0, n, _WINDOW_BATCH):
        block = slice(lo, lo + _WINDOW_BATCH)
        rel = points[idx[block]] - points[block, None, :]  # row 0: the point
        local = rel @ frames[block].transpose(0, 2, 1)     # (batch, k+1, m)
        if frames.shape[1] == 2:
            area, redo = _fan_areas(local)
            weights[block] = area / 3.0
        else:
            redo = np.ones(len(local), dtype=bool)
        for j in np.flatnonzero(redo):
            i = lo + int(j)
            weights[i] = _cell_weight(local[j], float(dists[i, 1]), seed + i)
    return weights


def volume_weights(cloud: PointCloud, k: int | None = None) -> np.ndarray:
    """Volume weights by tangent-plane Delaunay cells around each point."""
    case = get_case(cloud.case_name)
    if k is None:
        k = case.k_volume
    frames = case.surface_frames(cloud.points)
    return _simplex_cell_weights(cloud.points, frames, k, cloud.seed)


def boundary_weights(cloud: PointCloud, reduced: bool = False) -> np.ndarray:
    """Boundary weights: arc segments (m=2) or triangle cells (m=3).

    In the reduced model every boundary weight is zero.
    """
    if cloud.m0 < 3:
        raise ValueError("need at least 3 boundary points")
    if reduced:
        return np.zeros(cloud.m0)
    case = get_case(cloud.case_name)
    q = cloud.boundary
    if cloud.m == 2:
        return _segment_weights(q)
    frames = case.boundary_frames(q)
    return _simplex_cell_weights(q, frames, case.k_boundary, cloud.seed)


def _segment_weights(q: np.ndarray) -> np.ndarray:
    """Half the distance to each of the two neighbors along the curve.

    The neighbors are the nearest boundary point on each side of q_k
    (tangentially opposite signs), so the weights tile the curve like
    trapezoid segments; for equally spaced points both are simply the two
    nearest neighbors.
    """
    m0 = len(q)
    tree = cKDTree(q)
    kq = min(m0, 16)
    dists, idx = tree.query(q, k=kq)
    u = q[idx[:, 1]] - q                           # toward the nearest
    rel = q[idx[:, 2:]] - q[:, None, :]            # (m0, kq-2, d)
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


def build_cloud(case: ManifoldCase | str, t: int, seed: int) -> PointCloud:
    """Sample a cloud and attach volume weights, boundary weights, normals."""
    if isinstance(case, str):
        case = get_case(case)
    cloud = sample_case(case, t, seed)
    cloud.A = volume_weights(cloud)
    cloud.L = boundary_weights(cloud)
    cloud.normals = case.conormal(cloud.boundary)
    return cloud


def exact_fields(case: ManifoldCase | str, x) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution and forcing at on-manifold points (rows of x)."""
    if isinstance(case, str):
        case = get_case(case)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(case.on_manifold(x)):
        raise ValueError("points are not on the case manifold")
    return case.exact_u(x), case.forcing(x)


def conormal(case: ManifoldCase | str, q) -> np.ndarray:
    """Outward unit co-normal at boundary points (rows of q)."""
    if isinstance(case, str):
        case = get_case(case)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if not np.all(case.on_boundary(q)):
        raise ValueError("points are not on the case boundary")
    return case.conormal(q)


def save_cloud_csv(cloud: PointCloud, path) -> None:
    """Write a cloud as CSV: kind,x0..,weight,n0.. with metadata comments."""
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
    """Read a cloud written by :func:`save_cloud_csv`."""
    meta: dict[str, str] = {}
    interior: list[list[float]] = []
    a_weights: list[float] = []
    l_weights: list[float] = []
    normals: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        meta[key] = val
                continue
            if line.startswith("kind,"):
                continue
            parts = line.split(",")
            d = int(meta["d"])
            kind = parts[0]
            coords = [float(v) for v in parts[1:1 + d]]
            weight = float(parts[1 + d])
            if kind == "interior":
                interior.append(coords)
                a_weights.append(weight)
            elif kind == "boundary":
                l_weights.append(weight)
                normals.append([float(v) for v in parts[2 + d:2 + 2 * d]])
            else:
                raise ValueError(f"unknown row kind {kind!r}")
    points = np.asarray(interior)
    m0 = int(meta["m0"])
    cloud = PointCloud(case_name=meta["case"], m=int(meta["m"]), d=int(meta["d"]),
                       t=int(meta["t"]), seed=int(meta["seed"]),
                       delta=float(meta["delta"]), points=points, m0=m0,
                       A=np.asarray(a_weights), L=np.asarray(l_weights),
                       normals=np.asarray(normals))
    return cloud
