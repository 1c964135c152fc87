"""Discrete nonlocal operator assembly on a weighted point cloud.

The interior diffusion is a graph Laplacian with pair weights
K(p_i, p_j) A_i A_j, where K is the scaled base kernel.  The Neumann
boundary enters through a displacement coupling

    zeta(p, q) = -(p - q) . n(q) * Kbar(p, q)

normalized per boundary point by omega(q) = sum_r zeta(p_r, q) A_r, and
through a boundary graph Laplacian with weights Kbar(q_k, q_l) L_k L_l.
Eliminating the boundary trace V = Z^T A U yields one symmetric
positive-semidefinite system

    S U = (R_A / delta^2  +  2 A Z Rb Z^T A) U = A F,

whose null space is the constants; F carries the kernel-smoothed forcing
with its A-weighted mean removed so the right side stays orthogonal to
the null space.  The reduced model keeps only the diffusion block.

All pair enumeration is done in sorted index order so that assembly is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .geometry import PointCloud, get_case
from .kernels import KernelProfile, cosine_profile, pair_eval

MODES = ("full", "reduced")


class AssemblyError(RuntimeError):
    """Raised when the boundary normalization degenerates."""


@dataclass
class BoundaryCoupling:
    """Boundary blocks of the assembled system.

    zeta holds zeta(p_r, q_k) / omega(q_k); RbarL is the boundary graph
    Laplacian with Kbar L L pair weights.  In reduced mode both are zero.
    """

    zeta: sparse.csr_matrix
    omega_hat: np.ndarray
    RbarL: sparse.csr_matrix
    L: np.ndarray


@dataclass
class NonlocalSystem:
    S: sparse.csr_matrix
    rhs: np.ndarray
    coupling: BoundaryCoupling
    A: np.ndarray
    delta: float
    mode: str
    cloud: PointCloud
    profile: KernelProfile
    f_delta: np.ndarray          # smoothed source before mean removal
    mean_shift: float            # constant removed from f_delta
    variant: str = "none"        # model variant this system discretizes


def zeta_entry(p, q, n_q, delta: float, profile: KernelProfile,
               m: int) -> float:
    """Displacement coupling -(p - q) . n(q) * Kbar(p, q) for one pair."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n_q = np.asarray(n_q, dtype=float)
    sq = float(np.dot(p - q, p - q))
    bar = pair_eval(profile, "bar", sq, delta, m)
    return float(-(p - q) @ n_q * bar)


def _sym_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j, lexicographically sorted) within ``radius``."""
    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size == 0:
        return pairs.reshape(0, 2).T[0], pairs.reshape(0, 2).T[0]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    return pairs[:, 0], pairs[:, 1]


def _cross_pairs(points: np.ndarray, targets: np.ndarray,
                 radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All (point, target) index pairs within ``radius``, sorted."""
    tree = cKDTree(targets)
    hits = tree.query_ball_point(points, r=radius)
    rows = np.repeat(np.arange(len(points)), [len(h) for h in hits])
    cols = np.concatenate([sorted(h) for h in hits]) if len(rows) else np.empty(0, int)
    return rows, cols.astype(int)


def _graph_laplacian(points: np.ndarray, weights: np.ndarray, level: str,
                     delta: float, profile: KernelProfile,
                     m: int) -> sparse.csr_matrix:
    """Graph Laplacian with pair weights K_level(x_i, x_j) w_i w_j."""
    n = points.shape[0]
    i, j = _sym_pairs(points, 2.0 * delta)
    if len(i):
        sq = ((points[i] - points[j]) ** 2).sum(axis=1)
        w = pair_eval(profile, level, sq, delta, m) * weights[i] * weights[j]
        keep = w != 0.0
        i, j, w = i[keep], j[keep], w[keep]
    else:
        w = np.empty(0)
    diag = np.bincount(i, weights=w, minlength=n) + \
        np.bincount(j, weights=w, minlength=n)
    off = sparse.coo_matrix(
        (np.concatenate([-w, -w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n))
    return (off + sparse.diags(diag)).tocsr()


def interior_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Diffusion graph Laplacian R_A over all cloud points."""
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    return _graph_laplacian(cloud.points, cloud.A, "base", delta, profile, cloud.m)


def boundary_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Boundary graph Laplacian with Kbar L L weights (C_R cancelled form)."""
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    return _graph_laplacian(cloud.boundary, cloud.L, "bar", delta, profile, cloud.m)


def _zeta_data(cloud: PointCloud, delta: float, profile: KernelProfile):
    """Sparse triplets of the un-normalized coupling zeta(p_r, q_k)."""
    rows, cols = _cross_pairs(cloud.points, cloud.boundary, 2.0 * delta)
    if len(rows) == 0:
        return rows, cols, np.empty(0)
    disp = cloud.points[rows] - cloud.boundary[cols]
    sq = (disp**2).sum(axis=1)
    bar = pair_eval(profile, "bar", sq, delta, cloud.m)
    vals = -(disp * cloud.normals[cols]).sum(axis=1) * bar
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def omega_vector(cloud: PointCloud, delta: float | None = None,
                 profile: KernelProfile | None = None) -> np.ndarray:
    """Boundary normalization omega(q_k) = sum_r zeta(p_r, q_k) A_r."""
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    rows, cols, vals = _zeta_data(cloud, delta, profile)
    return np.bincount(cols, weights=vals * cloud.A[rows], minlength=cloud.m0)


def build_coupling(cloud: PointCloud, delta: float | None = None,
                   profile: KernelProfile | None = None,
                   reduced: bool = False) -> BoundaryCoupling:
    """Assemble the normalized coupling and the boundary Laplacian."""
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    n0, m0 = cloud.n0, cloud.m0
    if reduced:
        zero_nm = sparse.csr_matrix((n0, m0))
        zero_mm = sparse.csr_matrix((m0, m0))
        return BoundaryCoupling(zeta=zero_nm, omega_hat=np.zeros(m0),
                                RbarL=zero_mm, L=np.zeros(m0))
    rows, cols, vals = _zeta_data(cloud, delta, profile)
    omega = np.bincount(cols, weights=vals * cloud.A[rows], minlength=m0)
    bad = np.nonzero(omega <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise AssemblyError(
            f"omega(q_{k}) = {omega[k]:.3e} <= 0 at boundary point "
            f"{cloud.boundary[k]}; delta may be too large or the cloud too sparse")
    zeta = sparse.csr_matrix((vals / omega[cols], (rows, cols)), shape=(n0, m0))
    RbarL = boundary_laplacian(cloud, delta, profile)
    return BoundaryCoupling(zeta=zeta, omega_hat=omega, RbarL=RbarL, L=cloud.L)


def _incidence_factor(RbarL: sparse.csr_matrix) -> sparse.csr_matrix:
    """Edge incidence factor G with RbarL = G^T G, built from off-diagonals."""
    coo = sparse.triu(RbarL, k=1).tocoo()
    w = -coo.data
    w[w < 0] = 0.0
    root = np.sqrt(w)
    ne = len(root)
    rows = np.repeat(np.arange(ne), 2)
    cols = np.empty(2 * ne, dtype=int)
    cols[0::2] = coo.row
    cols[1::2] = coo.col
    data = np.empty(2 * ne)
    data[0::2] = root
    data[1::2] = -root
    return sparse.csr_matrix((data, (rows, cols)), shape=(ne, RbarL.shape[1]))


def bar_matrix(cloud: PointCloud, delta: float | None = None,
               profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Symmetric matrix of Kbar(p_i, p_j) pair values, diagonal included."""
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    n = cloud.n0
    i, j = _sym_pairs(cloud.points, 2.0 * delta)
    sq = ((cloud.points[i] - cloud.points[j]) ** 2).sum(axis=1)
    bar = pair_eval(profile, "bar", sq, delta, cloud.m)
    keep = bar != 0.0
    i, j, bar = i[keep], j[keep], bar[keep]
    diag = np.full(n, pair_eval(profile, "bar", 0.0, delta, cloud.m))
    mat = sparse.coo_matrix(
        (np.concatenate([bar, bar]),
         (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    return (mat + sparse.diags(diag)).tocsr()


def smoothed_forcing(cloud: PointCloud, delta: float | None = None,
                     profile: KernelProfile | None = None,
                     f: Callable[[np.ndarray], np.ndarray] | None = None,
                     mode: str = "full") -> np.ndarray:
    """Kernel-smoothed forcing before any mean removal.

    fd_i = sum_j f(p_j) Kbar(p_i, p_j) A_j, plus the boundary coupling
    term sum_k f(q_k) zeta(p_i, q_k) L_k in full mode.
    """
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    case = get_case(cloud.case_name)
    f = f or case.forcing
    fp = np.asarray(f(cloud.points), dtype=float)

    i, j = _sym_pairs(cloud.points, 2.0 * delta)
    sq = ((cloud.points[i] - cloud.points[j]) ** 2).sum(axis=1)
    bar = pair_eval(profile, "bar", sq, delta, cloud.m)
    fd = np.bincount(i, weights=bar * fp[j] * cloud.A[j], minlength=cloud.n0)
    fd += np.bincount(j, weights=bar * fp[i] * cloud.A[i], minlength=cloud.n0)
    fd += pair_eval(profile, "bar", 0.0, delta, cloud.m) * fp * cloud.A

    if mode == "full":
        rows, cols, vals = _zeta_data(cloud, delta, profile)
        fq = np.asarray(f(cloud.boundary), dtype=float)
        fd += np.bincount(rows, weights=vals * fq[cols] * cloud.L[cols],
                          minlength=cloud.n0)
    elif mode != "reduced":
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return fd


def source_vector(cloud: PointCloud, delta: float | None = None,
                  profile: KernelProfile | None = None,
                  f: Callable[[np.ndarray], np.ndarray] | None = None,
                  mode: str = "full") -> tuple[np.ndarray, float]:
    """Kernel-smoothed source with its A-weighted mean removed.

    Returns (F, shift): F_i is the smoothed forcing minus the constant
    ``shift`` chosen so sum_i F_i A_i = 0.  In reduced mode the boundary
    contribution is dropped but the mean is still removed.
    """
    fd = smoothed_forcing(cloud, delta, profile, f, mode)
    shift = float(fd @ cloud.A / cloud.A.sum())
    return fd - shift, shift


def assemble(cloud: PointCloud, delta: float | None = None,
             profile: KernelProfile | None = None, mode: str = "full",
             f: Callable[[np.ndarray], np.ndarray] | None = None) -> NonlocalSystem:
    """Build the symmetric PSD system S U = A F for one cloud.

    mode "full" includes the boundary coupling; "reduced" keeps only the
    diffusion block (all boundary weights treated as zero).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    if cloud.A is None:
        raise ValueError("cloud has no volume weights; run volume_weights first")

    RA = interior_laplacian(cloud, delta, profile)
    S = RA.multiply(1.0 / (delta * delta)).tocsr()
    coupling = build_coupling(cloud, delta, profile, reduced=(mode == "reduced"))
    if mode == "full":
        G = _incidence_factor(coupling.RbarL)
        K = (sparse.diags(cloud.A) @ coupling.zeta @ G.T).tocsr()
        # sorted rows make K K^T accumulate (i,j) and (j,i) in the same
        # order, so S comes out exactly symmetric
        K.sort_indices()
        S = (S + 2.0 * (K @ K.T)).tocsr()

    fd = smoothed_forcing(cloud, delta, profile, f, mode)
    shift = float(fd @ cloud.A / cloud.A.sum())
    rhs = cloud.A * (fd - shift)
    return NonlocalSystem(S=S, rhs=rhs, coupling=coupling, A=cloud.A,
                          delta=delta, mode=mode, cloud=cloud, profile=profile,
                          f_delta=fd, mean_shift=shift)


def boundary_trace(coupling: BoundaryCoupling, A: np.ndarray,
                   U: np.ndarray) -> np.ndarray:
    """Boundary values V_k = (1/omega_k) sum_i u_i zeta(p_i, q_k) A_i."""
    return coupling.zeta.T @ (A * U)


def export_matrix(system: NonlocalSystem, path) -> None:
    """Write S in coordinate text format with a .meta sidecar."""
    coo = system.S.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {float(v)!r}\n")
    cloud = system.cloud
    with open(f"{path}.meta", "w") as fh:
        fh.write(f"n0 = {cloud.n0}\nm0 = {cloud.m0}\ndelta = {system.delta!r}\n"
                 f"mode = {system.mode}\nvariant = {system.variant}\n"
                 f"seed = {cloud.seed}\n")
