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
symmetric_product forms the boundary block with B = A Z as C = B (Rb B^T)
and returns (C + C^T) / 2, so S is exactly symmetric, bit for bit; the
absorption models use it only to materialize their operator.

Every block and the smoothed forcing are sums over pairs inside the
2 delta interaction horizon, so all of them are built on one pattern.
pair_graph makes the one neighbour search per (cloud, delta) and returns
it as the symmetric Kbar matrix NonlocalSystem.pairs: every searched
pair in both orders and each point with itself, Kbar at distance zero on
the diagonal, with the base kernel K in the same entry order.  R_A is a
Laplacian filled in place on the whole pattern.  Boundary point k is
cloud point n0 - m0 + k (geometry's tail invariant), so zeta and its
normalization come from the pattern's last m0 columns, Rb is a Laplacian
on its trailing m0 x m0 block, and the smoothed forcing is a matvec with
it plus one with zeta; the model variants take their kernel smoother and
flux term from the same matrix.  Its entries are in sorted index order,
so assembly is bit-reproducible.
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
    S: sparse.csr_matrix         # or an operator with @, diagonal(), materialize()
    rhs: np.ndarray
    coupling: BoundaryCoupling
    A: np.ndarray
    delta: float
    mode: str
    cloud: PointCloud
    f_delta: np.ndarray          # smoothed source before mean removal
    mean_shift: float            # constant removed from f_delta
    pairs: sparse.csr_matrix     # Kbar on the 2 delta pattern of every block
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
    """Index pairs (i < j, lexicographically sorted) within ``radius``, as int32."""
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    order = np.argsort(i.astype(np.int64) * len(points) + j)
    return i[order].astype(np.int32), j[order].astype(np.int32)


def pair_graph(cloud: PointCloud, delta: float | None = None,
               profile: KernelProfile | None = None
               ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The cloud's pair pattern within 2 delta, as the symmetric Kbar matrix.

    One neighbour search over all cloud points gives the pairs i < j; the
    pattern holds each in both orders, Kbar(p_i, p_j), and each point with
    itself, Kbar at distance zero.  Also returns the base kernel
    K(p_i, p_j) in the pattern's entry order, which only R_A reads (its
    Laplacian ignores the diagonal).
    """
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    points, m, n = cloud.points, cloud.m, cloud.n0
    i, j = _sym_pairs(points, 2.0 * delta)
    p = len(i)
    sq = np.append(((points[i] - points[j]) ** 2).sum(axis=1), 0.0)
    ids, own = np.arange(p, dtype=np.int32), np.arange(n, dtype=np.int32)
    # entry p is a point with itself; fed as [lower triangle, diagonal,
    # upper triangle] with the pairs in order, the conversion's stable row
    # bucketing leaves every row's columns sorted
    entry = sparse.coo_matrix(
        (np.concatenate([ids, np.full(n, p, np.int32), ids]),
         (np.concatenate([j, own, i]), np.concatenate([i, own, j]))),
        shape=(n, n)).tocsr()
    Kbar = sparse.csr_matrix(
        (pair_eval(profile, "bar", sq, delta, m)[entry.data], entry.indices,
         entry.indptr), shape=(n, n))
    return Kbar, pair_eval(profile, "base", sq, delta, m)[entry.data]


def _laplacian(pattern: sparse.csr_matrix, kernel: np.ndarray,
               weights: np.ndarray) -> sparse.csr_matrix:
    """Graph Laplacian on a square pattern that holds its whole diagonal,
    with pair weights kernel_ij (w_i w_j), kernel in the pattern's entry
    order: minus the weight off the diagonal, the off-diagonal row sum on it."""
    n = pattern.shape[0]
    rows = np.repeat(np.arange(n, dtype=pattern.indices.dtype),
                     np.diff(pattern.indptr))
    data = -(kernel * (weights[rows] * weights[pattern.indices]))
    diag = np.flatnonzero(pattern.indices == rows)
    data[diag] = 0.0
    data[diag] = -np.bincount(rows, weights=data, minlength=n)
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                             shape=(n, n))


def _boundary_block(pairs: sparse.csr_matrix, L: np.ndarray) -> sparse.csr_matrix:
    """Kbar L L graph Laplacian on the pattern's trailing m0 x m0 block."""
    nb = pairs.shape[0] - len(L)
    tail = pairs[nb:, nb:]
    return _laplacian(tail, tail.data, L)


def interior_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Diffusion graph Laplacian R_A over all cloud points."""
    return _laplacian(*pair_graph(cloud, delta, profile), cloud.A)


def boundary_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Boundary graph Laplacian with Kbar L L weights (C_R cancelled form)."""
    return _boundary_block(pair_graph(cloud, delta, profile)[0], cloud.L)


def boundary_coupling(cloud: PointCloud,
                      pairs: sparse.csr_matrix) -> BoundaryCoupling:
    """The normalized coupling, from the pattern's last m0 columns, and the
    boundary Laplacian, from its trailing block."""
    n0, m0 = cloud.n0, cloud.m0
    cross = pairs[:, n0 - m0:]  # Kbar(p_r, q_k)
    rows = np.repeat(np.arange(n0), np.diff(cross.indptr))
    cols = cross.indices
    disp = cloud.points[rows] - cloud.boundary[cols]
    cross.data = -(disp * cloud.normals[cols]).sum(axis=1) * cross.data
    omega = np.bincount(cols, weights=cross.data * cloud.A[rows], minlength=m0)
    bad = np.nonzero(omega <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise AssemblyError(
            f"omega(q_{k}) = {omega[k]:.3e} <= 0 at boundary point "
            f"{cloud.boundary[k]}; delta may be too large or the cloud too sparse")
    cross.data /= omega[cols]
    cross.eliminate_zeros()
    return BoundaryCoupling(zeta=cross, omega_hat=omega,
                            RbarL=_boundary_block(pairs, cloud.L), L=cloud.L)


def symmetric_product(B: sparse.spmatrix, M: sparse.spmatrix) -> sparse.csr_matrix:
    """B M B^T for a symmetric M, as C = B (M B^T) made exactly symmetric:
    IEEE addition commutes, so (C + C^T) / 2 has (i, j) = (j, i) bit for bit."""
    C = (B @ (M @ B.T)).tocsr()
    return ((C + C.T) * 0.5).tocsr()


def bar_matrix(pairs: sparse.csr_matrix, n: int) -> sparse.csr_matrix:
    """The Kbar matrix of the n cloud points, which is the pattern itself;
    kept as a name of variants that perfbench's traced runs wrap."""
    return pairs


def smoothed_forcing(cloud: PointCloud, pairs: sparse.csr_matrix,
                     coupling: BoundaryCoupling,
                     f: Callable[[np.ndarray], np.ndarray] | None = None
                     ) -> np.ndarray:
    """Kernel-smoothed forcing before any mean removal.

    fd_i = sum_j Kbar(p_i, p_j) f(p_j) A_j, plus the boundary coupling
    term sum_k zeta(p_i, q_k) f(q_k) L_k, zero in reduced mode.
    """
    f = f or get_case(cloud.case_name).forcing
    fd = pairs @ (np.asarray(f(cloud.points), dtype=float) * cloud.A)
    fq = np.asarray(f(cloud.boundary), dtype=float)
    return fd + coupling.zeta @ (coupling.omega_hat * fq * coupling.L)


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
    if cloud.A is None:
        raise ValueError("cloud has no volume weights; run volume_weights first")

    pairs, base = pair_graph(cloud, delta, profile)
    S = _laplacian(pairs, base, cloud.A)
    del base
    S.data *= 1.0 / (delta * delta)
    n0, m0 = cloud.n0, cloud.m0
    if mode == "full":
        coupling = boundary_coupling(cloud, pairs)
        AZ = sparse.diags(cloud.A) @ coupling.zeta
        S = (S + 2.0 * symmetric_product(AZ, coupling.RbarL)).tocsr()
    else:
        coupling = BoundaryCoupling(zeta=sparse.csr_matrix((n0, m0)),
                                    omega_hat=np.zeros(m0),
                                    RbarL=sparse.csr_matrix((m0, m0)),
                                    L=np.zeros(m0))

    fd = smoothed_forcing(cloud, pairs, coupling, f)
    shift = float(fd @ cloud.A / cloud.A.sum())
    rhs = cloud.A * (fd - shift)
    return NonlocalSystem(S=S, rhs=rhs, coupling=coupling, A=cloud.A,
                          delta=delta, mode=mode, cloud=cloud,
                          f_delta=fd, mean_shift=shift, pairs=pairs)


def boundary_trace(coupling: BoundaryCoupling, A: np.ndarray,
                   U: np.ndarray) -> np.ndarray:
    """Boundary values V_k = (1/omega_k) sum_i u_i zeta(p_i, q_k) A_i."""
    return coupling.zeta.T @ (A * U)


def export_matrix(system: NonlocalSystem, path) -> None:
    """Write S, materialized if an operator, as coordinate text and .meta."""
    S = system.S if sparse.issparse(system.S) else system.S.materialize()
    coo = S.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {float(v)!r}\n")
    cloud = system.cloud
    with open(f"{path}.meta", "w") as fh:
        fh.write(f"n0 = {cloud.n0}\nm0 = {cloud.m0}\ndelta = {system.delta!r}\n"
                 f"mode = {system.mode}\nvariant = {system.variant}\n"
                 f"seed = {cloud.seed}\n")
