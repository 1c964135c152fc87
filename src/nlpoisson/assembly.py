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
2 delta interaction horizon.  pair_graph makes the one neighbour search
per (cloud, delta) and evaluates Kbar once on its pairs.  Boundary point
k is cloud point n0 - m0 + k (geometry's tail invariant), so every
point-boundary and boundary-boundary pair is a searched pair or a
boundary point with itself.  assemble builds R_A, the coupling, Rb and
the forcing from the PairGraph and keeps it as NonlocalSystem.pairs,
from which the model variants take their kernel smoother and flux term.
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
class PairGraph:
    """Neighbour pairs of one (cloud, delta) inside the 2 delta horizon.

    i < j are the pairs of the one search, over all cloud points, in
    lexicographic order and bar their Kbar(p_i, p_j); bar0 is Kbar at
    distance zero.  rows, cols are the point-boundary pairs (p_r, q_k),
    sorted by point and then boundary index, with cross_bar =
    Kbar(p_r, q_k) and zeta = zeta(p_r, q_k) before normalization; as
    q_k is point n0 - m0 + k, they are taken from i, j.  A reduced-mode
    graph has none.
    """

    i: np.ndarray
    j: np.ndarray
    bar: np.ndarray
    bar0: float
    rows: np.ndarray
    cols: np.ndarray
    cross_bar: np.ndarray
    zeta: np.ndarray
    mode: str


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
    pairs: PairGraph             # the neighbour pairs it was built from
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


def _pair_order(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Argsort into lexicographic order of unique index pairs, by one int64 key."""
    return np.argsort(rows.astype(np.int64) * ncols + cols)


def _sym_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j, lexicographically sorted) within ``radius``, as int32."""
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    order = _pair_order(i, j, len(points))
    return i[order].astype(np.int32), j[order].astype(np.int32)


def pair_graph(cloud: PointCloud, delta: float | None = None,
               profile: KernelProfile | None = None,
               mode: str = "full") -> tuple[PairGraph, np.ndarray]:
    """Search the cloud's pairs within 2 delta and evaluate their kernels.

    Returns the PairGraph and the base kernel K(p_i, p_j) on its
    interior pairs, which only R_A reads.  A full-mode graph takes its
    point-boundary pairs from the same search.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    points, m, n0, m0 = cloud.points, cloud.m, cloud.n0, cloud.m0
    i, j = _sym_pairs(points, 2.0 * delta)
    sq = ((points[i] - points[j]) ** 2).sum(axis=1)
    base = pair_eval(profile, "base", sq, delta, m)
    bar = pair_eval(profile, "bar", sq, delta, m)
    bar0 = float(pair_eval(profile, "bar", 0.0, delta, m))
    rows = cols = np.empty(0, dtype=np.int32)
    cross_bar = zeta = np.empty(0)
    if mode == "full":
        # (i, j) with j in the tail gives (i, j - nb), with i in the tail
        # also (j, i - nb); each boundary point pairs with itself
        nb = n0 - m0
        hit, tail = j >= nb, i >= nb
        own = np.arange(nb, n0, dtype=np.int32)
        rows = np.concatenate([i[hit], j[tail], own])
        cols = np.concatenate([j[hit], i[tail], own]) - nb
        order = _pair_order(rows, cols, m0)
        rows, cols = rows[order], cols[order]
        cross_bar = np.concatenate([bar[hit], bar[tail], np.full(m0, bar0)])[order]
        disp = points[rows] - cloud.boundary[cols]
        zeta = -(disp * cloud.normals[cols]).sum(axis=1) * cross_bar
    graph = PairGraph(i=i, j=j, bar=bar, bar0=bar0, rows=rows, cols=cols,
                      cross_bar=cross_bar, zeta=zeta, mode=mode)
    return graph, base


def _pair_weights(i: np.ndarray, j: np.ndarray, kernel: np.ndarray,
                  weights: np.ndarray):
    """The pairs with nonzero weight kernel * w_i * w_j, and those weights."""
    w = kernel * weights[i] * weights[j]
    keep = w != 0.0
    return i[keep], j[keep], w[keep]


def _laplacian(n: int, i: np.ndarray, j: np.ndarray,
               w: np.ndarray) -> sparse.csr_matrix:
    """Graph Laplacian of the weighted pairs (i, j, w) on n nodes."""
    diag = np.bincount(i, weights=w, minlength=n) + \
        np.bincount(j, weights=w, minlength=n)
    off = sparse.coo_matrix(
        (np.concatenate([-w, -w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n))
    return (off + sparse.diags(diag)).tocsr()


def _boundary_edges(cloud: PointCloud, pairs: PairGraph):
    """Boundary pairs within 2 delta with their weights Kbar L_k L_l: the
    graph's pairs whose first, and so both, indices lie in the tail."""
    nb = cloud.n0 - cloud.m0
    first = int(np.searchsorted(pairs.i, nb))
    return _pair_weights(pairs.i[first:] - nb, pairs.j[first:] - nb,
                         pairs.bar[first:], cloud.L)


def interior_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Diffusion graph Laplacian R_A over all cloud points."""
    pairs, base = pair_graph(cloud, delta, profile, mode="reduced")
    return _laplacian(cloud.n0, *_pair_weights(pairs.i, pairs.j, base, cloud.A))


def boundary_laplacian(cloud: PointCloud, delta: float | None = None,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Boundary graph Laplacian with Kbar L L weights (C_R cancelled form)."""
    pairs, _ = pair_graph(cloud, delta, profile, mode="reduced")
    return _laplacian(cloud.m0, *_boundary_edges(cloud, pairs))


def _coupling(cloud: PointCloud, pairs: PairGraph) -> BoundaryCoupling:
    """The normalized coupling and the boundary Laplacian."""
    n0, m0 = cloud.n0, cloud.m0
    if pairs.mode == "reduced":
        return BoundaryCoupling(zeta=sparse.csr_matrix((n0, m0)),
                                omega_hat=np.zeros(m0),
                                RbarL=sparse.csr_matrix((m0, m0)),
                                L=np.zeros(m0))
    keep = pairs.zeta != 0.0
    rows, cols, vals = pairs.rows[keep], pairs.cols[keep], pairs.zeta[keep]
    omega = np.bincount(cols, weights=vals * cloud.A[rows], minlength=m0)
    bad = np.nonzero(omega <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise AssemblyError(
            f"omega(q_{k}) = {omega[k]:.3e} <= 0 at boundary point "
            f"{cloud.boundary[k]}; delta may be too large or the cloud too sparse")
    zeta = sparse.csr_matrix((vals / omega[cols], (rows, cols)), shape=(n0, m0))
    return BoundaryCoupling(zeta=zeta, omega_hat=omega,
                            RbarL=_laplacian(m0, *_boundary_edges(cloud, pairs)),
                            L=cloud.L)


def symmetric_product(B: sparse.spmatrix, M: sparse.spmatrix) -> sparse.csr_matrix:
    """B M B^T for a symmetric M, as C = B (M B^T) made exactly symmetric:
    IEEE addition commutes, so (C + C^T) / 2 has (i, j) = (j, i) bit for bit."""
    C = (B @ (M @ B.T)).tocsr()
    return ((C + C.T) * 0.5).tocsr()


def bar_matrix(pairs: PairGraph, n: int) -> sparse.csr_matrix:
    """Symmetric matrix of the graph's interior Kbar values, diagonal included."""
    keep = pairs.bar != 0.0
    i, j, bar = pairs.i[keep], pairs.j[keep], pairs.bar[keep]
    mat = sparse.coo_matrix(
        (np.concatenate([bar, bar]),
         (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    return (mat + sparse.diags(np.full(n, pairs.bar0))).tocsr()


def smoothed_forcing(cloud: PointCloud, pairs: PairGraph,
                     f: Callable[[np.ndarray], np.ndarray] | None = None
                     ) -> np.ndarray:
    """Kernel-smoothed forcing before any mean removal.

    fd_i = sum_j f(p_j) Kbar(p_i, p_j) A_j, plus the boundary coupling
    term sum_k f(q_k) zeta(p_i, q_k) L_k for a full-mode graph.
    """
    f = f or get_case(cloud.case_name).forcing
    fp = np.asarray(f(cloud.points), dtype=float)
    i, j, bar = pairs.i, pairs.j, pairs.bar
    fd = np.bincount(i, weights=bar * fp[j] * cloud.A[j], minlength=cloud.n0)
    fd += np.bincount(j, weights=bar * fp[i] * cloud.A[i], minlength=cloud.n0)
    fd += pairs.bar0 * fp * cloud.A
    if pairs.mode == "full":
        fq = np.asarray(f(cloud.boundary), dtype=float)
        cols = pairs.cols
        fd += np.bincount(pairs.rows, weights=pairs.zeta * fq[cols] * cloud.L[cols],
                          minlength=cloud.n0)
    return fd


def assemble(cloud: PointCloud, delta: float | None = None,
             profile: KernelProfile | None = None, mode: str = "full",
             f: Callable[[np.ndarray], np.ndarray] | None = None) -> NonlocalSystem:
    """Build the symmetric PSD system S U = A F for one cloud.

    mode "full" includes the boundary coupling; "reduced" keeps only the
    diffusion block (all boundary weights treated as zero).
    """
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    if cloud.A is None:
        raise ValueError("cloud has no volume weights; run volume_weights first")

    pairs, base = pair_graph(cloud, delta, profile, mode)
    RA = _laplacian(cloud.n0, *_pair_weights(pairs.i, pairs.j, base, cloud.A))
    del base
    S = RA.multiply(1.0 / (delta * delta)).tocsr()
    coupling = _coupling(cloud, pairs)
    if mode == "full":
        AZ = sparse.diags(cloud.A) @ coupling.zeta
        S = (S + 2.0 * symmetric_product(AZ, coupling.RbarL)).tocsr()

    fd = smoothed_forcing(cloud, pairs, f)
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
