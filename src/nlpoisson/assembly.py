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
the null space.  The reduced model keeps only the diffusion block: its
Z and Rb are zero blocks with no stored entry.  Assembly does not
multiply the blocks out: NeumannOperator holds R_A / delta^2, AZ = A Z
and Rb in both modes, and applies S as R_A x / delta^2 +
2 AZ (Rb (AZ^T x)), where the boundary term lives only on the 2 delta
boundary layer.  S itself is built only when something asks for the
matrix (NonlocalSystem.S): symmetric_product forms the boundary block
with B = A Z as C = B (Rb B^T) and returns (C + C^T) / 2, so S is
exactly symmetric, bit for bit.

Every block and the smoothed forcing are sums over pairs inside the
2 delta interaction horizon, so all of them are built on one pattern.
pair_graph makes the one neighbour search per (cloud, delta) and returns
it as the symmetric Kbar matrix NonlocalSystem.pairs: every searched
pair in both orders and each point with itself, Kbar at distance zero on
the diagonal, together with the half-pair list: the p pairs i < j, the
base kernel K on them, and the map from the pattern's entries to their
pair.  R_A is a Laplacian on the whole pattern whose weights
K(p_i, p_j) A_i A_j are formed once per pair and placed by that map, its
diagonal the row sums.  Boundary point k is
cloud point n0 - m0 + k (geometry's tail invariant), so zeta and its
normalization come from the pattern's last m0 columns, Rb is a Laplacian
on its trailing m0 x m0 block, and the smoothed forcing is a matvec with
it plus one with zeta; the absorption models take their kernel smoother
from the same matrix.  Its entries are in sorted index order, so
assembly is bit-reproducible.

A prescribed boundary flux g only changes the right side: assemble(...,
g=g) builds the non-homogeneous Neumann model, whose smoothed source
adds sum_k (2 Kbar(p_i, q_k) + zeta(p_i, q_k)) g(q_k) L_k from the same
two matrices.  The horizon delta is always cloud.delta; a caller that
wants another one passes dataclasses.replace(cloud, delta=...).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(eq=False)
class NeumannOperator:
    """S = RA + 2 AZ RbarL AZ^T, applied from its blocks: RA = R_A / delta^2
    on the pair pattern, AZ = diag(A) zeta and the boundary Laplacian RbarL.
    In reduced mode AZ and RbarL are the coupling's zero blocks, n0 x m0
    and m0 x m0 with no stored entry, so S is RA, and the apply and the
    diagonal skip the boundary term whenever AZ stores nothing.  AZT is a
    view of AZ's arrays, made once."""

    RA: sparse.csr_matrix
    AZ: sparse.csr_matrix
    RbarL: sparse.csr_matrix

    def __post_init__(self):
        self.AZT = self.AZ.T

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x for a vector or an (n, k) block; the boundary term touches
        only the rows of the boundary layer."""
        y = self.RA @ x
        if self.AZ.nnz:
            v = self.RbarL @ (self.AZT @ x)
            v *= 2.0
            y += self.AZ @ v
        return y

    def diagonal(self) -> np.ndarray:
        """diag(RA) + 2 rowsum((AZ RbarL) * AZ), with no n0 x n0 product."""
        d = self.RA.diagonal()
        if self.AZ.nnz:
            cross = (self.AZ @ self.RbarL).multiply(self.AZ)
            d += 2.0 * (cross @ np.ones(cross.shape[1]))
        return d

    def materialize(self) -> sparse.csr_matrix:
        """S multiplied out by symmetric_product."""
        return (self.RA + 2.0 * symmetric_product(self.AZ, self.RbarL)).tocsr()


@dataclass
class NonlocalSystem:
    """S U = rhs on one cloud: rhs = A (f_delta - f_delta @ A / sum(A)),
    orthogonal to the constants, except the absorption models' A f_delta.

    operator is what the solvers apply: a NeumannOperator, or an absorption
    model's operator.  S is that operator multiplied out, built on first
    access and kept; a solve never builds it."""

    operator: NeumannOperator    # or an operator with @, diagonal(), materialize()
    rhs: np.ndarray
    coupling: BoundaryCoupling
    mode: str
    cloud: PointCloud
    f_delta: np.ndarray          # smoothed source before mean removal
    pairs: sparse.csr_matrix     # Kbar on the 2 delta pattern of every block
    variant: str = "none"        # model variant this system discretizes

    A = property(lambda self: self.cloud.A)
    delta = property(lambda self: self.cloud.delta)

    @cached_property
    def S(self) -> sparse.csr_matrix:
        """The operator as a CSR matrix, for export, eigensolvers and tests."""
        return self.operator.materialize()


def _sym_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j, lexicographically sorted) within ``radius``, as int32.

    The pairs are sorted as the keys i n + j, which are distinct, so
    sorting the keys and splitting them back gives the order an argsort
    would, without its gathers."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    key = pairs[:, 0].astype(np.int64) * n
    key += pairs[:, 1]
    del pairs
    key.sort()
    i = key // n
    key -= i * n
    return i.astype(np.int32), key.astype(np.int32)


def pair_graph(cloud: PointCloud, *, profile: KernelProfile | None = None
               ) -> tuple[sparse.csr_matrix, tuple[np.ndarray, ...]]:
    """The cloud's pair pattern within 2 delta, as the symmetric Kbar matrix,
    and its half-pair list.

    One neighbour search over all cloud points gives the p pairs i < j; the
    pattern holds each in both orders, Kbar(p_i, p_j), and each point with
    itself, Kbar at distance zero.  The half-pair list (i, j, K, entry) is
    what only R_A reads: the pairs as int32 arrays in lexicographic order,
    the base kernel K(p_i, p_j) on them (p + 1 values, the last at distance
    zero), and entry, the pattern's entries in its own order mapped to
    their pair, p for a point with itself, so that K[entry] is the base
    kernel in entry order.

    The squared pair distances add up one coordinate at a time, each a
    1-D gather of that coordinate, in the order a row sum over the
    coordinate axis takes, so they round as that sum does.  Both kernel
    levels are taken from them, once per pair, before the pattern is
    built, and Kbar is placed on the pattern with one gather.
    """
    profile = profile or cosine_profile()
    points, m, n, delta = cloud.points, cloud.m, cloud.n0, cloud.delta
    i, j = _sym_pairs(points, 2.0 * delta)
    p = len(i)
    sq = np.zeros(p + 1)
    for x in points.T:
        dx = x.take(i)
        dx -= x.take(j)
        dx *= dx
        sq[:p] += dx
    del dx
    K = pair_eval(profile, "base", sq, delta, m)
    bar = pair_eval(profile, "bar", sq, delta, m)
    del sq
    ids, own = np.arange(p, dtype=np.int32), np.arange(n, dtype=np.int32)
    # entry p is a point with itself; fed as [lower triangle, diagonal,
    # upper triangle] with the pairs in order, the conversion's stable row
    # bucketing leaves every row's columns sorted
    entry = sparse.coo_matrix(
        (np.concatenate([ids, np.full(n, p, np.int32), ids]),
         (np.concatenate([j, own, i]), np.concatenate([i, own, j]))),
        shape=(n, n)).tocsr()
    del ids
    Kbar = sparse.csr_matrix((bar.take(entry.data), entry.indices,
                              entry.indptr), shape=(n, n))
    return Kbar, (i, j, K, entry.data)


def _laplacian(pattern: sparse.csr_matrix, data: np.ndarray,
               diag: np.ndarray) -> sparse.csr_matrix:
    """Graph Laplacian on a square pattern that holds its whole diagonal,
    from minus its pair weights in the pattern's entry order, filled in
    place: those off the diagonal stay, and each diagonal entry, at the
    entry positions diag, becomes its row's off-diagonal sum."""
    n = pattern.shape[0]
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    data[diag] = 0.0
    data[diag] = -np.bincount(rows, weights=data, minlength=n)
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                             shape=(n, n))


def _diffusion_block(cloud: PointCloud, profile: KernelProfile | None
                     ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """pair_graph's pattern and R_A on it.  The pair weights K (A_i A_j)
    are formed once per pair of the half-pair list, in K's own buffer, and
    placed in entry order by one gather; each half-pair array is dropped
    once read, so no more than one entry-order array is held at a time."""
    pairs, (i, j, K, entry) = pair_graph(cloud, profile=profile)
    w = cloud.A.take(i)
    w *= cloud.A.take(j)
    K[:len(i)] *= w
    del w
    np.negative(K, out=K)
    # a row's entries past its diagonal are its pairs with that row as i
    upper = np.diff(np.searchsorted(i, np.arange(cloud.n0 + 1)))
    del i, j
    data = K.take(entry)
    del K, entry
    return pairs, _laplacian(pairs, data, pairs.indptr[1:] - 1 - upper)


def _boundary_block(pairs: sparse.csr_matrix, L: np.ndarray) -> sparse.csr_matrix:
    """Kbar L L graph Laplacian on the pattern's trailing m0 x m0 block."""
    nb = pairs.shape[0] - len(L)
    tail = pairs[nb:, nb:]
    ends = tail.tocoo()
    data = -(tail.data * (L[ends.row] * L[ends.col]))
    return _laplacian(tail, data, np.flatnonzero(ends.row == ends.col))


def interior_laplacian(cloud: PointCloud, *,
                       profile: KernelProfile | None = None) -> sparse.csr_matrix:
    """Diffusion graph Laplacian R_A over all cloud points."""
    return _diffusion_block(cloud, profile)[1]


def boundary_coupling(cloud: PointCloud,
                      pairs: sparse.csr_matrix) -> BoundaryCoupling:
    """The normalized coupling, from the pattern's last m0 columns, and the
    boundary Laplacian, from its trailing block."""
    n0, m0 = cloud.n0, cloud.m0
    # Kbar(p_r, q_k): the pattern is symmetric, so the last m0 columns are
    # the transposed last m0 rows, which a row slice takes without scipy's
    # column-slicing pass; the conversion leaves each row's columns sorted
    cross = pairs[n0 - m0:].T.tocsr()
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
                     f: Callable[[np.ndarray], np.ndarray] | None = None,
                     g: Callable[[np.ndarray], np.ndarray] | None = None
                     ) -> np.ndarray:
    """Kernel-smoothed source before any mean removal.

    fd_i = sum_j Kbar(p_i, p_j) f(p_j) A_j, plus the boundary coupling
    term sum_k zeta(p_i, q_k) f(q_k) L_k, zero in reduced mode.  A flux g
    adds sum_k (2 Kbar(p_i, q_k) + zeta(p_i, q_k)) g(q_k) L_k, and warns
    when the discrete compatibility sum(f A) + sum(g L) exceeds 1e-3 in
    relative size.
    """
    f = f or get_case(cloud.case_name).forcing
    fp = np.asarray(f(cloud.points), dtype=float)
    fd = pairs @ (fp * cloud.A)
    # boundary point k is cloud point n0 - m0 + k
    fq = fp[cloud.n0 - cloud.m0:]
    fd = fd + coupling.zeta @ (coupling.omega_hat * fq * coupling.L)
    if g is None:
        return fd
    gq = np.asarray(g(cloud.boundary), dtype=float)
    comp = float(fp @ cloud.A + gq @ coupling.L)
    scale = float(np.abs(fp) @ cloud.A + np.abs(gq) @ coupling.L)
    if scale > 0 and abs(comp) > 1e-3 * scale:
        warnings.warn(
            f"discrete compatibility violated: sum(f A) + sum(g L) = "
            f"{comp:.3e} ({abs(comp) / scale:.2e} relative)")
    gL = gq * coupling.L
    return (fd + 2.0 * (pairs[:, cloud.n0 - cloud.m0:] @ gL)
            + coupling.zeta @ (coupling.omega_hat * gL))


def assemble(cloud: PointCloud, *, profile: KernelProfile | None = None,
             mode: str = "full",
             f: Callable[[np.ndarray], np.ndarray] | None = None,
             g: Callable[[np.ndarray], np.ndarray] | None = None
             ) -> NonlocalSystem:
    """Build the symmetric PSD system S U = A F for one cloud, at its delta.

    mode "full" includes the boundary coupling; "reduced" keeps only the
    diffusion block (all boundary weights treated as zero), its coupling
    and the operator's AZ and RbarL being zero blocks.  f is the
    forcing, the case's own by default.  A boundary flux g, full mode
    only, gives the non-homogeneous Neumann model: the same S, with g in
    the smoothed source (see smoothed_forcing) and variant
    "nonhomogeneous".  Full mode needs cloud.A, cloud.L and
    cloud.normals; reduced mode only cloud.A.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if g is not None and mode != "full":
        raise ValueError("a boundary flux g needs mode 'full'")
    if cloud.A is None:
        raise ValueError("cloud has no volume weights; run volume_weights first")
    if mode == "full" and cloud.L is None:
        raise ValueError("cloud has no boundary weights; run boundary_weights first")
    if mode == "full" and cloud.normals is None:
        raise ValueError("cloud has no co-normals; "
                         "set cloud.normals = case.conormal(cloud.boundary)")

    pairs, RA = _diffusion_block(cloud, profile)
    RA.data *= 1.0 / (cloud.delta * cloud.delta)
    n0, m0 = cloud.n0, cloud.m0
    if mode == "full":
        coupling = boundary_coupling(cloud, pairs)
    else:
        coupling = BoundaryCoupling(zeta=sparse.csr_matrix((n0, m0)),
                                    omega_hat=np.zeros(m0),
                                    RbarL=sparse.csr_matrix((m0, m0)),
                                    L=np.zeros(m0))
    zeta = coupling.zeta
    AZ = sparse.csr_matrix(
        (zeta.data * np.repeat(cloud.A, np.diff(zeta.indptr)), zeta.indices,
         zeta.indptr), shape=zeta.shape)  # diag(A) zeta, row by row
    operator = NeumannOperator(RA, AZ, coupling.RbarL)

    fd = smoothed_forcing(cloud, pairs, coupling, f, g)
    shift = float(fd @ cloud.A / cloud.A.sum())
    rhs = cloud.A * (fd - shift)
    return NonlocalSystem(operator=operator, rhs=rhs, coupling=coupling,
                          mode=mode, cloud=cloud, f_delta=fd, pairs=pairs,
                          variant="none" if g is None else "nonhomogeneous")


def boundary_trace(coupling: BoundaryCoupling, A: np.ndarray,
                   U: np.ndarray) -> np.ndarray:
    """Boundary values V_k = (1/omega_k) sum_i u_i zeta(p_i, q_k) A_i.

    No solve computes V; a caller that wants it passes the solved U."""
    return coupling.zeta.T @ (A * U)


def export_matrix(system: NonlocalSystem, path) -> None:
    """Write S as coordinate text and .meta."""
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
