"""Generalized models: absorption term, non-homogeneous flux, nonlinearity.

Three extensions of the base model share its diffusion and boundary
blocks:

* an absorption (reaction) term lambda(x) u, discretized in
  energy-consistent form through kernel-smoothed averages so the system
  becomes strictly positive definite and the mean-zero constraint is
  dropped;
* a prescribed non-homogeneous boundary flux g, which only changes the
  right side;
* a nonlinear absorption lambda u |u|^(2p-2), whose discrete energy J
  is strictly convex and is minimized by damped Newton iteration with
  energy backtracking.  The averages a = B^T U, B = [Pbar^T | AZ], stack
  the smoothed values ubar = Pbar U and the boundary trace
  uhat = (AZ)^T U.  With the weights w = lambda |a|^(2p-2) [omega2 A;
  omega_hat L] frozen at the iterate U, each step solves the Newton system

      H U* = A f_delta + (2p-2) B (w a),    H = S + B diag((2p-1) w) B^T,

  where H is the Hessian of J at U.  H and the absorption system, H at
  p = 1, are one AbsorptionOperator: B built once, applied matrix-free
  with the model's weights, and solved by two-level PCG.

The two-level preconditioner adds to Jacobi the Galerkin correction
Z E^-1 Z^T on a fixed smooth coarse basis Z: the ambient polynomials of
degree <= COARSE_DEGREE on the cloud, orthonormalized (nlpoisson.solver
runs it).  Jacobi alone leaves these smooth modes slow to converge.
AbsorptionBlocks caches Z^T S Z and B^T Z once, so each operator forms
E = Z^T H Z in O((n0 + m0) k^2) without another sparse product.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import sparse

from .assembly import (
    BoundaryCoupling,
    NonlocalSystem,
    assemble,
    bar_matrix,  # noqa: F401
    boundary_coupling,
    boundary_trace,
    interior_laplacian,  # noqa: F401
    pair_graph,
    smoothed_forcing,
    symmetric_product,
)
from .geometry import PointCloud, get_case
from .kernels import KernelProfile, cosine_profile
# bar_matrix, interior_laplacian and solve_mean_zero are not called here;
# they stay importable from this module with the other solver and assembly
# names that perfbench's traced runs wrap
from .solver import SolveResult, cg, solve_mean_zero, solve_spd  # noqa: F401

VARIANT_KINDS = ("lambda", "nonhomogeneous", "nonlinear")
THETA_MIN = 1.0 / 16.0
INNER_TOL = 1e-12  # relative residual target of every inner CG solve
COARSE_DEGREE = 2  # degree of the ambient polynomials spanning the coarse space


@dataclass
class VariantConfig:
    """Parameters of the generalized models.

    lam is a finite constant > 0, or a scalar field of finite nonnegative
    values for the lambda model; p >= 1, finite, the nonlinear exponent.  theta,
    picard_tol and picard_max bound the damped Newton steps of the
    nonlinear solve (the names date from the damped Picard iteration it
    replaced): at most picard_max steps, each line search starting at
    theta, stopping once a step moves no entry by more than picard_tol.
    """

    kind: str = "lambda"
    lam: float | Callable[[np.ndarray], np.ndarray] = 1.0
    p: float = 1.5
    theta: float = 1.0
    picard_tol: float = 1e-10
    picard_max: int = 50
    f: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(
                f"unknown variant kind {self.kind!r}; expected {VARIANT_KINDS}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("damping theta must lie in (0, 1]")
        if self.kind == "nonlinear":
            if not (np.isfinite(self.p) and self.p >= 1.0):
                raise ValueError("nonlinear exponent p must be finite and >= 1")
            if callable(self.lam):
                raise ValueError("nonlinear model takes a constant lambda")
        if self.kind != "nonhomogeneous" and not callable(self.lam):
            if not (np.isfinite(self.lam) and self.lam > 0.0):
                raise ValueError(f"{self.kind} model requires a finite lambda > 0")


def _lambda_values(lam, points: np.ndarray) -> np.ndarray:
    vals = lam(points) if callable(lam) else np.full(points.shape[0], float(lam))
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals) & (vals >= 0)):
        raise ValueError("lambda must be finite and nonnegative")
    return vals


def assemble_lambda(cloud: PointCloud, delta: float | None = None,
                    profile: KernelProfile | None = None,
                    lam: float | Callable = 1.0,
                    f: Callable | None = None) -> NonlocalSystem:
    """System for the absorption model; strictly PD for lambda > 0.

    The right side keeps the smoothed forcing without mean removal: the
    mean-zero constraint no longer applies.
    """
    base = assemble(cloud, delta, profile, mode="full", f=f)
    lam_p = _lambda_values(lam, cloud.points)
    blocks = AbsorptionBlocks(base)
    # boundary point k is cloud point n0 - m0 + k
    w = np.concatenate([lam_p, lam_p[cloud.n0 - cloud.m0:]]) * blocks.measure
    S = AbsorptionOperator(blocks, w)
    return replace(base, S=S, rhs=cloud.A * base.f_delta, mean_shift=0.0,
                   variant="lambda")


def source_nonhomogeneous(cloud: PointCloud, delta: float | None = None,
                          profile: KernelProfile | None = None,
                          f: Callable | None = None,
                          g: Callable | None = None) -> tuple[np.ndarray, float]:
    """Source with boundary-flux data folded in, A-weighted mean removed.

    F_i = fd_i + sum_k (2 Kbar(p_i, q_k) + zeta(p_i, q_k)) g(q_k) L_k,
    minus the constant that zeroes sum_i F_i A_i.  Warns when the discrete
    compatibility sum(f A) + sum(g L) exceeds 1e-3 in relative size.
    Normalizing zeta, it raises AssemblyError where assemble would.
    """
    pairs, _ = pair_graph(cloud, delta, profile)
    coupling = boundary_coupling(cloud, pairs)
    fd = smoothed_forcing(cloud, pairs, coupling, f)
    return _flux_source(cloud, pairs, coupling, f, g, fd)


def _flux_source(cloud: PointCloud, pairs: sparse.csr_matrix,
                 coupling: BoundaryCoupling, f: Callable | None,
                 g: Callable | None, fd: np.ndarray) -> tuple[np.ndarray, float]:
    """source_nonhomogeneous from the pattern, coupling and fd = smoothed f."""
    if g is not None:
        f = f or get_case(cloud.case_name).forcing
        gq = np.asarray(g(cloud.boundary), dtype=float)
        fp = np.asarray(f(cloud.points), dtype=float)
        comp = float(fp @ cloud.A + gq @ cloud.L)
        scale = float(np.abs(fp) @ cloud.A + np.abs(gq) @ cloud.L)
        if scale > 0 and abs(comp) > 1e-3 * scale:
            warnings.warn(
                f"discrete compatibility violated: sum(f A) + sum(g L) = "
                f"{comp:.3e} ({abs(comp) / scale:.2e} relative)")
        # boundary point k is cloud point n0 - m0 + k
        gL = gq * cloud.L
        fd = (fd + 2.0 * (pairs[:, cloud.n0 - cloud.m0:] @ gL)
              + coupling.zeta @ (coupling.omega_hat * gL))
    shift = float(fd @ cloud.A / cloud.A.sum())
    return fd - shift, shift


def assemble_nonhomogeneous(cloud: PointCloud, delta: float | None = None,
                            profile: KernelProfile | None = None,
                            f: Callable | None = None,
                            g: Callable | None = None) -> NonlocalSystem:
    """Base full-model system with the non-homogeneous right side."""
    base = assemble(cloud, delta, profile, mode="full", f=f)
    F, shift = _flux_source(cloud, base.pairs, base.coupling, f, g,
                            base.f_delta)
    return replace(base, rhs=cloud.A * F, f_delta=F + shift, mean_shift=shift,
                   variant="nonhomogeneous")


def smooth_basis(points: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the ambient polynomials of degree at most
    COARSE_DEGREE sampled at the points, constant included.

    The monomials are orthonormalized by SVD; singular values below 1e-10
    of the largest are dropped, which removes the polynomials that vanish
    on the manifold (|x|^2 - 1 on a sphere).
    """
    n, d = points.shape
    cols = [np.ones(n)]
    for degree in range(1, COARSE_DEGREE + 1):
        for idx in itertools.combinations_with_replacement(range(d), degree):
            cols.append(np.prod(points[:, idx], axis=1))
    Q, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
    return np.ascontiguousarray(Q[:, s > 1e-10 * s[0]])


class AbsorptionBlocks:
    """Fixed blocks of every absorption operator on a full-mode base system:
    B = [Pbar^T | AZ], n0 x (n0 + m0), with the row-stochastic smoother
    Pbar_ji = Kbar(p_j, p_i) A_i / omega2_j, omega2_j = sum_i Kbar(p_j, p_i)
    A_i, on the Kbar pattern base.pairs, and AZ = diag(A) zeta; measure =
    [omega2 A; omega_hat L] weighs the averages a = B^T U.  Z is the smooth
    coarse basis of the two-level PCG, with its products Z^T S Z and B^T Z."""

    def __init__(self, base: NonlocalSystem):
        self.base = base
        Kbar = base.pairs
        self.omega2 = Kbar @ base.A
        if np.any(self.omega2 <= 0.0):
            j = int(np.argmin(self.omega2))
            raise ValueError(f"smoothing mass w2({j}) = {self.omega2[j]:.3e} <= 0")
        # Pbar^T_ij = A_i Kbar_ij / omega2_j, on the pattern
        PbarT = sparse.csr_matrix(
            (np.repeat(base.A, np.diff(Kbar.indptr)) * Kbar.data
             * (1.0 / self.omega2)[Kbar.indices], Kbar.indices, Kbar.indptr),
            shape=Kbar.shape)
        self.B = sparse.hstack([PbarT, sparse.diags(base.A) @ base.coupling.zeta],
                               format="csr")
        self.BT = self.B.T.tocsr()
        self.B_sq = self.B.power(2)
        self.S_diag = base.S.diagonal()
        self.measure = np.concatenate([self.omega2 * base.A,
                                       base.coupling.omega_hat * base.coupling.L])
        self.Z = smooth_basis(base.cloud.points)
        self.ZtSZ = self.Z.T @ (base.S @ self.Z)
        self.BtZ = self.BT @ self.Z


@dataclass(eq=False)
class AbsorptionOperator:
    """S + B diag(w) B^T, applied matrix-free from fixed AbsorptionBlocks:
    the lambda model and each Newton step differ only in the weights w,
    one per average.  coarse_space() gives the two-level PCG its
    Galerkin matrix; materialize() multiplies the operator out, for export
    and tests."""

    blocks: AbsorptionBlocks
    w: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        b = self.blocks
        return b.base.S @ x + b.B @ (self.w * (b.BT @ x))

    def diagonal(self) -> np.ndarray:
        b = self.blocks
        return b.S_diag + b.B_sq @ self.w

    def coarse_space(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks' coarse basis Z and E = Z^T (S + B diag(w) B^T) Z,
        symmetrized, from the cached Z^T S Z and B^T Z."""
        b = self.blocks
        E = b.ZtSZ + b.BtZ.T @ (self.w[:, None] * b.BtZ)
        return b.Z, 0.5 * (E + E.T)

    def materialize(self) -> sparse.csr_matrix:
        """The operator multiplied out by symmetric_product."""
        b = self.blocks
        return (b.base.S + symmetric_product(b.B, sparse.diags(self.w))).tocsr()


class _NonlinearWork(AbsorptionBlocks):
    """The absorption blocks with the nonlinear model's Newton systems and
    energy."""

    def __init__(self, cloud: PointCloud, delta: float, profile: KernelProfile,
                 config: VariantConfig):
        if cloud.m > 2 and config.p >= cloud.m / (cloud.m - 2):
            warnings.warn(
                f"exponent p = {config.p} is not subcritical for m = {cloud.m}"
                f" (p < {cloud.m / (cloud.m - 2):.3g} expected)")
        self.cloud = cloud
        self.config = config
        super().__init__(assemble(cloud, delta, profile, mode="full",
                                  f=config.f))
        self.rhs = cloud.A * self.base.f_delta

    def _weights(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The averages a = B^T U and the absorption weights frozen at U."""
        lam, p = float(self.config.lam), self.config.p
        a = self.BT @ U
        return a, lam * np.abs(a) ** (2.0 * p - 2.0) * self.measure

    def frozen(self, U: np.ndarray) -> AbsorptionOperator:
        """The system with lambda |u|^(2p-2) frozen at U.

        frozen(U) @ U - rhs is the gradient of the energy at U.
        """
        return AbsorptionOperator(self, self._weights(U)[1])

    def newton(self, U: np.ndarray) -> tuple[AbsorptionOperator, np.ndarray]:
        """Hessian H of the energy at U and the Newton right side.

        H is the frozen system with its weights scaled by 2p - 1; the
        right side is rhs + (2p-2) B (w a), so H U* = rhs' puts the
        Newton step at U* - U.  At p = 1 both are the frozen system and
        rhs themselves.
        """
        p = self.config.p
        a, w = self._weights(U)
        hessian = AbsorptionOperator(self, (2.0 * p - 1.0) * w)
        # scaling B (w a), not B, keeps the product a matvec
        rhs = self.rhs + (2.0 * p - 2.0) * (self.B @ (w * a))
        return hessian, rhs

    def frozen_solve(self, U: np.ndarray, tol: float) -> SolveResult:
        """Two-level PCG on the Newton system at U, started from U."""
        hessian, rhs = self.newton(U)
        system = replace(self.base, S=hessian, rhs=rhs, mean_shift=0.0)
        return solve_spd(system, tol=tol, max_iter=20 * self.cloud.n0, x0=U)

    def energy(self, U: np.ndarray) -> float:
        """Discrete energy whose critical points solve the discrete model.

        Three terms: U^T S U / 2, the absorption over the averages
        a = B^T U, minus the source pairing.  Its gradient is exactly
        (S + frozen absorption) U - A f_delta.
        """
        lam, p = float(self.config.lam), self.config.p
        # the diffusion (1/4 delta^2) sum_ij (u_i - u_j)^2 K A A plus
        # V^T RbarL V is U^T S U / 2: S = RA / delta^2 + 2 AZ RbarL AZ^T
        # and V = AZ^T U
        quad = 0.5 * float(U @ (self.base.S @ U))
        absorption = lam / (2.0 * p) * float(
            self.measure @ np.abs(self.BT @ U) ** (2.0 * p))
        source = -float((U * self.base.f_delta) @ self.cloud.A)
        return quad + absorption + source


def nonlinear_solve(cloud: PointCloud, delta: float | None = None,
                    profile: KernelProfile | None = None,
                    config: VariantConfig | None = None) -> SolveResult:
    """Damped Newton iteration on the discrete energy J.

    Each step solves the Newton system H U* = ... of the module docstring
    by two-level PCG started from U, without forming H, and moves to
    U + theta (U* - U).  theta starts at config.theta every step and is
    halved while the energy would rise (not below 1/16, after which the
    step is accepted and the result flagged).  At most config.picard_max
    steps are taken.  The returned residual is the relative residual
    |frozen(U) U - A f_delta| / |A f_delta| of the discrete nonlinear
    system, the relative gradient of J, at the final iterate; converged
    requires both the last step size and that residual to be at most
    config.picard_tol, and reason says which held: "converged", "stalled"
    (the step only) or "max_iter" (picard_max steps, the last one larger).
    inner_iterations and inner_misses report the inner CG solves and
    leave converged unaffected.
    """
    delta = cloud.delta if delta is None else delta
    profile = profile or cosine_profile()
    config = config or VariantConfig(kind="nonlinear")
    work = _NonlinearWork(cloud, delta, profile, config)
    rhs = work.rhs
    rnorm = float(np.linalg.norm(rhs))

    if rnorm == 0.0:
        U = np.zeros(cloud.n0)
        V = np.zeros(cloud.m0)
        return SolveResult(U=U, V=V, residual=0.0, iterations=0, converged=True,
                           reason="converged", energy_history=[work.energy(U)],
                           energy_monotone=True, inner_iterations=0,
                           inner_misses=0)

    # start from the base model's mean-zero solution (solve_mean_zero's
    # CG and shift, without the boundary trace it would add)
    U, _, inner_iterations, ok, _ = cg(work.base.S, work.base.rhs,
                                       tol=INNER_TOL)
    U = U - float(U @ cloud.A / cloud.A.sum())
    inner_misses = int(not ok)
    energies = [work.energy(U)]
    monotone = True
    step_size = np.inf
    steps = 0
    slack = 1e-12
    for steps in range(1, config.picard_max + 1):
        inner = work.frozen_solve(U, INNER_TOL)
        inner_iterations += inner.iterations
        inner_misses += int(not inner.converged)
        Ustar = inner.U
        theta = config.theta
        while True:
            trial = (1.0 - theta) * U + theta * Ustar
            J_trial = work.energy(trial)
            if J_trial <= energies[-1] + slack * max(1.0, abs(energies[-1])):
                break
            if theta <= THETA_MIN:
                monotone = False
                break
            theta = 0.5 * theta
        step_size = float(np.max(np.abs(trial - U)))
        U = trial
        energies.append(J_trial)
        if step_size <= config.picard_tol:
            break

    residual = float(np.linalg.norm(work.frozen(U) @ U - rhs)) / rnorm
    stopped = step_size <= config.picard_tol
    converged = stopped and residual <= config.picard_tol
    reason = "converged" if converged else "stalled" if stopped else "max_iter"
    V = boundary_trace(work.base.coupling, cloud.A, U)
    return SolveResult(U=U, V=V, residual=residual, iterations=steps,
                       converged=converged, reason=reason,
                       energy_history=energies, energy_monotone=monotone,
                       inner_iterations=inner_iterations,
                       inner_misses=inner_misses)
