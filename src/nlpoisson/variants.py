"""Generalized models: absorption term and nonlinear absorption.

Two extensions of the base model share its diffusion and boundary
blocks (the third, a prescribed non-homogeneous boundary flux g, only
changes the right side and is built by assembly.assemble(..., g=g)):

* an absorption (reaction) term lambda(x) u, discretized in
  energy-consistent form through kernel-smoothed averages so the system
  becomes strictly positive definite and the mean-zero constraint is
  dropped;
* a nonlinear absorption lambda u |u|^(2p-2), whose discrete energy J
  is strictly convex and is minimized by damped Newton iteration whose
  backtracking takes no step that raises J.  The averages a = B^T U,
  B = [Pbar^T | AZ], stack the smoothed values ubar = Pbar U and the
  boundary trace uhat = (AZ)^T U.  With the weights w = lambda |a|^(2p-2)
  [omega2 A; omega_hat L] frozen at the iterate U, each step solves the
  Newton system

      H U* = A f_delta + (2p-2) B (w a),    H = S + B diag((2p-1) w) B^T,

  where H is the Hessian of J at U, and the gradient of J at U is
  g = S U + B (w a) - A f_delta.  Each iterate is evaluated once: one
  S U and one a = B^T U give J, and one B (w a) from them gives g, H and
  the right side.  H and the absorption system, H at p = 1, are one
  AbsorptionOperator: B built once, applied matrix-free with the model's
  weights over the base system's factored operator S, and solved by
  two-level PCG.  Each Newton system is solved only as far as its step
  needs (inexact Newton): to the forcing term eta_k = min(FORCING_MAX,
  |g_k| / |A f_delta|) of the gradient g_k of J at U, which keeps the
  convergence quadratic (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
  Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996),
  and the start, the base model's solution, only to START_TOL.

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
    NonlocalSystem,
    assemble,
    bar_matrix,  # noqa: F401
    boundary_trace,
    interior_laplacian,  # noqa: F401
    symmetric_product,
)
from .geometry import PointCloud
from .kernels import KernelProfile
# bar_matrix, interior_laplacian and solve_mean_zero are not called here;
# they stay importable from this module with the other solver and assembly
# names that perfbench's traced runs wrap
from .solver import SolveResult, cg, solve_mean_zero, solve_spd  # noqa: F401

# An inner CG solve stops once |r| <= max(INNER_TOL |b|, eta |g|): INNER_TOL
# is the floor of every solve's relative residual, and the forcing term eta
# of a Newton step is |g| / |A f_delta|, capped at FORCING_MAX.  The start
# solve, whose result is only the first iterate, stops at START_TOL.
INNER_TOL = 1e-12
FORCING_MAX = 0.1
START_TOL = 1e-3
COARSE_DEGREE = 2  # degree of the ambient polynomials spanning the coarse space


@dataclass
class VariantConfig:
    """Parameters of the nonlinear absorption model lambda u |u|^(2p-2).

    kind names that model, "nonlinear", and takes no other value.  lam is
    a finite constant > 0; p >= 1, finite, the exponent.  theta,
    picard_tol and picard_max bound the damped Newton steps of
    nonlinear_solve (the names date from the damped Picard iteration it
    replaced): at most picard_max steps, an integer >= 1, each line search
    starting at theta, stopping once a step moves no entry by more than
    picard_tol, finite and > 0.  No number may be a bool.  f is the
    forcing, the case's own by default.
    """

    kind: str = "nonlinear"
    lam: float = 1.0
    p: float = 1.5
    theta: float = 1.0
    picard_tol: float = 1e-10
    picard_max: int = 50
    f: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind != "nonlinear":
            raise ValueError(f"VariantConfig configures the nonlinear model, "
                             f"not {self.kind!r}")
        for name in ("lam", "p", "theta", "picard_tol", "picard_max"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} = {getattr(self, name)!r}: a bool "
                                 f"is not a number")
        if callable(self.lam) or not (np.isfinite(self.lam)
                                      and self.lam > 0.0):
            raise ValueError("nonlinear model requires a constant lambda, "
                             "finite and > 0")
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise ValueError("nonlinear exponent p must be finite and >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("damping theta must lie in (0, 1]")
        if not (isinstance(self.picard_max, (int, np.integer))
                and self.picard_max >= 1):
            raise ValueError("picard_max must be an integer >= 1")
        if not (np.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError("picard_tol must be finite and > 0")


def _lambda_values(lam, points: np.ndarray) -> np.ndarray:
    vals = lam(points) if callable(lam) else np.full(points.shape[0], float(lam))
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals) & (vals >= 0)):
        raise ValueError("lambda must be finite and nonnegative")
    return vals


def assemble_lambda(cloud: PointCloud, *,
                    profile: KernelProfile | None = None,
                    lam: float | Callable = 1.0,
                    f: Callable | None = None) -> NonlocalSystem:
    """System for the absorption model; strictly PD for lambda > 0.

    The right side keeps the smoothed forcing without mean removal: the
    mean-zero constraint no longer applies.
    """
    base = assemble(cloud, profile=profile, mode="full", f=f)
    lam_p = _lambda_values(lam, cloud.points)
    blocks = AbsorptionBlocks(base)
    # boundary point k is cloud point n0 - m0 + k
    w = np.concatenate([lam_p, lam_p[cloud.n0 - cloud.m0:]]) * blocks.measure
    return replace(base, operator=AbsorptionOperator(blocks, w),
                   rhs=cloud.A * base.f_delta, variant="lambda")


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
    A_i, on the Kbar pattern base.pairs, and AZ = diag(A) zeta, the base
    operator's own block; measure = [omega2 A; omega_hat L] weighs the
    averages a = B^T U.  BT is a view of B's arrays, and Bsq holds B's
    squared entries on B's index arrays, for the diagonal of every
    operator.  S is applied as base.operator, and its diagonal S_diagonal
    kept once for the Jacobi part of every solve.  Z is the smooth coarse
    basis of the two-level PCG, with its products Z^T S Z and B^T Z."""

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
        S = base.operator
        self.B = sparse.hstack([PbarT, S.AZ], format="csr")
        # sorted once: AZ's columns come out of the product unsorted, and a
        # later in-place sort would change the view BT under a running solve
        self.B.sort_indices()
        self.BT = self.B.T
        self.Bsq = sparse.csr_matrix(
            (self.B.data ** 2, self.B.indices, self.B.indptr), shape=self.B.shape)
        self.measure = np.concatenate([self.omega2 * base.A,
                                       base.coupling.omega_hat * base.coupling.L])
        self.S_diagonal = S.diagonal()
        self.Z = smooth_basis(base.cloud.points)
        self.ZtSZ = self.Z.T @ (S @ self.Z)
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
        return b.base.operator @ x + b.B @ (self.w * (b.BT @ x))

    def diagonal(self) -> np.ndarray:
        b = self.blocks
        return b.S_diagonal + b.Bsq @ self.w

    def coarse_space(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks' coarse basis Z and E = Z^T (S + B diag(w) B^T) Z,
        symmetrized, from the cached Z^T S Z and B^T Z."""
        b = self.blocks
        E = b.ZtSZ + b.BtZ.T @ (self.w[:, None] * b.BtZ)
        return b.Z, 0.5 * (E + E.T)

    def materialize(self) -> sparse.csr_matrix:
        """The operator multiplied out by symmetric_product, on the base
        system's matrix S."""
        b = self.blocks
        return (b.base.S + symmetric_product(b.B, sparse.diags(self.w))).tocsr()


class _NonlinearWork(AbsorptionBlocks):
    """The absorption blocks with the nonlinear model's energy and Newton
    system."""

    def __init__(self, cloud: PointCloud, profile: KernelProfile | None,
                 config: VariantConfig):
        if cloud.m > 2 and config.p >= cloud.m / (cloud.m - 2):
            warnings.warn(
                f"exponent p = {config.p} is not subcritical for m = {cloud.m}"
                f" (p < {cloud.m / (cloud.m - 2):.3g} expected)")
        self.config = config
        super().__init__(assemble(cloud, profile=profile, mode="full",
                                  f=config.f))
        self.rhs = cloud.A * self.base.f_delta

    def energy(self, U: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The discrete energy J(U), whose critical points solve the
        discrete model, with the two products it reads, S U and the
        averages a = B^T U, for newton().

        Three terms: U^T S U / 2, the absorption over the averages a,
        minus the source pairing.
        """
        lam, p = float(self.config.lam), self.config.p
        SU = self.base.operator @ U
        a = self.BT @ U
        # the diffusion (1/4 delta^2) sum_ij (u_i - u_j)^2 K A A plus
        # V^T RbarL V is U^T S U / 2: S = RA / delta^2 + 2 AZ RbarL AZ^T
        # and V = AZ^T U
        quad = 0.5 * float(U @ SU)
        absorption = lam / (2.0 * p) * float(
            self.measure @ np.abs(a) ** (2.0 * p))
        source = -float((U * self.base.f_delta) @ self.base.A)
        return quad + absorption + source, SU, a

    def newton(self, SU: np.ndarray, a: np.ndarray
               ) -> tuple[np.ndarray, AbsorptionOperator, np.ndarray]:
        """The gradient g of J at U, its Hessian H and the Newton right
        side, from energy(U)'s products S U and a = B^T U.

        With the weights w = lambda |a|^(2p-2) measure frozen at U,
        g = S U + B (w a) - rhs, H is the absorption operator with weights
        (2p-1) w, and the right side is rhs + (2p-2) B (w a), so H U* = b
        puts the Newton step at U* - U.  At p = 1, H is the frozen system
        and b is rhs.
        """
        lam, p = float(self.config.lam), self.config.p
        w = lam * np.abs(a) ** (2.0 * p - 2.0) * self.measure
        Bwa = self.B @ (w * a)
        hessian = AbsorptionOperator(self, (2.0 * p - 1.0) * w)
        # scaling B (w a), not B, keeps the product a matvec
        return SU + Bwa - self.rhs, hessian, self.rhs + (2.0 * p - 2.0) * Bwa


def nonlinear_solve(cloud: PointCloud, *,
                    profile: KernelProfile | None = None,
                    config: VariantConfig | None = None) -> SolveResult:
    """Damped Newton iteration on the discrete energy J.

    The start is the base model's mean-zero solution, solved to a relative
    residual of START_TOL.  Each step solves the Newton system H U* = ...
    of the module docstring by two-level PCG started from U, without
    forming H, to a residual of at most max(INNER_TOL |b|, eta |g|), with
    g the gradient of J at U and eta = min(FORCING_MAX, |g| / |A f_delta|);
    a CG iterate started at U lowers the Newton model, so the step
    descends.  It moves to U + theta (U* - U), theta starting at
    config.theta and halved until J does not rise; should J still rise
    once theta max|U* - U| <= config.picard_tol, or the step be
    non-finite, U stays and the iteration stops, so energy_history never
    rises.  At most config.picard_max steps are taken.  Each iterate is
    evaluated once: J, S U and B^T U at every trial, and the gradient, H
    and the right side from the accepted trial's products.  The returned
    residual is |g| / |A f_delta| at the final iterate; converged requires
    both the last step size and that residual to be at most config.picard_tol,
    and reason says which held: "converged", "stalled" (the step only, or a
    non-finite one) or "max_iter" (picard_max steps, the last one larger).
    inner_iterations and inner_misses report the inner CG solves (a miss ended
    above its own tolerance) and leave converged unaffected.
    """
    config = config or VariantConfig()
    work = _NonlinearWork(cloud, profile, config)
    rnorm = float(np.linalg.norm(work.rhs))

    if rnorm == 0.0:
        U = np.zeros(cloud.n0)
        return SolveResult(U=U, V=np.zeros(cloud.m0), residual=0.0,
                           iterations=0, converged=True, reason="converged",
                           energy_history=[work.energy(U)[0]],
                           inner_iterations=0, inner_misses=0)

    # start from the base model's mean-zero solution (solve_mean_zero's
    # CG and shift, without the boundary trace it would add).  This solve
    # alone applies the multiplied-out matrix S, not the operator:
    # perfbench's traced runs wrap this module's cg and size its operand
    # as a CSR matrix
    U, _, inner_iterations, ok, _ = cg(work.base.S, work.base.rhs,
                                       tol=START_TOL)
    U = U - float(U @ cloud.A / cloud.A.sum())
    inner_misses = int(not ok)
    J, SU, a = work.energy(U)
    energies = [J]
    slack = 1e-12
    for steps in range(1, config.picard_max + 1):
        g, hessian, b = work.newton(SU, a)
        gnorm = float(np.linalg.norm(g))
        # stop once |b - H U*| <= max(INNER_TOL |b|, eta |g|)
        tol = min(FORCING_MAX, gnorm / rnorm) * gnorm
        bnorm = float(np.linalg.norm(b))
        rel = max(INNER_TOL, tol / bnorm) if bnorm > 0.0 else INNER_TOL
        inner = solve_spd(replace(work.base, operator=hessian, rhs=b),
                          tol=rel, max_iter=20 * len(U), x0=U)
        inner_iterations += inner.iterations
        inner_misses += int(not inner.converged)
        full_step = float(np.max(np.abs(inner.U - U)))
        theta = config.theta
        while True:
            trial = (1.0 - theta) * U + theta * inner.U
            with np.errstate(over="ignore"):  # an infinite J is rejected
                evaluated = work.energy(trial)
            if evaluated[0] <= energies[-1] + slack * max(1.0, abs(energies[-1])):
                step_size = float(np.max(np.abs(trial - U)))
                U, (J, SU, a) = trial, evaluated
                energies.append(J)
                break
            # J rises on a step below tolerance, or one not finite: U stays
            step_size = theta * full_step
            if not step_size > config.picard_tol:
                break
            theta = 0.5 * theta
        if not step_size > config.picard_tol:
            break

    residual = float(np.linalg.norm(work.newton(SU, a)[0])) / rnorm
    stopped = not step_size > config.picard_tol
    converged = stopped and residual <= config.picard_tol
    reason = "converged" if converged else "stalled" if stopped else "max_iter"
    V = boundary_trace(work.base.coupling, cloud.A, U)
    return SolveResult(U=U, V=V, residual=residual, iterations=steps,
                       converged=converged, reason=reason,
                       energy_history=energies,
                       inner_iterations=inner_iterations,
                       inner_misses=inner_misses)
