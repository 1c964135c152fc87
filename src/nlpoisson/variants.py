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
  [omega2 A; omega_hat L] frozen at the iterate U, the Newton system is

      H U* = A f_delta + (2p-2) B (w a),    H = S + B diag((2p-1) w) B^T,

  where H is the Hessian of J at U, and the gradient of J at U is
  g = S U + B (w a) - A f_delta = H U - (A f_delta + (2p-2) B (w a)).
  Each step solves for its correction H D = -g from D = 0, whose
  residual is the Newton system's at U* = U + D.  Each iterate is
  evaluated once: one S U and one a = B^T U give J, and one B (w a) from
  them gives g, H and the right side.  H and the absorption system, H at
  p = 1, are one AbsorptionOperator, applied matrix-free with the
  model's weights from the base system's blocks and solved by two-level
  PCG.  B is never stored: the pair matrix Kbar is symmetric, so Pbar and
  Pbar^T are two matvecs with it, and AZ is the base operator's own
  block.  Each Newton system is solved only as far as its step needs
  (inexact Newton): to the forcing term eta_k = min(FORCING_MAX,
  |g_k| / |A f_delta|) of the gradient g_k of J at U, which keeps the
  convergence quadratic from any start in the full-step region (Dembo,
  Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat &
  Walker, SIAM J. Sci. Comput. 17, 1996).  So the start needs only to be
  rough: the mean-zero solution of the diffusion block R_A / delta^2
  alone, a CSR matrix that assembly holds, solved to START_TOL by CG,
  which needs no projection on that singular block (Kaasschieter, J.
  Comput. Appl. Math. 24, 1988).  No solve multiplies S or H out.

The model has no mean-zero constraint, and H controls the constant mode
only weakly, so a Newton step alone would spend most of its length on
that constant.  The start and each iterate after an accepted step are
instead moved to U + c 1, c the minimizer of J along the constants,
found exactly (a nonlinear coarse correction, after Cai & Keyes, SIAM J.
Sci. Comput. 24, 2002).  It costs no sparse product: S 1 = 0 and
e = B^T 1 = 1 up to rounding (Pbar is row-stochastic, zeta normalized by
omega_hat), so J(U + c 1) is a strictly convex function of c that reads
only a = B^T U, and the shifted products S U + c S 1 and a + c e come
from S 1 and e, kept once.  The discrete solution, the unique minimizer
of J, is the same.

The two-level preconditioner adds to Jacobi the Galerkin correction
Z E^-1 Z^T on a fixed smooth coarse basis Z: the ambient polynomials of
degree <= COARSE_DEGREE on the cloud, orthonormalized (nlpoisson.solver
runs it).  Jacobi alone leaves these smooth modes slow to converge.
AbsorptionBlocks caches Z^T S Z and B^T Z once, so each operator forms
E = Z^T H Z in O((n0 + m0) k^2) without another sparse product.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from numbers import Real
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
    picard_tol, finite and > 0 (the harness and the CLI keep all three at
    their defaults).  Each of these five is a real number, not a bool, a
    string, None or a callable.  f is the forcing, the case's own by default.
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
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
                raise ValueError(f"{name} = {value!r}: need a number, not a "
                                 f"{type(value).__name__}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("nonlinear model requires a constant lambda, "
                             "finite and > 0")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError("nonlinear exponent p must be finite and >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("damping theta must lie in (0, 1]")
        if not (isinstance(self.picard_max, (int, np.integer))
                and self.picard_max >= 1):
            raise ValueError("picard_max must be an integer >= 1")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0.0):
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
    """Fixed blocks of every absorption operator on a full-mode base system.

    The averages a = B^T x, B = [Pbar^T | AZ], n0 x (n0 + m0), stack the
    smoothed values Pbar x over the boundary trace AZ^T x: Pbar_ji =
    Kbar(p_j, p_i) A_i / omega2_j, omega2_j = sum_i Kbar(p_j, p_i) A_i, is
    the row-stochastic smoother on the Kbar pattern base.pairs, and AZ =
    diag(A) zeta is the base operator's own block.  B is not stored: Kbar
    is symmetric, so Pbar x = (Kbar (A x)) / omega2 and Pbar^T y =
    A (Kbar (y / omega2)).  measure = [omega2 A; omega_hat L] weighs the
    averages.  Kbar_sq holds Kbar's squared entries on Kbar's index arrays
    and AZ_sq AZ's, for the diagonal of every operator, and S_diagonal is
    the base operator's diagonal, kept once for the Jacobi part of every
    solve.  Z is the smooth coarse basis of the two-level PCG, with its
    products Z^T S Z and B^T Z."""

    def __init__(self, base: NonlocalSystem):
        self.base = base
        S = base.operator
        self.Kbar, self.AZ, self.AZT = base.pairs, S.AZ, S.AZT
        self.omega2 = self.Kbar @ base.A
        if np.any(self.omega2 <= 0.0):
            j = int(np.argmin(self.omega2))
            raise ValueError(f"smoothing mass w2({j}) = {self.omega2[j]:.3e} <= 0")
        self.Kbar_sq = sparse.csr_matrix(
            (self.Kbar.data ** 2, self.Kbar.indices, self.Kbar.indptr),
            shape=self.Kbar.shape)
        # its own index arrays: AZ's columns come out of assembly unsorted,
        # and an in-place sort of AZ would not reorder a shared copy's data
        self.AZ_sq = self.AZ.multiply(self.AZ).tocsr()
        self.measure = np.concatenate([self.omega2 * base.A,
                                       base.coupling.omega_hat * base.coupling.L])
        self.S_diagonal = S.diagonal()
        self.Z = smooth_basis(base.cloud.points)
        self.ZtSZ = self.Z.T @ (S @ self.Z)
        self.BtZ = np.vstack([
            (self.Kbar @ (base.A[:, None] * self.Z)) / self.omega2[:, None],
            self.AZT @ self.Z])

    def averages(self, x: np.ndarray) -> np.ndarray:
        """a = B^T x: the smoothed values Pbar x over the trace AZ^T x."""
        return np.concatenate([(self.Kbar @ (self.base.A * x)) / self.omega2,
                               self.AZT @ x])

    def spread(self, y: np.ndarray) -> np.ndarray:
        """B y = Pbar^T y_int + AZ y_bnd, the adjoint of averages()."""
        n0 = len(self.omega2)
        return (self.base.A * (self.Kbar @ (y[:n0] / self.omega2))
                + self.AZ @ y[n0:])


@dataclass(eq=False)
class AbsorptionOperator:
    """S + B diag(w) B^T, applied matrix-free from fixed AbsorptionBlocks:
    the lambda model and each Newton step differ only in the weights w,
    one per average.  With v = AZ^T x computed once, it applies

        R_A x / delta^2 + AZ (2 RbarL v + w_bnd v)
                        + A Kbar ((w_int / omega2^2) Kbar (A x)),

    the base operator's blocks and the boundary absorption sharing AZ.
    coarse_space() gives the two-level PCG its Galerkin matrix;
    materialize() multiplies the operator out, for export and tests."""

    blocks: AbsorptionBlocks
    w: np.ndarray

    def __post_init__(self):
        n0 = len(self.blocks.omega2)
        self._w_int = self.w[:n0] / self.blocks.omega2 ** 2
        self._w_bnd = self.w[n0:]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        b = self.blocks
        S, A = b.base.operator, b.base.A
        v = b.AZT @ x
        u = S.RbarL @ v
        u *= 2.0
        u += self._w_bnd * v
        y = S.RA @ x
        y += b.AZ @ u
        y += A * (b.Kbar @ (self._w_int * (b.Kbar @ (A * x))))
        return y

    def diagonal(self) -> np.ndarray:
        """diag(S) + A^2 (Kbar_sq (w_int / omega2^2)) + AZ_sq w_bnd."""
        b = self.blocks
        return (b.S_diagonal + b.base.A ** 2 * (b.Kbar_sq @ self._w_int)
                + b.AZ_sq @ self._w_bnd)

    def coarse_space(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks' coarse basis Z and E = Z^T (S + B diag(w) B^T) Z,
        symmetrized, from the cached Z^T S Z and B^T Z."""
        b = self.blocks
        E = b.ZtSZ + b.BtZ.T @ (self.w[:, None] * b.BtZ)
        return b.Z, 0.5 * (E + E.T)

    def materialize(self) -> sparse.csr_matrix:
        """The operator multiplied out by symmetric_product, on the base
        system's matrix S and a B built for this call alone."""
        b = self.blocks
        Kbar, A = b.Kbar, b.base.A
        # Pbar^T_ij = A_i Kbar_ij / omega2_j, on the pattern
        PbarT = sparse.csr_matrix(
            (np.repeat(A, np.diff(Kbar.indptr)) * Kbar.data
             * (1.0 / b.omega2)[Kbar.indices], Kbar.indices, Kbar.indptr),
            shape=Kbar.shape)
        B = sparse.hstack([PbarT, b.AZ], format="csr")
        return (b.base.S + symmetric_product(B, sparse.diags(self.w))).tocsr()


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
        # the products of the constant vector, 0 and 1 up to rounding,
        # which shift S U and B^T U along the constants
        ones = np.ones(cloud.n0)
        self.S1, self.e = self.base.operator @ ones, self.averages(ones)

    def energy(self, U: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The discrete energy J(U), whose critical points solve the
        discrete model, with the two products it reads, S U and the
        averages a = B^T U, for newton()."""
        SU, a = self.base.operator @ U, self.averages(U)
        return self._energy(U, SU, a), SU, a

    def _energy(self, U: np.ndarray, SU: np.ndarray, a: np.ndarray) -> float:
        """J(U) from its products S U and a = B^T U.

        Three terms: U^T S U / 2, the absorption over the averages a,
        minus the source pairing.
        """
        lam, p = float(self.config.lam), self.config.p
        # the diffusion (1/4 delta^2) sum_ij (u_i - u_j)^2 K A A plus
        # V^T RbarL V is U^T S U / 2: S = RA / delta^2 + 2 AZ RbarL AZ^T
        # and V = AZ^T U
        quad = 0.5 * float(U @ SU)
        absorption = lam / (2.0 * p) * float(
            self.measure @ np.abs(a) ** (2.0 * p))
        source = -float((U * self.base.f_delta) @ self.base.A)
        return quad + absorption + source

    def constant_shift(self, a: np.ndarray) -> float:
        """The c minimizing J(U + c 1) at averages a = B^T U.

        S 1 = 0 and e = B^T 1 = 1 up to rounding, so J(U + c 1) is J(U)
        plus lam / 2p sum_k mu_k (|a_k + c e_k|^2p - |a_k|^2p) - c sum(A f),
        mu = measure, strictly convex in c.  Its derivative vanishes where
        lam sum_k mu_k e_k psi(a_k + c e_k) = sum(A f), psi(x) = x |x|^(2p-2).
        As psi(e x) = psi(e) psi(x), that root lies within
        psi^-1(sum(A f) / (lam sum_k mu_k e_k^2p)) - [max, min] of a / e.
        Newton's method, safeguarded by bisection on that bracket, finds it
        without evaluating a power outside it, so nothing overflows.
        """
        lam, p = float(self.config.lam), self.config.p
        e, mu_e = self.e, self.measure * self.e
        force = float(self.rhs.sum())
        q = force / (lam * float(mu_e @ e ** (2.0 * p - 1.0)))
        centre = math.copysign(abs(q) ** (1.0 / (2.0 * p - 1.0)), q)
        r = a / e
        lo, hi = centre - float(r.max()), centre - float(r.min())
        # rounding on entries of U + c of this size
        tiny = 4.0 * np.finfo(float).eps * (abs(centre) + float(np.abs(r).max()))
        c = min(max(0.0, lo), hi)
        for _ in range(100):
            if not hi - lo > tiny:
                break
            x = a + c * e
            power = np.abs(x) ** (2.0 * p - 2.0)
            slope = lam * float(mu_e @ (power * x)) - force
            if slope == 0.0:
                break
            lo, hi = (lo, c) if slope > 0.0 else (c, hi)
            curvature = lam * (2.0 * p - 1.0) * float((mu_e * e) @ power)
            previous = c
            c = c - slope / curvature if curvature > 0.0 else math.nan
            if not lo < c < hi:  # a Newton step out of the bracket bisects
                c = 0.5 * (lo + hi)
            elif abs(c - previous) <= tiny:
                break
        return c

    def settle(self, U: np.ndarray, SU: np.ndarray, a: np.ndarray
               ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """U + c 1 with c = constant_shift(a), with its energy and products
        S U + c S 1 and a + c e, as energy() gives them, without another
        sparse product."""
        c = self.constant_shift(a)
        U, SU, a = U + c, SU + c * self.S1, a + c * self.e
        return U, self._energy(U, SU, a), SU, a

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
        Bwa = self.spread(w * a)
        hessian = AbsorptionOperator(self, (2.0 * p - 1.0) * w)
        # scaling B (w a), not B, keeps the product a matvec
        return SU + Bwa - self.rhs, hessian, self.rhs + (2.0 * p - 2.0) * Bwa


def nonlinear_solve(cloud: PointCloud, *,
                    profile: KernelProfile | None = None,
                    config: VariantConfig | None = None) -> SolveResult:
    """Damped Newton iteration on the discrete energy J.

    The start is the solution of the diffusion block R_A / delta^2 alone,
    work.base.operator.RA, solved by CG to a relative residual of
    START_TOL and then shifted by the constant that minimizes J; S is
    never multiplied out.  Each step solves for the correction D of the
    module docstring, H D = -g with g the gradient of J at U, by two-level
    PCG started from D = 0, without forming H, to a residual of at most
    max(INNER_TOL |b|, eta |g|), with b the Newton system's right side and
    eta = min(FORCING_MAX, |g| / |A f_delta|); a CG iterate started at 0
    lowers the Newton model, so D descends.  It moves to U + theta D,
    theta starting at config.theta and halved until J does not rise;
    should J still rise once theta max|D| <= config.picard_tol, or D be
    non-finite, U stays and the iteration stops, so energy_history never
    rises.  An accepted step that another step follows is moved on along
    the constants to the minimizer of J there, from the accepted trial's
    products alone; the shift is kept unless J rises by more than
    rounding.  At most config.picard_max steps are taken.  Each iterate is
    evaluated once: J, S U and B^T U at every trial, and the gradient, H
    and the right side from the accepted trial's products, shifted as
    U is.  The returned
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

    # start from the diffusion block's solution: CG on the CSR block
    # R_A / delta^2, which assemble holds (perfbench's traced runs wrap
    # this module's cg and size its operand as a CSR matrix), shifted to
    # the constant that minimizes J
    U, _, inner_iterations, ok, _ = cg(work.base.operator.RA, work.base.rhs,
                                       tol=START_TOL)
    U = U + work.constant_shift(work.averages(U))
    inner_misses = int(not ok)
    J, SU, a = work.energy(U)
    energies = [J]
    slack = 1e-12
    for steps in range(1, config.picard_max + 1):
        g, hessian, b = work.newton(SU, a)
        gnorm = float(np.linalg.norm(g))
        # H D = -g from D = 0, whose residual b - H (U + D) is the Newton
        # system's: stop once it is at most max(INNER_TOL |b|, eta |g|)
        tol = max(INNER_TOL * float(np.linalg.norm(b)),
                  min(FORCING_MAX, gnorm / rnorm) * gnorm)
        inner = solve_spd(replace(work.base, operator=hessian, rhs=-g),
                          tol=tol / gnorm if gnorm > 0.0 else INNER_TOL,
                          max_iter=20 * len(U))
        inner_iterations += inner.iterations
        inner_misses += int(not inner.converged)
        step = inner.U
        full_step = float(np.max(np.abs(step)))
        theta = config.theta
        ceiling = J + slack * max(1.0, abs(J))
        while True:
            trial = U + theta * step
            with np.errstate(over="ignore"):  # an infinite J is rejected
                evaluated = work.energy(trial)
            if evaluated[0] <= ceiling:
                step_size = float(np.max(np.abs(trial - U)))
                U, (J, SU, a) = trial, evaluated
                if step_size > config.picard_tol:  # another step follows
                    # the shift is kept unless J rises by more than
                    # rounding, or above the line search's ceiling
                    settled = work.settle(U, SU, a)
                    if settled[1] <= min(ceiling, J + slack * max(1.0, abs(J))):
                        U, J, SU, a = settled
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
