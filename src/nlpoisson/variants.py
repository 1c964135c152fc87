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
  energy backtracking.  With the weights w = lambda |ubar|^(2p-2) omega2 A
  and wb = lambda |uhat|^(2p-2) omega_hat L frozen at the iterate U, each
  step solves the Newton system

      H U* = A f_delta + (2p-2) (Pbar^T (w ubar) + AZ (wb uhat)),
      H = S + Pbar^T diag((2p-1) w) Pbar + AZ diag((2p-1) wb) AZ^T,

  where H is the Hessian of J at U.  H is applied matrix-free, from
  blocks built once per solve, and the system is solved by Jacobi PCG.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import sparse

from .assembly import (
    NonlocalSystem,
    PairGraph,
    assemble,
    bar_matrix,
    boundary_trace,
    interior_laplacian,  # noqa: F401
    pair_graph,
    smoothed_forcing,
    symmetric_product,
)
from .geometry import PointCloud, get_case
from .kernels import KernelProfile, cosine_profile
# interior_laplacian and solve_mean_zero are not called here; they stay
# importable from this module with the other solver and assembly names
# that perfbench's traced runs wrap
from .solver import SolveResult, cg, solve_mean_zero, solve_spd  # noqa: F401

VARIANT_KINDS = ("lambda", "nonhomogeneous", "nonlinear")
THETA_MIN = 1.0 / 16.0
INNER_TOL = 1e-12  # relative residual target of every inner CG solve


@dataclass
class VariantConfig:
    """Parameters of the generalized models.

    lam is a finite constant > 0, or a nonnegative scalar field for the
    lambda model; p >= 1, finite, the nonlinear exponent.  theta,
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
    if np.any(vals < 0):
        raise ValueError("lambda must be nonnegative")
    return vals


def _smoother(base: NonlocalSystem) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Interior smoothing mass w2_j = sum_i Kbar(p_j, p_i) A_i and the
    row-stochastic smoother P with P_ji = Kbar(p_j, p_i) A_i / w2_j."""
    bar = bar_matrix(base.pairs, len(base.A))
    omega2 = bar @ base.A
    if np.any(omega2 <= 0.0):
        j = int(np.argmin(omega2))
        raise ValueError(f"smoothing mass w2({j}) = {omega2[j]:.3e} <= 0")
    return omega2, (sparse.diags(1.0 / omega2) @ bar @ sparse.diags(base.A)).tocsr()


def _absorption_matrix(base: NonlocalSystem, Pbar: sparse.csr_matrix,
                       omega2: np.ndarray, w_interior: np.ndarray,
                       w_boundary: np.ndarray) -> sparse.csr_matrix:
    """Energy-consistent absorption block P^T diag(w w2 A) P
    + (A Z) diag(wb omega L) (A Z)^T, each term by symmetric_product."""
    cloud, coupling = base.cloud, base.coupling
    AZ = sparse.diags(cloud.A) @ coupling.zeta
    interior = sparse.diags(w_interior * omega2 * cloud.A)
    boundary = sparse.diags(w_boundary * coupling.omega_hat * coupling.L)
    return (symmetric_product(Pbar.T, interior)
            + symmetric_product(AZ, boundary)).tocsr()


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
    lam_q = _lambda_values(lam, cloud.boundary)
    omega2, Pbar = _smoother(base)
    S = (base.S + _absorption_matrix(base, Pbar, omega2, lam_p, lam_q)).tocsr()
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
    """
    pairs, _ = pair_graph(cloud, delta, profile)
    return _flux_source(cloud, pairs, f, g, smoothed_forcing(cloud, pairs, f))


def _flux_source(cloud: PointCloud, pairs: PairGraph, f: Callable | None,
                 g: Callable | None, fd: np.ndarray) -> tuple[np.ndarray, float]:
    """source_nonhomogeneous from the pairs and fd, the smoothed forcing of f."""
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
        cols = pairs.cols
        contrib = (2.0 * pairs.cross_bar + pairs.zeta) * gq[cols] * cloud.L[cols]
        fd = fd + np.bincount(pairs.rows, weights=contrib, minlength=cloud.n0)
    shift = float(fd @ cloud.A / cloud.A.sum())
    return fd - shift, shift


def assemble_nonhomogeneous(cloud: PointCloud, delta: float | None = None,
                            profile: KernelProfile | None = None,
                            f: Callable | None = None,
                            g: Callable | None = None) -> NonlocalSystem:
    """Base full-model system with the non-homogeneous right side."""
    base = assemble(cloud, delta, profile, mode="full", f=f)
    F, shift = _flux_source(cloud, base.pairs, f, g, base.f_delta)
    return replace(base, rhs=cloud.A * F, f_delta=F + shift, mean_shift=shift,
                   variant="nonhomogeneous")


class _FrozenOperator:
    """Frozen absorption system S + Pbar^T diag(w) Pbar + AZ diag(wb) AZ^T.

    Applied matrix-free from the fixed blocks of a _NonlinearWork; only
    the weights w (interior) and wb (boundary) change between steps.
    """

    def __init__(self, work: _NonlinearWork, w: np.ndarray, wb: np.ndarray):
        self.work = work
        self.w = w
        self.wb = wb

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        work = self.work
        return (work.base.S @ x + work.PbarT @ (self.w * (work.Pbar @ x))
                + work.AZ @ (self.wb * (work.AZT @ x)))

    def diagonal(self) -> np.ndarray:
        work = self.work
        return work.S_diag + work.Pbar_sqT @ self.w + work.AZ_sq @ self.wb


class _NonlinearWork:
    """Shared factors for the nonlinear iteration and its energy."""

    def __init__(self, cloud: PointCloud, delta: float, profile: KernelProfile,
                 config: VariantConfig):
        if cloud.m > 2 and config.p >= cloud.m / (cloud.m - 2):
            warnings.warn(
                f"exponent p = {config.p} is not subcritical for m = {cloud.m}"
                f" (p < {cloud.m / (cloud.m - 2):.3g} expected)")
        self.cloud = cloud
        self.config = config
        self.base = assemble(cloud, delta, profile, mode="full", f=config.f)
        self.omega2, self.Pbar = _smoother(self.base)
        self.rhs = cloud.A * self.base.f_delta
        # fixed blocks of every frozen system, and their squared entries
        # for its exact diagonal
        coupling = self.base.coupling
        self.PbarT = self.Pbar.T.tocsr()
        self.AZ = (sparse.diags(cloud.A) @ coupling.zeta).tocsr()
        self.AZT = self.AZ.T.tocsr()
        self.S_diag = self.base.S.diagonal()
        self.Pbar_sqT = self.Pbar.multiply(self.Pbar).T.tocsr()
        self.AZ_sq = self.AZ.multiply(self.AZ).tocsr()
        self.interior_mass = self.omega2 * cloud.A
        self.boundary_mass = coupling.omega_hat * coupling.L

    def averages(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ubar = self.Pbar @ U
        uhat = boundary_trace(self.base.coupling, self.cloud.A, U)
        return ubar, uhat

    def _weights(self, U: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Averages of U and the absorption weights frozen at U."""
        lam, p = float(self.config.lam), self.config.p
        ubar, uhat = self.averages(U)
        w = lam * np.abs(ubar) ** (2.0 * p - 2.0) * self.interior_mass
        wb = lam * np.abs(uhat) ** (2.0 * p - 2.0) * self.boundary_mass
        return ubar, uhat, w, wb

    def frozen(self, U: np.ndarray) -> _FrozenOperator:
        """The system with lambda |u|^(2p-2) frozen at U.

        frozen(U) @ U - rhs is the gradient of the energy at U.
        """
        _, _, w, wb = self._weights(U)
        return _FrozenOperator(self, w, wb)

    def newton(self, U: np.ndarray) -> tuple[_FrozenOperator, np.ndarray]:
        """Hessian H of the energy at U and the Newton right side.

        H is the frozen system with both weights scaled by 2p - 1; the
        right side is rhs + (2p-2) (Pbar^T (w ubar) + AZ (wb uhat)), so
        H U* = rhs' puts the Newton step at U* - U.  At p = 1 both are
        the frozen system and rhs themselves.
        """
        p = self.config.p
        ubar, uhat, w, wb = self._weights(U)
        hessian = _FrozenOperator(self, (2.0 * p - 1.0) * w,
                                  (2.0 * p - 1.0) * wb)
        rhs = self.rhs + (2.0 * p - 2.0) * (self.PbarT @ (w * ubar)
                                            + self.AZ @ (wb * uhat))
        return hessian, rhs

    def frozen_solve(self, U: np.ndarray, tol: float) -> SolveResult:
        """Jacobi PCG on the Newton system at U, started from U."""
        hessian, rhs = self.newton(U)
        system = replace(self.base, S=hessian, rhs=rhs, mean_shift=0.0)
        return solve_spd(system, tol=tol, max_iter=20 * self.cloud.n0, x0=U)

    def energy(self, U: np.ndarray) -> float:
        """Discrete energy whose critical points solve the discrete model.

        Five terms: pairwise diffusion, the two absorption averages, the
        boundary-gradient quadratic in its cancelled-constant form
        V^T RbarL V, minus the source pairing.  The diffusion prefactor
        1/(4 delta^2) on the double sum makes the gradient of the whole
        expression exactly (S + frozen absorption) U - A f_delta.
        """
        lam, p = float(self.config.lam), self.config.p
        cloud, base = self.cloud, self.base
        # the diffusion (1/4 delta^2) sum_ij (u_i - u_j)^2 K A A plus
        # V^T RbarL V is U^T S U / 2: S = RA / delta^2 + 2 AZ RbarL AZ^T
        # and V = AZ^T U
        quad = 0.5 * float(U @ (base.S @ U))
        ubar, uhat = self.averages(U)
        t2 = lam / (2.0 * p) * float((self.omega2 * np.abs(ubar) ** (2 * p)) @ cloud.A)
        t3 = lam / (2.0 * p) * float(
            (base.coupling.omega_hat * np.abs(uhat) ** (2 * p)) @ base.coupling.L)
        t4 = -float((U * base.f_delta) @ cloud.A)
        return quad + t2 + t3 + t4


def nonlinear_solve(cloud: PointCloud, delta: float | None = None,
                    profile: KernelProfile | None = None,
                    config: VariantConfig | None = None) -> SolveResult:
    """Damped Newton iteration on the discrete energy J.

    With w = lambda |ubar|^(2p-2) omega2 A and wb = lambda |uhat|^(2p-2)
    omega_hat L frozen at the iterate U, each step solves the Newton
    system

        H U* = A f_delta + (2p-2) (Pbar^T (w ubar) + AZ (wb uhat)),
        H = S + Pbar^T diag((2p-1) w) Pbar + AZ diag((2p-1) wb) AZ^T,

    by Jacobi PCG started from U, without forming H, and moves to
    U + theta (U* - U).  theta starts at config.theta every step and is
    halved while the energy would rise (not below 1/16, after which the
    step is accepted and the result flagged).  At most config.picard_max
    steps are taken.  The returned residual is the relative residual
    |frozen(U) U - A f_delta| / |A f_delta| of the discrete nonlinear
    system, the relative gradient of J, at the final iterate; converged
    requires both the last step size and that residual to be at most
    config.picard_tol.  inner_iterations and inner_misses report the
    inner CG solves and leave converged unaffected.
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
                           energy_history=[work.energy(U)], energy_monotone=True,
                           inner_iterations=0, inner_misses=0)

    # start from the base model's mean-zero solution (solve_mean_zero's
    # projected CG and shift, without the boundary trace it would add)
    U, _, inner_iterations, ok = cg(work.base.S, work.base.rhs, tol=INNER_TOL,
                                    project=True)
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
    converged = step_size <= config.picard_tol and residual <= config.picard_tol
    V = boundary_trace(work.base.coupling, cloud.A, U)
    return SolveResult(U=U, V=V, residual=residual, iterations=steps,
                       converged=converged, energy_history=energies,
                       energy_monotone=monotone,
                       inner_iterations=inner_iterations,
                       inner_misses=inner_misses)
