"""Conjugate-gradient solvers for the assembled systems.

The base model's operator is symmetric positive-semidefinite with the
constants as null space, and its right side is orthogonal to that null
space by construction.  Every solve runs one preconditioned CG loop,
from the zero vector, on the system's operator, applied from its blocks;
the loop needs only S @ x and S.diagonal(), so the matrix S is never
multiplied out for a solve.  Its preconditioner is the inverse of the
operator's exact diagonal (Jacobi).
An operator that offers a coarse space (Z, E), as the absorption
operators of nlpoisson.variants do, adds the Galerkin correction:
M^-1 = D^-1 + Z E^-1 Z^T, with E = Z^T S Z formed exactly (Nicolaides,
SIAM J. Numer. Anal. 24, 1987).  Both preconditioners are SPD, so the
breakdown test and the energy monotonicity of CG hold for either.  The
constant mode of the base system needs no projection inside the loop: S
kills the constants, so every residual b - S x stays orthogonal to them,
and the constant part of the iterate never feeds back into a residual, a
step length or a search direction (Kaasschieter, J. Comput. Appl. Math.
24, 1988).  solve_mean_zero fixes the additive constant once, at the end, so
the volume-weighted mean of the solution vanishes.  A solve returns U
alone; assembly.boundary_trace gives the boundary trace V from it.  The
loop is our own: scipy.sparse.linalg.cg has no p^T S p <= 0 breakdown
test and returns no iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NonlocalSystem

DEFAULT_TOL = 1e-10


@dataclass
class SolveResult:
    # the solution at the cloud points, and no boundary trace
    U: np.ndarray
    residual: float
    iterations: int
    converged: bool
    # why the loop stopped: "converged", "max_iter", and from CG "breakdown"
    # (p^T S p <= 0) or from nonlinear_solve "stalled" (a step below
    # tolerance, the residual above it)
    reason: str | None = None
    # from the nonlinear driver only: the energy J at the start and after
    # each accepted step; its line search accepts no rise
    energy_history: list[float] | None = None
    # CG iterations summed over the driver's linear solves (the start and
    # one per Newton step), and how many of them missed their own
    # tolerance: START_TOL for the start, the forcing term's for a step
    inner_iterations: int | None = None
    inner_misses: int | None = None


def _coarse_factor(S) -> np.ndarray | None:
    """W with W W^T = Z E^+ Z^T when S offers a coarse space (Z, E), else None.

    E is symmetric positive semidefinite; its eigenvalues below 1e-12 of
    the largest are dropped, which leaves M^-1 SPD.
    """
    coarse_space = getattr(S, "coarse_space", None)
    if coarse_space is None:
        return None
    Z, E = coarse_space()
    lam, Q = np.linalg.eigh(E)
    keep = lam > 1e-12 * max(float(lam[-1]), 0.0)
    return Z @ (Q[:, keep] / np.sqrt(lam[keep]))


def cg(S, b: np.ndarray, tol: float = DEFAULT_TOL,
       max_iter: int | None = None):
    """PCG on S x = b from x = 0; returns (x, rel_residual, iters, ok, reason).

    S is a matrix or an operator: anything with S @ x and S.diagonal().
    The preconditioner is 1 / S.diagonal(), with 1 for non-positive
    entries, plus W W^T = Z E^+ Z^T when S offers S.coarse_space().
    reason says why the loop stopped: "converged", "max_iter" or
    "breakdown" (p^T S p <= 0 or NaN); ok is whether the true relative
    residual is at most tol.  It applies S once per iteration and once for
    the final residual.  A zero start that already meets tol (tol >= 1)
    returns at once, without reading S at all.  To start from an estimate
    x0, solve for the correction: S d = b - S x0, x = x0 + d.
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0, True, "converged"
    if bnorm <= tol * bnorm:
        # the zero start's residual is b itself, so it already meets tol
        return np.zeros(n), 1.0, 0, True, "converged"

    d = S.diagonal()
    dinv = 1.0 / np.where(d > 0, d, 1.0)
    W = _coarse_factor(S)

    def precondition(r):
        z = dinv * r
        if W is not None:
            z += W @ (W.T @ r)
        return z

    x, r = np.zeros(n), np.array(b, dtype=float)
    z = precondition(r)
    p = z
    rz = float(r @ z)
    it = 0
    reason = "max_iter"
    while True:
        if float(np.linalg.norm(r)) <= tol * bnorm:
            reason = "converged"
            break
        if it >= max_iter:
            break
        Sp = S @ p
        pSp = float(p @ Sp)
        if not pSp > 0.0:
            reason = "breakdown"
            break
        alpha = rz / pSp
        x += alpha * p
        r -= alpha * Sp
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    rel = float(np.linalg.norm(b - S @ x)) / bnorm
    return x, rel, it, rel <= tol, reason


def solve_mean_zero(system: NonlocalSystem, tol: float = DEFAULT_TOL,
                    max_iter: int | None = None) -> SolveResult:
    """Solve the singular base system subject to sum_i U_i A_i = 0."""
    b = system.rhs
    bsum = abs(float(b.sum()))
    if bsum > 1e-10 * max(np.abs(b).sum(), 1e-300):
        raise ValueError(
            f"right side is not orthogonal to the constants (sum {bsum:.3e})")
    U, rel, it, ok, reason = cg(system.operator, b, tol=tol,
                                max_iter=max_iter)
    U = U - float(U @ system.A / system.A.sum())
    return SolveResult(U=U, residual=rel, iterations=it, converged=ok,
                       reason=reason)


def solve_spd(system: NonlocalSystem, tol: float = DEFAULT_TOL,
              max_iter: int | None = None) -> SolveResult:
    """Solve a strictly positive-definite variant system by CG."""
    U, rel, it, ok, reason = cg(system.operator, system.rhs, tol=tol,
                                max_iter=max_iter)
    return SolveResult(U=U, residual=rel, iterations=it, converged=ok,
                       reason=reason)
