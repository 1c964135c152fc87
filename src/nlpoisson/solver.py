"""Conjugate-gradient solvers for the assembled systems.

The base model's matrix is symmetric positive-semidefinite with the
constants as null space, and its right side is orthogonal to that null
space by construction.  Both solvers run one CG loop scaled by the
system's exact diagonal (Jacobi).  The constant mode needs no projection
inside that loop: S kills the constants, so every residual b - S x stays
orthogonal to them, and the constant part of the iterate never feeds
back into a residual, a step length or a search direction (Kaasschieter,
J. Comput. Appl. Math. 24, 1988).  solve_mean_zero fixes the additive
constant once, at the end, so the volume-weighted mean of the solution
vanishes.  The loop is our own: scipy.sparse.linalg.cg has no
p^T S p <= 0 breakdown test and returns no iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NonlocalSystem, boundary_trace

DEFAULT_TOL = 1e-10


@dataclass
class SolveResult:
    U: np.ndarray
    V: np.ndarray
    residual: float
    iterations: int
    converged: bool
    # populated by the nonlinear driver only
    energy_history: list[float] | None = None
    energy_monotone: bool | None = None
    # CG iterations summed over the driver's linear solves (the start and
    # one per Newton step), and how many of them missed their tolerance
    inner_iterations: int | None = None
    inner_misses: int | None = None


def cg(S, b: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int | None = None,
       x0: np.ndarray | None = None):
    """Jacobi PCG on S x = b; returns (x, rel_residual, iters, ok).

    The scaling is 1 / S.diagonal(), with 1 for non-positive entries.
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0, True

    d = S.diagonal()
    dinv = 1.0 / np.where(d > 0, d, 1.0)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - S @ x
    z = dinv * r
    p = z
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            break
        Sp = S @ p
        pSp = float(p @ Sp)
        if pSp <= 0.0:
            break  # numerical breakdown on the semidefinite system
        alpha = rz / pSp
        x += alpha * p
        r -= alpha * Sp
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    rel = float(np.linalg.norm(b - S @ x)) / bnorm
    return x, rel, it, rel <= tol


def solve_mean_zero(system: NonlocalSystem, tol: float = DEFAULT_TOL,
                    max_iter: int | None = None,
                    x0: np.ndarray | None = None) -> SolveResult:
    """Solve the singular base system subject to sum_i U_i A_i = 0."""
    b = system.rhs
    bsum = abs(float(b.sum()))
    if bsum > 1e-10 * max(np.abs(b).sum(), 1e-300):
        raise ValueError(
            f"right side is not orthogonal to the constants (sum {bsum:.3e})")
    U, rel, it, ok = cg(system.S, b, tol=tol, max_iter=max_iter, x0=x0)
    U = U - float(U @ system.A / system.A.sum())
    V = boundary_trace(system.coupling, system.A, U)
    return SolveResult(U=U, V=V, residual=rel, iterations=it, converged=ok)


def solve_spd(system: NonlocalSystem, tol: float = DEFAULT_TOL,
              max_iter: int | None = None,
              x0: np.ndarray | None = None) -> SolveResult:
    """Solve a strictly positive-definite variant system by CG."""
    U, rel, it, ok = cg(system.S, system.rhs, tol=tol, max_iter=max_iter,
                        x0=x0)
    V = boundary_trace(system.coupling, system.A, U)
    return SolveResult(U=U, V=V, residual=rel, iterations=it, converged=ok)
