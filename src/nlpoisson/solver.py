"""Conjugate-gradient solvers for the assembled systems.

The base model's matrix is symmetric positive-semidefinite with the
constants as null space, and its right side is orthogonal to that null
space by construction.  solve_mean_zero runs CG with the constant mode
projected out of every iterate and fixes the additive constant at the end
so the volume-weighted mean of the solution vanishes.  solve_spd is plain
CG for the strictly positive-definite variant systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .assembly import NonlocalSystem, boundary_trace

DEFAULT_TOL = 1e-10


@dataclass
class SolveResult:
    U: np.ndarray
    V: np.ndarray
    residual: float
    iterations: int
    converged: bool
    shift_applied: float = 0.0
    # populated by the nonlinear driver only
    energy_history: list[float] | None = None
    energy_monotone: bool | None = None
    # CG iterations summed over the driver's linear solves (the start and
    # one per Picard step), and how many of them missed their tolerance
    inner_iterations: int | None = None
    inner_misses: int | None = None


def _project_mean(x: np.ndarray) -> np.ndarray:
    x -= x.mean()
    return x


def cg(S, b: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int | None = None,
       x0: np.ndarray | None = None, project: bool = False,
       precondition: bool = False, callback=None):
    """Conjugate gradients on S x = b; returns (x, rel_residual, iters, ok).

    With ``project`` the plain mean is removed from the iterate and the
    residual after every update, which keeps the iteration on the
    complement of the constant null space of the singular base system.
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0, True

    if precondition:
        dinv = S.diagonal().copy()
        good = dinv > 0
        dinv[good] = 1.0 / dinv[good]
        dinv[~good] = 1.0
    else:
        dinv = None

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if project:
        _project_mean(x)
    r = b - S @ x
    if project:
        _project_mean(r)
    z = dinv * r if precondition else r
    if project and precondition:
        _project_mean(z)
    p = z.copy()
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
        if project:
            _project_mean(x)
            _project_mean(r)
        z = dinv * r if precondition else r
        if project and precondition:
            _project_mean(z)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
        if callback is not None:
            callback(x.copy())
    rel = float(np.linalg.norm(b - S @ x)) / bnorm
    return x, rel, it, rel <= tol


def solve_mean_zero(system: NonlocalSystem, tol: float = DEFAULT_TOL,
                    max_iter: int | None = None, x0: np.ndarray | None = None,
                    precondition: bool = False, callback=None) -> SolveResult:
    """Solve the singular base system subject to sum_i U_i A_i = 0."""
    b = system.rhs
    bsum = abs(float(b.sum()))
    if bsum > 1e-10 * max(np.abs(b).sum(), 1e-300):
        raise ValueError(
            f"right side is not orthogonal to the constants (sum {bsum:.3e})")
    U, rel, it, ok = cg(system.S, b, tol=tol, max_iter=max_iter, x0=x0,
                        project=True, precondition=precondition,
                        callback=callback)
    shift = float(U @ system.A / system.A.sum())
    U = U - shift
    V = boundary_trace(system.coupling, system.A, U)
    return SolveResult(U=U, V=V, residual=rel, iterations=it, converged=ok,
                       shift_applied=-shift)


def solve_spd(system: NonlocalSystem, tol: float = DEFAULT_TOL,
              max_iter: int | None = None, x0: np.ndarray | None = None,
              precondition: bool = False, callback=None) -> SolveResult:
    """Solve a strictly positive-definite variant system by plain CG."""
    U, rel, it, ok = cg(system.S, system.rhs, tol=tol, max_iter=max_iter,
                        x0=x0, project=False, precondition=precondition,
                        callback=callback)
    V = boundary_trace(system.coupling, system.A, U)
    return SolveResult(U=U, V=V, residual=rel, iterations=it, converged=ok)
