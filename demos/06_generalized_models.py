"""The three generalized models, each on a manufactured cap problem.

* absorption: -Lap u + lambda u = f becomes strictly positive definite,
  so the mean-zero constraint is dropped and CG runs unprojected;
* non-homogeneous flux: du/dn = g only changes the right side, so the
  base builder takes it, assemble(cloud, f=..., g=...);
* nonlinear absorption lambda u |u|^(2p-2): damped Newton on the
  discrete energy J, whose Hessian H = S + B diag((2p-1) w) B^T, with
  B = [Pbar^T | AZ] stacking the smoother and the boundary coupling, is
  the frozen absorption system with its weights scaled by 2p - 1; the
  damping is halved until J does not rise.
"""

import warnings

import numpy as np

from nlpoisson import (
    VariantConfig,
    assemble,
    assemble_lambda,
    build_cloud,
    e2_error,
    get_case,
    nonlinear_solve,
    solve_mean_zero,
    solve_spd,
)

case = get_case("hemisphere2")
cloud = build_cloud("hemisphere2", t=20, seed=1)

# --- absorption ---------------------------------------------------------
lam = 1.0
system = assemble_lambda(cloud, lam=lam,
                         f=lambda x: case.forcing(x) + lam * case.exact_u(x))
res = solve_spd(system)
print("absorption model (lambda = 1):")
print(f"  CG converged in {res.iterations} iterations, "
      f"e2 = {e2_error(res.U, cloud):.4f}")
print(f"  note: no mean constraint; sum(rhs) = {system.rhs.sum():.3e}")

# --- non-homogeneous flux ----------------------------------------------
# u = z^2 - 7/12 has constant outward rim derivative -sqrt(3)/2
with warnings.catch_warnings():
    warnings.simplefilter("ignore")   # manufactured data: compatibility is O(delta)
    nh = assemble(
        cloud,
        f=lambda x: 6 * x[:, 2] ** 2 - 2,
        g=lambda q: np.full(q.shape[0], -np.sqrt(3) / 2))
res_nh = solve_mean_zero(nh)
e2_nh = e2_error(res_nh.U, cloud, lambda x: x[:, 2] ** 2 - 7 / 12)
print("\nnon-homogeneous flux model:")
print(f"  converged = {res_nh.converged}, e2 = {e2_nh:.4f}")

# --- nonlinear absorption ----------------------------------------------
p = 1.5


def f_nonlinear(x):
    u = case.exact_u(x)
    return case.forcing(x) + lam * u * np.abs(u) ** (2 * p - 2)


config = VariantConfig(kind="nonlinear", lam=lam, p=p, f=f_nonlinear)
res_nl = nonlinear_solve(cloud, config=config)
J = res_nl.energy_history
print("\nnonlinear model (p = 1.5, lambda = 1):")
print(f"  {res_nl.iterations} damped Newton steps "
      f"(each solves H U* = A f + (2p-2) B (w a), a = B^T U), "
      f"final residual {res_nl.residual:.2e}")
print(f"  energy trail: {J[0]:.6f} -> {J[1]:.6f} -> ... -> {J[-1]:.6f} "
      "(the line search takes no step that raises it)")
