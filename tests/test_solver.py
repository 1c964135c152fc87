"""Preconditioned CG on the singular base system and the positive-definite
variants, against dense factorization oracles."""

import numpy as np
import pytest
from scipy import sparse

from nlpoisson.assembly import assemble
from nlpoisson.geometry import build_cloud, get_case
from nlpoisson.harness import VARIANTS, HarnessOptions
from nlpoisson.solver import DEFAULT_TOL, cg, solve_mean_zero, solve_spd
from nlpoisson.variants import assemble_lambda


def dense_mean_zero_solution(system):
    """Minimum-norm least-squares solve, shifted to A-weighted zero mean."""
    U, *_ = np.linalg.lstsq(system.S.toarray(), system.rhs, rcond=None)
    return U - float(U @ system.A / system.A.sum())


def test_solve_matches_dense_oracle(small_system):
    res = solve_mean_zero(small_system, tol=1e-12)
    assert res.converged and res.reason == "converged"
    assert res.residual <= 1e-12
    want = dense_mean_zero_solution(small_system)
    assert np.abs(res.U - want).max() <= 1e-8 * max(1.0, np.abs(want).max())
    total = float(res.U @ small_system.A)
    assert abs(total) <= 1e-12 * max(np.abs(res.U).max(), 1.0) * small_system.A.sum()


def test_zero_rhs_short_circuits(small_system):
    import dataclasses
    system = dataclasses.replace(small_system, rhs=np.zeros(small_system.S.shape[0]))
    res = solve_mean_zero(system)
    assert res.iterations == 0 and res.converged
    assert np.all(res.U == 0.0)


def test_rhs_must_be_orthogonal(small_system):
    import dataclasses
    bad = dataclasses.replace(small_system,
                              rhs=small_system.rhs + 1e-3)
    with pytest.raises(ValueError, match="orthogonal"):
        solve_mean_zero(bad)


def test_error_energy_norm_monotone(small_system):
    """CG decreases the S-energy norm of the error at every iteration."""
    S = small_system.S
    star = dense_mean_zero_solution(small_system)
    # CG from a zero start is deterministic: the solve capped at k steps
    # returns the k-th iterate, up to the constant removed below
    total = solve_mean_zero(small_system, tol=1e-13).iterations
    iterates = [solve_mean_zero(small_system, tol=1e-13, max_iter=k).U
                for k in range(1, total + 1)]
    energies = []
    for x in iterates:
        e = x - x.mean() - (star - star.mean())
        energies.append(float(e @ (S @ e)))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * np.maximum(energies[:-1], 1e-30))


def test_reduced_mode_matches_dense_oracle(small_cloud):
    system = assemble(small_cloud, mode="reduced")
    res = solve_mean_zero(system, tol=1e-12)
    assert res.converged
    want = dense_mean_zero_solution(system)
    assert np.abs(res.U - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


def test_jacobi_iterations_on_fine_cloud():
    """Jacobi scaling keeps the t=40 base solve short: unscaled CG takes 226
    iterations on this system."""
    system = assemble(build_cloud("hemisphere2", 40, 1), mode="full")
    res = solve_mean_zero(system)
    assert res.converged
    assert res.iterations <= 60


def test_determinism_repeat_solve(small_system):
    a = solve_mean_zero(small_system, tol=1e-11)
    b = solve_mean_zero(small_system, tol=1e-11)
    assert np.array_equal(a.U, b.U)
    assert a.iterations == b.iterations


@pytest.mark.parametrize("case,t", [("hemisphere2", 5), ("hemisphere2", 10),
                                    ("hemisphere2", 40), ("hemisphere3", 4)])
def test_solution_meets_tol_against_the_matrix(case, t):
    """CG applies the factored operator; its U meets tol against the
    multiplied-out S too, the residual the benchmark's gate measures."""
    system = assemble(build_cloud(case, t, 1))
    res = solve_mean_zero(system)
    assert res.converged and res.residual <= DEFAULT_TOL
    b = system.rhs
    rel = float(np.linalg.norm(b - system.S @ res.U) / np.linalg.norm(b))
    assert rel <= DEFAULT_TOL


def _lambda_system(t=5, lam=1.0):
    cloud = build_cloud("hemisphere2", t, 1)
    _, f_man, _ = VARIANTS["lambda"].data(
        get_case("hemisphere2"), HarnessOptions(variant="lambda", lam=lam))
    return assemble_lambda(cloud, lam=lam, f=f_man)


def test_spd_matches_dense_oracle():
    system = _lambda_system()
    res = solve_spd(system, tol=1e-12)
    assert res.converged and res.reason == "converged"
    want = np.linalg.solve(system.S.toarray(), system.rhs)
    assert np.abs(res.U - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


def test_spd_zero_rhs():
    import dataclasses
    system = dataclasses.replace(_lambda_system(), rhs=np.zeros(40))
    res = solve_spd(system)
    assert np.all(res.U == 0.0) and res.iterations == 0
    assert res.reason == "converged"


def test_spd_large_lambda_fast():
    """Strong absorption dominates the diagonal; Jacobi CG needs few sweeps."""
    system = _lambda_system(lam=50.0)
    res = solve_spd(system, tol=1e-10)
    assert res.converged
    assert res.iterations < 50
    want = np.linalg.solve(system.S.toarray(), system.rhs)
    assert np.abs(res.U - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


def test_max_iter_flags_nonconvergence(small_system):
    res = solve_mean_zero(small_system, tol=1e-13, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.residual > 1e-13
    assert res.reason == "max_iter"


class _Counted:
    """An operator that counts how often it is applied."""

    def __init__(self, op):
        self.op, self.applied = op, 0

    def __matmul__(self, x):
        self.applied += 1
        return self.op @ x

    def diagonal(self):
        return self.op.diagonal()


def test_cg_from_zero_skips_the_first_apply(medium_system):
    """cg starts from zero, whose residual is b itself: it applies its
    operator once per iteration and once for the final residual,
    iterations + 1 times in all."""
    op = _Counted(medium_system.operator)
    _, _, it, ok, reason = cg(op, medium_system.rhs)
    assert ok and reason == "converged" and op.applied == it + 1


class _Untouchable:
    """An operator that refuses to be read."""

    def __matmul__(self, x):
        raise AssertionError("S @ x called")

    def diagonal(self):
        raise AssertionError("S.diagonal() called")

    def coarse_space(self):
        raise AssertionError("S.coarse_space() called")


@pytest.mark.parametrize("tol", [1.0, 2.5])
def test_cg_returns_a_zero_start_that_meets_tol(medium_system, tol):
    """With tol >= 1 the zero start already meets tol: cg returns it
    without reading its operator."""
    b = medium_system.rhs
    got = cg(_Untouchable(), b, tol=tol)
    assert np.array_equal(got[0], np.zeros(len(b)))
    assert got[1:] == (1.0, 0, True, "converged")


def test_reason_breakdown_on_indefinite_system():
    """p^T S p = 1 - 4 < 0 on the first direction: the loop stops there."""
    S = sparse.csr_matrix(np.diag([1.0, -1.0]))
    _, _, it, ok, reason = cg(S, np.array([1.0, 2.0]))
    assert reason == "breakdown"
    assert it == 0 and not ok


def test_reason_breakdown_on_nan_rhs():
    """A NaN in b makes p^T S p NaN: the loop stops there, not at max_iter."""
    b = np.ones(50)
    b[7] = np.nan
    _, _, it, ok, reason = cg(sparse.identity(50, format="csr") * 2.0, b)
    assert reason == "breakdown"
    assert it == 0 and not ok
