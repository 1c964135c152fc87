"""Generalized models: absorption, boundary flux, nonlinear iteration."""

import warnings

import numpy as np
import pytest

from nlpoisson import assembly, variants
from nlpoisson.assembly import assemble, boundary_trace, interior_laplacian
from nlpoisson.geometry import build_cloud, get_case
from nlpoisson.harness import HarnessOptions, e2_error, run_single
from nlpoisson.kernels import cosine_profile
from nlpoisson.solver import SolveResult, cg, solve_mean_zero, solve_spd
from nlpoisson.variants import (
    VariantConfig,
    _FrozenOperator,
    _NonlinearWork,
    _absorption_matrix,
    _smoother,
    assemble_lambda,
    assemble_nonhomogeneous,
    nonlinear_solve,
    source_nonhomogeneous,
)

CASE = get_case("hemisphere2")


def manufactured_lambda_forcing(lam):
    def f(x):
        return CASE.forcing(x) + lam * CASE.exact_u(x)
    return f


def manufactured_nonlinear_forcing(lam, p):
    def f(x):
        u = CASE.exact_u(x)
        return CASE.forcing(x) + lam * u * np.abs(u) ** (2.0 * p - 2.0)
    return f


# manufactured flux data: u = z^2 - 7/12 has du/dn = -sqrt(3)/2 on the rim
def _nh_u(x):
    return x[:, 2] ** 2 - 7.0 / 12.0


def _nh_f(x):
    return 6.0 * x[:, 2] ** 2 - 2.0


def _nh_g(q):
    return np.full(q.shape[0], -np.sqrt(3.0) / 2.0)


def test_lambda_zero_is_identity(small_cloud):
    base = assemble(small_cloud, mode="full")
    lam0 = assemble_lambda(small_cloud, lam=0.0)
    assert abs(lam0.S - base.S).max() == 0.0


def test_lambda_rejects_negative(small_cloud):
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_lambda(small_cloud, lam=-1.0)


def test_lambda_constant_energy(small_cloud):
    lam = 1.7
    system = assemble_lambda(small_cloud, lam=lam)
    omega2, _ = _smoother(system)
    omega_hat = system.coupling.omega_hat
    ones = np.ones(small_cloud.n0)
    got = float(ones @ (system.S @ ones))
    want = lam * float(omega2 @ small_cloud.A) \
        + lam * float(omega_hat @ small_cloud.L)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


def test_lambda_strictly_positive_definite(small_cloud):
    system = assemble_lambda(small_cloud, lam=1.0)
    vals = np.linalg.eigvalsh(system.S.toarray())
    assert vals[0] > 0.0
    assert (system.S - system.S.T).count_nonzero() == 0


def test_lambda_rhs_keeps_mean(small_cloud):
    """The absorption system drops the mean-zero projection of the source."""
    system = assemble_lambda(small_cloud, lam=1.0,
                             f=manufactured_lambda_forcing(1.0))
    assert system.mean_shift == 0.0
    base = assemble(small_cloud, mode="full",
                    f=manufactured_lambda_forcing(1.0))
    assert np.array_equal(system.rhs, small_cloud.A * base.f_delta)
    assert abs(float(system.rhs.sum())) > 0.0


def test_lambda_field_variant(small_cloud):
    def lam_field(x):
        return 1.0 + x[:, 2] ** 2

    def f(x):
        return CASE.forcing(x) + lam_field(x) * CASE.exact_u(x)

    system = assemble_lambda(small_cloud, lam=lam_field, f=f)
    res = solve_spd(system, tol=1e-11)
    assert res.converged


def test_lambda_manufactured_convergence():
    lam = 1.0
    meds = []
    for t in (5, 10, 20, 40):
        errs = []
        for seed in (1, 2, 3, 4, 5):
            cloud = build_cloud("hemisphere2", t, seed)
            system = assemble_lambda(cloud, lam=lam,
                                     f=manufactured_lambda_forcing(lam))
            res = solve_spd(system, tol=1e-11)
            assert res.converged
            errs.append(e2_error(res.U, cloud))
        meds.append(float(np.median(errs)))
    assert all(a > b for a, b in zip(meds, meds[1:]))


def test_energy_gradient_matches_finite_differences(small_cloud, rng):
    """The quadratic (p=1) energy must differentiate to the system matrix."""
    lam = 0.9
    config = VariantConfig(kind="nonlinear", lam=lam, p=1.0,
                           f=lambda x: np.zeros(x.shape[0]))
    work = _NonlinearWork(small_cloud, small_cloud.delta, cosine_profile(),
                          config)
    lam_vec = np.full(small_cloud.n0, lam)
    lam_bnd = np.full(small_cloud.m0, lam)
    M = _absorption_matrix(work.base, work.Pbar, work.omega2, lam_vec, lam_bnd)
    U = rng.standard_normal(small_cloud.n0)
    grad = (work.base.S + M) @ U
    h = 1e-6
    fd = np.empty_like(U)
    for i in range(len(U)):
        up, dn = U.copy(), U.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (work.energy(up) - work.energy(dn)) / (2 * h)
    scale = np.abs(grad).max()
    assert np.abs(fd - grad).max() <= 1e-6 * scale


def test_lambda_homotopy_approaches_base(medium_cloud):
    base = assemble(medium_cloud, mode="full")
    u_base = solve_mean_zero(base, tol=1e-12).U
    gaps = []
    for lam in (1.0, 0.1, 0.01):
        system = assemble_lambda(medium_cloud, lam=lam)
        u_lam = solve_spd(system, tol=1e-12).U
        # compare modulo the additive constant the base constraint fixes
        shift = float((u_lam - u_base) @ medium_cloud.A / medium_cloud.A.sum())
        gaps.append(float(np.linalg.norm(u_lam - shift - u_base)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_nonhomogeneous_zero_flux_is_bitwise_base(small_cloud):
    base = assemble(small_cloud, mode="full")
    nh = assemble_nonhomogeneous(small_cloud, f=None, g=None)
    assert np.array_equal(nh.rhs, base.rhs)
    assert abs(nh.S - base.S).max() == 0.0
    a = solve_mean_zero(base, tol=1e-11)
    b = solve_mean_zero(nh, tol=1e-11)
    assert np.array_equal(a.U, b.U)


def test_nonhomogeneous_smooths_the_forcing_once(small_cloud, monkeypatch):
    """assemble_nonhomogeneous reuses the base system's smoothed forcing:
    one smoothed_forcing call, and the right side source_nonhomogeneous
    gives."""
    calls = {"smoothed_forcing": 0}

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    smoothed = counted(assembly.smoothed_forcing, "smoothed_forcing")
    monkeypatch.setattr(assembly, "smoothed_forcing", smoothed)
    monkeypatch.setattr(variants, "smoothed_forcing", smoothed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble_nonhomogeneous(small_cloud, f=_nh_f, g=_nh_g)
    assert calls == {"smoothed_forcing": 1}
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F, shift = source_nonhomogeneous(small_cloud, f=_nh_f, g=_nh_g)
    assert np.array_equal(system.rhs, small_cloud.A * F)
    assert system.mean_shift == shift


@pytest.mark.parametrize("variant,mode", [
    ("none", "full"), ("none", "reduced"), ("lambda", "full"),
    ("nonhomogeneous", "full"), ("nonlinear", "full"),
])
def test_one_pair_search_per_point_set(variant, mode, monkeypatch):
    """A solve searches the interior pairs once and, in full mode, the
    boundary pairs and the point-boundary pairs once each."""
    searches = []

    def counted(fn):
        def call(points, *args):
            searches.append((fn.__name__, len(points)))
            return fn(points, *args)
        return call

    for name in ("_sym_pairs", "_cross_pairs"):
        monkeypatch.setattr(assembly, name, counted(getattr(assembly, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        row, _ = run_single("hemisphere2", 5, 1,
                            HarnessOptions(variant=variant, mode=mode))
    want = [("_sym_pairs", row.n0)]
    if mode == "full":
        want += [("_cross_pairs", row.n0), ("_sym_pairs", row.m0)]
    assert sorted(searches) == sorted(want)


def test_nonhomogeneous_compatibility_warning(small_cloud):
    with pytest.warns(UserWarning, match="compatibility"):
        source_nonhomogeneous(small_cloud, f=lambda x: np.ones(x.shape[0]),
                              g=lambda q: np.ones(q.shape[0]))


def test_nonhomogeneous_mean_zero_rhs(small_cloud):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F, _ = source_nonhomogeneous(small_cloud, f=_nh_f, g=_nh_g)
        Fg0, _ = source_nonhomogeneous(
            small_cloud, f=lambda x: np.zeros(x.shape[0]),
            g=lambda q: np.full(q.shape[0], 2.0))
    assert abs(float(F @ small_cloud.A)) <= 1e-12 * float(np.abs(F) @ small_cloud.A)
    assert abs(float(Fg0 @ small_cloud.A)) <= 1e-12 * max(
        float(np.abs(Fg0) @ small_cloud.A), 1e-30)


def test_nonhomogeneous_manufactured_trend():
    """Flux-driven manufactured case: error trend decreasing in delta."""
    import warnings
    meds, deltas = [], []
    for t in (5, 10, 20, 40):
        errs = []
        for seed in (1, 2, 3):
            cloud = build_cloud("hemisphere2", t, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                system = assemble_nonhomogeneous(cloud, f=_nh_f, g=_nh_g)
            res = solve_mean_zero(system, tol=1e-11)
            assert res.converged
            errs.append(e2_error(res.U, cloud, _nh_u))
        meds.append(float(np.median(errs)))
        deltas.append(cloud.delta)
    slope = np.polyfit(np.log(deltas), np.log(meds), 1)[0]
    assert slope >= 1.0
    assert meds[-1] < 0.25 * meds[0]


def test_nonlinear_zero_forcing_fixed_point(small_cloud):
    config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5,
                           f=lambda x: np.zeros(x.shape[0]))
    res = nonlinear_solve(small_cloud, config=config)
    assert res.converged and res.iterations == 0
    assert np.all(res.U == 0.0)
    assert res.residual == 0.0
    assert res.energy_history == [0.0]


def test_nonlinear_p_one_matches_lambda(small_cloud):
    lam = 1.3
    f = manufactured_lambda_forcing(lam)
    config = VariantConfig(kind="nonlinear", lam=lam, p=1.0, f=f)
    res = nonlinear_solve(small_cloud, config=config)
    assert res.converged
    linear = solve_spd(assemble_lambda(small_cloud, lam=lam, f=f), tol=1e-12)
    assert np.abs(res.U - linear.U).max() <= 1e-8 * max(1.0, np.abs(linear.U).max())


def test_nonlinear_manufactured_residual():
    lam, p = 1.0, 1.5
    cloud = build_cloud("hemisphere2", 20, 1)
    config = VariantConfig(kind="nonlinear", lam=lam, p=p,
                           f=manufactured_nonlinear_forcing(lam, p))
    res = nonlinear_solve(cloud, config=config)
    assert res.converged
    assert res.residual < 1e-8
    J = np.array(res.energy_history)
    assert np.all(np.diff(J) <= 1e-12 * np.maximum(1.0, np.abs(J[:-1])))
    assert res.energy_monotone
    assert res.iterations == 6
    assert res.inner_misses == 0
    assert res.inner_iterations > res.iterations


def test_newton_hessian_matches_finite_differences(small_cloud, rng):
    """The Newton operator is the derivative of the gradient U -> frozen(U) U,
    and the Newton right side puts the step at -H^-1 grad J."""
    config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5)
    work = _NonlinearWork(small_cloud, small_cloud.delta, cosine_profile(),
                          config)
    U = rng.standard_normal(small_cloud.n0)
    v = rng.standard_normal(small_cloud.n0)
    hessian, rhs = work.newton(U)
    h = 1e-6
    fd = (work.frozen(U + h * v) @ (U + h * v)
          - work.frozen(U - h * v) @ (U - h * v)) / (2 * h)
    want = hessian @ v
    assert np.linalg.norm(fd - want) <= 1e-6 * np.linalg.norm(want)
    grad = work.frozen(U) @ U - work.rhs
    assert np.linalg.norm(hessian @ U - rhs - grad) <= 1e-12 * np.linalg.norm(rhs)


def test_nonlinear_newton_converges_where_picard_stalled():
    """hemisphere2 t=40 cloud 15: damped Picard stopped at 50 steps with
    residual 1.2e-3; damped Newton converges with a monotone energy."""
    lam, p = 1.0, 1.5
    cloud = build_cloud("hemisphere2", 40, 15)
    config = VariantConfig(kind="nonlinear", lam=lam, p=p,
                           f=manufactured_nonlinear_forcing(lam, p))
    res = nonlinear_solve(cloud, config=config)
    assert res.converged
    assert res.residual <= 1e-10
    J = np.array(res.energy_history)
    assert np.all(np.diff(J) <= 1e-12 * np.maximum(1.0, np.abs(J[:-1])))
    assert res.energy_monotone
    assert res.inner_misses == 0


def test_nonlinear_converged_needs_small_residual(small_cloud, monkeypatch):
    """A step of size zero is not convergence while the residual is large."""
    def no_step(self, U, tol):
        return SolveResult(U=U.copy(), V=np.zeros(small_cloud.m0),
                           residual=0.0, iterations=0, converged=True)

    monkeypatch.setattr(_NonlinearWork, "frozen_solve", no_step)
    lam, p = 1.0, 1.5
    config = VariantConfig(kind="nonlinear", lam=lam, p=p,
                           f=manufactured_nonlinear_forcing(lam, p))
    res = nonlinear_solve(small_cloud, config=config)
    assert res.iterations == 1
    assert res.residual > config.picard_tol
    assert res.converged is False


@pytest.mark.parametrize("cloud_name", ["small_cloud", "medium_cloud"])
@pytest.mark.parametrize("boundary", ["random", "zero"])
def test_frozen_operator_matches_materialized(cloud_name, boundary, request,
                                              rng):
    """Matrix-free apply and diagonal equal base S plus the absorption block."""
    cloud = request.getfixturevalue(cloud_name)
    config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5)
    work = _NonlinearWork(cloud, cloud.delta, cosine_profile(), config)
    w_int = rng.uniform(0.0, 2.0, cloud.n0)
    w_bnd = (rng.uniform(0.0, 2.0, cloud.m0) if boundary == "random"
             else np.zeros(cloud.m0))
    dense = work.base.S + _absorption_matrix(work.base, work.Pbar,
                                             work.omega2, w_int, w_bnd)
    op = _FrozenOperator(work, w_int * work.interior_mass,
                         w_bnd * work.boundary_mass)
    x = rng.standard_normal(cloud.n0)
    want = dense @ x
    assert np.linalg.norm(op @ x - want) <= 1e-13 * np.linalg.norm(want)
    d_want = dense.diagonal()
    assert np.abs(op.diagonal() - d_want).max() <= 1e-13 * np.abs(d_want).max()


def test_jacobi_cuts_frozen_system_iterations():
    """On criterion 9's cloud, Jacobi PCG needs at least 3x fewer iterations
    than plain CG on the first Newton system."""
    lam, p = 1.0, 1.5
    cloud = build_cloud("hemisphere2", 20, 1)
    config = VariantConfig(kind="nonlinear", lam=lam, p=p,
                           f=manufactured_nonlinear_forcing(lam, p))
    work = _NonlinearWork(cloud, cloud.delta, cosine_profile(), config)
    U0 = solve_mean_zero(work.base, tol=1e-12, precondition=True).U
    hessian, rhs = work.newton(U0)
    iters = {}
    for jacobi in (False, True):
        _, rel, iters[jacobi], ok = cg(hessian, rhs, tol=1e-12,
                                       max_iter=20 * cloud.n0, x0=U0,
                                       precondition=jacobi)
        assert ok and rel <= 1e-12
    assert 3 * iters[True] <= iters[False]


def test_nonlinear_config_validation(small_cloud):
    with pytest.raises(ValueError):
        VariantConfig(kind="sublinear")
    with pytest.raises(ValueError):
        VariantConfig(kind="nonlinear", theta=0.0)
    with pytest.raises(ValueError):
        nonlinear_solve(small_cloud,
                        config=VariantConfig(kind="nonlinear", p=0.5))
    with pytest.raises(ValueError):
        nonlinear_solve(small_cloud,
                        config=VariantConfig(kind="nonlinear", lam=0.0))
    with pytest.raises(ValueError):
        nonlinear_solve(small_cloud,
                        config=VariantConfig(kind="nonlinear",
                                             lam=lambda x: x[:, 0]))


def test_nonlinear_supercritical_warns():
    cloud = build_cloud("hemisphere3", 4, 1)
    config = VariantConfig(kind="nonlinear", lam=1.0, p=3.5,
                           f=lambda x: np.zeros(x.shape[0]))
    with pytest.warns(UserWarning, match="subcritical"):
        nonlinear_solve(cloud, config=config)


def test_energy_constant_field(small_cloud):
    """With f = 0, constants feel only the absorption terms."""
    lam, p, c = 1.1, 1.5, 0.7
    config = VariantConfig(kind="nonlinear", lam=lam, p=p,
                           f=lambda x: np.zeros(x.shape[0]))
    U = np.full(small_cloud.n0, c)
    work = _NonlinearWork(small_cloud, small_cloud.delta, cosine_profile(),
                          config)
    got = work.energy(U)
    omega2, _ = _smoother(assemble(small_cloud, mode="full"))
    want = lam / (2 * p) * c ** (2 * p) * (
        float(omega2 @ small_cloud.A)
        + float(work.base.coupling.omega_hat @ small_cloud.L))
    assert got == pytest.approx(want, rel=1e-12)
