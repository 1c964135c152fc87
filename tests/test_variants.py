"""Generalized models: absorption, boundary flux, nonlinear iteration."""

import dataclasses
import warnings

import numpy as np
import pytest

from nlpoisson import assembly, variants
from nlpoisson.assembly import assemble, boundary_trace
from nlpoisson.geometry import build_cloud, get_case
from nlpoisson.harness import (
    G_CASES,
    VARIANTS,
    HarnessOptions,
    convergence_study,
    run_single,
)
from nlpoisson.kernels import cosine_profile
from nlpoisson.solver import SolveResult, cg, solve_mean_zero, solve_spd
from nlpoisson.variants import (
    AbsorptionBlocks,
    AbsorptionOperator,
    VariantConfig,
    _NonlinearWork,
    assemble_lambda,
    nonlinear_solve,
    smooth_basis,
)

CASE = get_case("hemisphere2")


def mean_shift(system):
    """The A-weighted mean that the base models remove from f_delta."""
    return float(system.f_delta @ system.A / system.A.sum())


def manufactured_forcing(variant, **options):
    """The forcing a variant is scored with on hemisphere2."""
    return VARIANTS[variant].data(
        CASE, HarnessOptions(variant=variant, **options))[1]


def manufactured_config(**options):
    """The nonlinear model's VariantConfig with its manufactured forcing."""
    return HarnessOptions(variant="nonlinear", **options).variant_config(
        manufactured_forcing("nonlinear", **options))


# manufactured flux data: u = z^2 - 7/12 has du/dn = -sqrt(3)/2 on the rim
_, _, _nh_f, _nh_g = G_CASES["hemisphere2_zsq"]


def test_lambda_zero_is_identity(small_cloud):
    base = assemble(small_cloud, mode="full")
    lam0 = assemble_lambda(small_cloud, lam=0.0)
    assert abs(lam0.S - base.S).max() == 0.0


def test_lambda_rejects_negative(small_cloud):
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_lambda(small_cloud, lam=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lambda_rejects_non_finite_field(small_cloud, bad):
    """One non-finite value in a lambda field is refused."""
    def lam_field(x):
        vals = np.ones(x.shape[0])
        vals[0] = bad
        return vals

    with pytest.raises(ValueError, match="finite"):
        assemble_lambda(small_cloud, lam=lam_field)


def test_lambda_constant_energy(small_cloud):
    lam = 1.7
    system = assemble_lambda(small_cloud, lam=lam)
    omega2 = system.operator.blocks.omega2
    omega_hat = system.coupling.omega_hat
    ones = np.ones(small_cloud.n0)
    got = float(ones @ (system.S @ ones))
    want = lam * float(omega2 @ small_cloud.A) \
        + lam * float(omega_hat @ small_cloud.L)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


def test_lambda_strictly_positive_definite(small_cloud):
    S = assemble_lambda(small_cloud, lam=1.0).S
    vals = np.linalg.eigvalsh(S.toarray())
    assert vals[0] > 0.0
    assert (S - S.T).count_nonzero() == 0


def test_lambda_rhs_keeps_mean(small_cloud):
    """The absorption system drops the mean-zero projection of the source."""
    system = assemble_lambda(small_cloud, lam=1.0,
                             f=manufactured_forcing("lambda", lam=1.0))
    assert np.array_equal(system.rhs, small_cloud.A * system.f_delta)
    base = assemble(small_cloud, mode="full",
                    f=manufactured_forcing("lambda", lam=1.0))
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


def test_lambda_manufactured_convergence(lambda_study):
    """Criterion 8's sweep: every solve converges and the e2 medians
    strictly decrease."""
    assert all(r.converged for r in lambda_study.rows)
    meds = [median for _, _, median in lambda_study.medians()]
    assert all(a > b for a, b in zip(meds, meds[1:]))


def gradient(work, U):
    """The gradient of the energy at U, from newton() on energy()'s
    products."""
    return work.newton(*work.energy(U)[1:])[0]


def test_energy_gradient_matches_finite_differences(small_cloud, rng):
    """The quadratic (p=1) energy must differentiate to the system matrix,
    and at p = 1.5 with the manufactured forcing to newton()'s gradient."""
    lam = 0.9
    config = VariantConfig(kind="nonlinear", lam=lam, p=1.0,
                           f=lambda x: np.zeros(x.shape[0]))
    p_one = _NonlinearWork(small_cloud, cosine_profile(), config)
    system = AbsorptionOperator(p_one, lam * p_one.measure)
    config = manufactured_config(lam=lam)
    p_nonlinear = _NonlinearWork(small_cloud, cosine_profile(), config)
    U = rng.standard_normal(small_cloud.n0)
    h = 1e-6
    for work, grad in ((p_one, system @ U),
                       (p_nonlinear, gradient(p_nonlinear, U))):
        fd = np.empty_like(U)
        for i in range(len(U)):
            up, dn = U.copy(), U.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (work.energy(up)[0] - work.energy(dn)[0]) / (2 * h)
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
    """A flux g = 0 leaves the base system as it is, bit for bit; it still
    warns, since sum(f A) misses 0 by the quadrature error."""
    base = assemble(small_cloud, mode="full")
    with pytest.warns(UserWarning, match="compatibility"):
        nh = assemble(small_cloud, g=lambda q: np.zeros(q.shape[0]))
    assert nh.variant == "nonhomogeneous"
    assert np.array_equal(nh.rhs, base.rhs)
    assert np.array_equal(nh.f_delta, base.f_delta)
    assert mean_shift(nh) == mean_shift(base)
    assert abs(nh.S - base.S).max() == 0.0
    a = solve_mean_zero(base, tol=1e-11)
    b = solve_mean_zero(nh, tol=1e-11)
    assert np.array_equal(a.U, b.U)


def test_nonhomogeneous_smooths_the_forcing_once(small_cloud, monkeypatch):
    """assemble(..., g=g) smooths the forcing and the flux in one
    smoothed_forcing call; the right side is A times that source with its
    A-weighted mean removed."""
    calls = {"smoothed_forcing": 0}

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    smoothed = counted(assembly.smoothed_forcing, "smoothed_forcing")
    monkeypatch.setattr(assembly, "smoothed_forcing", smoothed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(small_cloud, f=_nh_f, g=_nh_g)
    assert calls == {"smoothed_forcing": 1}
    A = small_cloud.A
    assert mean_shift(system) != 0.0
    assert np.array_equal(system.rhs, A * (system.f_delta - mean_shift(system)))


@pytest.mark.parametrize("variant,mode", [
    ("none", "full"), ("none", "reduced"), ("lambda", "full"),
    ("nonhomogeneous", "full"), ("nonlinear", "full"),
])
def test_one_pair_search_per_point_set(variant, mode, monkeypatch):
    """A solve makes one neighbour search, on one kd-tree over all n0
    cloud points; the boundary and point-boundary pairs are taken from it.
    It multiplies out no block product: S and the absorption operators are
    applied from their blocks, and the nonlinear model starts on R_A."""
    calls = {"_sym_pairs": [], "cKDTree": [], "symmetric_product": []}

    def counted(name):
        fn = getattr(assembly, name)

        def call(first, *args):
            calls[name].append(first.shape[0])
            return fn(first, *args)
        return call

    for name in calls:
        monkeypatch.setattr(assembly, name, counted(name))
    monkeypatch.setattr(variants, "symmetric_product",
                        assembly.symmetric_product)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        row, _ = run_single("hemisphere2", 5, 1,
                            HarnessOptions(variant=variant, mode=mode))
    assert calls == {"_sym_pairs": [row.n0], "cKDTree": [row.n0],
                     "symmetric_product": []}


@pytest.mark.parametrize("case,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_every_block_on_the_one_pattern(case, t):
    """Every block is built on the one Kbar pattern of the pair search: the
    reduced-mode S (R_A) and the absorption blocks' squared smoother
    entries Kbar_sq hold exactly its entries, RbarL those of its trailing
    m0 x m0 block, and zeta only entries of its last m0 columns."""
    cloud = build_cloud(case, t, 1)
    full = assemble(cloud)
    pairs = full.pairs
    n0, nb = cloud.n0, cloud.n0 - cloud.m0
    same = (assemble(cloud, mode="reduced").S, AbsorptionBlocks(full).Kbar_sq,
            full.coupling.RbarL)
    for block, pattern in zip(same, (pairs, pairs, pairs[nb:, nb:])):
        assert np.array_equal(block.indptr, pattern.indptr)
        assert np.array_equal(block.indices, pattern.indices)
    zeta, cross = full.coupling.zeta.tocoo(), pairs[:, nb:].tocoo()
    assert zeta.nnz > 0
    assert set(zip(zeta.row, zeta.col)) <= set(zip(cross.row, cross.col))


@pytest.mark.parametrize("case,t", [("hemisphere2", 10), ("hemisphere3", 4)])
def test_absorption_blocks_hold_no_B(case, t):
    """B is not stored: the blocks apply it from the base system's own
    Kbar pattern and AZ block, and averages() and spread() apply B^T and
    B, B = [Pbar^T | AZ] multiplied out densely from the pairs and the
    coupling."""
    base = assemble(build_cloud(case, t, 1))
    blocks = AbsorptionBlocks(base)
    assert not any(hasattr(blocks, name) for name in ("B", "BT", "Bsq"))
    assert blocks.Kbar is base.pairs and blocks.AZ is base.operator.AZ
    cloud = base.cloud
    Kbar = base.pairs.toarray()
    B = np.hstack([(Kbar * cloud.A[None, :] / (Kbar @ cloud.A)[:, None]).T,
                   cloud.A[:, None] * base.coupling.zeta.toarray()])
    local = np.random.default_rng(7)
    x = local.standard_normal(cloud.n0)
    y = local.standard_normal(cloud.n0 + cloud.m0)
    for got, want in ((blocks.averages(x), B.T @ x), (blocks.spread(y), B @ y)):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_absorption_operator_unchanged_by_its_diagonal(small_cloud, rng):
    """The first diagonal() call leaves the blocks as they were: the
    apply, the diagonal and materialize() agree bit for bit before and
    after it."""
    op = assemble_lambda(small_cloud, lam=1.0).operator
    x = rng.standard_normal(small_cloud.n0)
    before = (op @ x, op.diagonal(), op.materialize())
    after = (op @ x, op.diagonal(), op.materialize())
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert np.array_equal(before[2].indices, after[2].indices)
    assert np.array_equal(before[2].data, after[2].data)


def test_absorption_diagonal_reads_cached_squares(medium_cloud):
    """The operator's diagonal reads Kbar's and AZ's squared entries,
    cached once, Kbar_sq on Kbar's own index arrays, and equals
    S_diagonal + B.power(2) @ w, B = [Pbar^T | AZ] built densely, to
    1e-14, on the lambda model and on a Newton Hessian."""
    lam = assemble_lambda(medium_cloud, lam=1.0).operator
    work = _NonlinearWork(medium_cloud, cosine_profile(), VariantConfig())
    U = solve_mean_zero(work.base, tol=1e-3).U
    _, hessian, _ = work.newton(*work.energy(U)[1:])
    for op in (lam, hessian):
        b = op.blocks
        assert np.shares_memory(b.Kbar_sq.indices, b.Kbar.indices)
        assert np.shares_memory(b.Kbar_sq.indptr, b.Kbar.indptr)
        assert np.array_equal(b.Kbar_sq.data, b.Kbar.data ** 2)
        assert np.array_equal(b.AZ_sq.toarray(), b.AZ.toarray() ** 2)
        Kbar = b.Kbar.toarray()
        B = np.hstack([(Kbar * medium_cloud.A[None, :] / b.omega2[:, None]).T,
                       b.AZ.toarray()])
        want = b.S_diagonal + (B ** 2) @ op.w
        assert np.abs(op.diagonal() - want).max() <= 1e-14 * np.abs(want).max()


def test_nonhomogeneous_compatibility_warning(small_cloud):
    with pytest.warns(UserWarning, match="compatibility"):
        assemble(small_cloud, f=lambda x: np.ones(x.shape[0]),
                 g=lambda q: np.ones(q.shape[0]))


def test_nonhomogeneous_mean_zero_rhs(small_cloud):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nh = assemble(small_cloud, f=_nh_f, g=_nh_g)
        nh0 = assemble(small_cloud, f=lambda x: np.zeros(x.shape[0]),
                       g=lambda q: np.full(q.shape[0], 2.0))
    F, Fg0 = nh.f_delta - mean_shift(nh), nh0.f_delta - mean_shift(nh0)
    assert abs(float(F @ small_cloud.A)) <= 1e-12 * float(np.abs(F) @ small_cloud.A)
    assert abs(float(Fg0 @ small_cloud.A)) <= 1e-12 * max(
        float(np.abs(Fg0) @ small_cloud.A), 1e-30)


def test_nonhomogeneous_manufactured_trend():
    """Flux-driven manufactured case: error trend decreasing in delta."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "discrete compatibility", UserWarning)
        report = convergence_study(
            "hemisphere2", [5, 10, 20, 40], seeds=3,
            options=HarnessOptions(variant="nonhomogeneous", tol=1e-11))
    assert all(r.converged for r in report.rows)
    meds = [median for _, _, median in report.medians()]
    assert report.slope >= 1.0
    assert meds[-1] < 0.25 * meds[0]


def test_nonlinear_zero_forcing_fixed_point(small_cloud):
    config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5,
                           f=lambda x: np.zeros(x.shape[0]))
    res = nonlinear_solve(small_cloud, config=config)
    assert res.converged and res.iterations == 0
    assert res.reason == "converged"
    assert np.all(res.U == 0.0)
    assert res.residual == 0.0
    assert res.energy_history == [0.0]


def test_nonlinear_p_one_matches_lambda(small_cloud):
    lam = 1.3
    f = manufactured_forcing("lambda", lam=lam)
    config = VariantConfig(kind="nonlinear", lam=lam, p=1.0, f=f)
    res = nonlinear_solve(small_cloud, config=config)
    assert res.converged and res.reason == "converged"
    linear = solve_spd(assemble_lambda(small_cloud, lam=lam, f=f), tol=1e-12)
    assert np.abs(res.U - linear.U).max() <= 1e-8 * max(1.0, np.abs(linear.U).max())


def test_nonlinear_manufactured_residual(energy_non_increasing):
    cloud = build_cloud("hemisphere2", 20, 1)
    config = manufactured_config()
    res = nonlinear_solve(cloud, config=config)
    assert res.converged and res.reason == "converged"
    assert res.residual < 1e-8
    assert energy_non_increasing(res)
    assert res.iterations == 4
    assert res.inner_misses == 0
    assert res.inner_iterations > res.iterations
    # two-level PCG with inexact Newton steps: 32 measured; with every
    # system solved to INNER_TOL it took 61, and Jacobi PCG 87
    assert res.inner_iterations <= 60


def test_newton_hessian_matches_finite_differences(small_cloud, rng):
    """The Newton operator is the derivative of the energy's gradient,
    and the Newton right side puts the step at -H^-1 grad J."""
    config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5)
    work = _NonlinearWork(small_cloud, cosine_profile(), config)
    U = rng.standard_normal(small_cloud.n0)
    v = rng.standard_normal(small_cloud.n0)
    grad, hessian, rhs = work.newton(*work.energy(U)[1:])
    h = 1e-6
    fd = (gradient(work, U + h * v) - gradient(work, U - h * v)) / (2 * h)
    want = hessian @ v
    assert np.linalg.norm(fd - want) <= 1e-6 * np.linalg.norm(want)
    assert np.linalg.norm(hessian @ U - rhs - grad) <= 1e-12 * np.linalg.norm(rhs)


def test_nonlinear_newton_converges_where_picard_stalled(energy_non_increasing):
    """hemisphere2 t=40 cloud 15: damped Picard stopped at 50 steps with
    residual 1.2e-3; damped Newton converges with a monotone energy."""
    cloud = build_cloud("hemisphere2", 40, 15)
    config = manufactured_config()
    res = nonlinear_solve(cloud, config=config)
    assert res.converged and res.reason == "converged"
    assert res.residual <= 1e-10
    assert energy_non_increasing(res)
    assert res.inner_misses == 0


@pytest.mark.parametrize("p", [4.0, 15.0, 20.0])
def test_nonlinear_large_exponent_converges(p, energy_non_increasing):
    """hemisphere2 t=5 cloud 1 with the manufactured forcing: the line
    search rejects every trial that raises the energy.  Accepting the
    rising step at theta = 1/16 ended p = 4 at the step limit with
    residual 4.9e5, and overflowed at p = 15.  The minimization along the
    constants stays in its bracket, where no power overflows, up to
    p = 20."""
    _, res = run_single("hemisphere2", 5, 1,
                        HarnessOptions(variant="nonlinear", p=p))
    assert res.converged and res.reason == "converged"
    assert energy_non_increasing(res)


@pytest.mark.parametrize("t, seed", [(20, 1), (40, 15)])
def test_inexact_newton_matches_tight_inner_solves(t, seed, monkeypatch,
                                                  energy_non_increasing):
    """Newton systems solved to the forcing term, and the start to
    START_TOL, give the solve with every inner system solved to INNER_TOL
    (forcing cap 0): the same U, for at most 60% of its inner CG
    iterations.  The step counts are the measured ones: at t=20 the
    inexact solve's third step moves 1.5e-10, just over picard_tol, so a
    fourth step confirms it."""
    cloud = build_cloud("hemisphere2", t, seed)
    config = manufactured_config()
    res = nonlinear_solve(cloud, config=config)
    monkeypatch.setattr(variants, "FORCING_MAX", 0.0)
    monkeypatch.setattr(variants, "START_TOL", variants.INNER_TOL)
    ref = nonlinear_solve(cloud, config=config)
    for r in (res, ref):
        assert r.reason == "converged"
        assert energy_non_increasing(r) and r.inner_misses == 0
    steps = {(20, 1): (4, 3), (40, 15): (3, 3)}[t, seed]
    assert (res.iterations, ref.iterations) == steps
    assert np.linalg.norm(res.U - ref.U) <= 1e-10 * np.linalg.norm(ref.U)
    assert res.inner_iterations <= 0.6 * ref.inner_iterations


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
def test_settle_minimizes_along_the_constants(medium_cloud, rng, p):
    """settle() moves a random U to the minimizer of J along the constants:
    its energy and products are energy()'s at the shifted U, the gradient
    there has no constant component, and J rises on either side."""
    work = _NonlinearWork(medium_cloud, cosine_profile(),
                          manufactured_config(p=p))
    U = rng.standard_normal(medium_cloud.n0)
    _, SU, a = work.energy(U)
    V, J, SV, b = work.settle(U, SU, a)
    assert np.ptp(V - U) <= 1e-14 and V[0] != U[0]
    J_want, SV_want, b_want = work.energy(V)
    assert J == pytest.approx(J_want, rel=1e-13)
    for got, want in ((SV, SV_want), (b, b_want)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    g = work.newton(SV, b)[0]
    assert abs(float(g.sum())) <= 1e-12 * np.linalg.norm(work.rhs)
    for h in (-1e-4, 1e-4):
        assert work.energy(V + h)[0] > J


@pytest.mark.parametrize("t, p", [(20, 1.5), (40, 1.5), (5, 20.0)])
def test_newton_steps_start_with_no_constant_gradient(t, p, monkeypatch):
    """Every Newton step, from the start and after each accepted step,
    starts where the gradient g of J has no constant component:
    |1^T g| <= 1e-12 |A f_delta|."""
    cloud = build_cloud("hemisphere2", t, 1)
    config = manufactured_config(p=p)
    gradients, solve = [], variants.solve_spd

    def recorded(system, **kwargs):
        gradients.append(-system.rhs)
        return solve(system, **kwargs)

    monkeypatch.setattr(variants, "solve_spd", recorded)
    res = nonlinear_solve(cloud, config=config)
    assert res.reason == "converged" and len(gradients) == res.iterations
    rnorm = np.linalg.norm(_NonlinearWork(cloud, None, config).rhs)
    for g in gradients:
        assert abs(float(g.sum())) <= 1e-12 * rnorm


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_settled_newton_takes_fewer_steps(seed, monkeypatch):
    """hemisphere2 t=40: with the constant settled at each iterate, clouds
    1-4 take at most 4, 4, 3 and 3 Newton steps (6, 6, 4 and 5 without),
    and end within 1e-10 relative of the U that the solve with every
    system solved to INNER_TOL gives."""
    cloud = build_cloud("hemisphere2", 40, seed)
    config = manufactured_config()
    res = nonlinear_solve(cloud, config=config)
    monkeypatch.setattr(variants, "FORCING_MAX", 0.0)
    monkeypatch.setattr(variants, "START_TOL", variants.INNER_TOL)
    ref = nonlinear_solve(cloud, config=config)
    for r in (res, ref):
        assert r.reason == "converged" and r.inner_misses == 0
    assert res.iterations <= {1: 4, 2: 4, 3: 3, 4: 3}[seed]
    assert np.linalg.norm(res.U - ref.U) <= 1e-10 * np.linalg.norm(ref.U)


def test_nonlinear_converged_needs_small_residual(small_cloud, monkeypatch):
    """A zero correction is not convergence while the residual is large,
    and a NaN correction stops the line search, where theta used to halve
    without end: either way U stays at the start and the solve stalls."""
    energy, trials = variants._NonlinearWork.energy, []

    def bounded(work, U):
        trials.append(U)
        assert len(trials) <= 100, "the line search does not end"
        return energy(work, U)

    monkeypatch.setattr(variants._NonlinearWork, "energy", bounded)
    config = manufactured_config()
    for scale in (0.0, np.nan):
        monkeypatch.setattr(variants, "solve_spd", lambda system, tol, max_iter:
                            SolveResult(U=np.full(len(system.rhs), scale),
                                        V=None, residual=0.0, iterations=0,
                                        converged=True))
        trials.clear()
        res = nonlinear_solve(small_cloud, config=config)
        assert res.iterations == 1 and res.reason == "stalled"
        assert res.converged is False and res.residual > config.picard_tol
        assert np.array_equal(res.U, trials[0])


def test_nonlinear_solve_multiplies_nothing_out(monkeypatch):
    """A nonlinear run, start and Newton steps, applies every operator from
    its blocks: neither S nor a Hessian is ever multiplied out."""
    def refuse(self):
        raise AssertionError("materialize() called")

    monkeypatch.setattr(assembly.NeumannOperator, "materialize", refuse)
    monkeypatch.setattr(AbsorptionOperator, "materialize", refuse)
    _, res = run_single("hemisphere2", 20, 1,
                        HarnessOptions(variant="nonlinear"))
    assert res.converged and res.reason == "converged"


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_start_on_RA_matches_start_on_the_operator(seed, monkeypatch):
    """hemisphere2 t=40: the start solve on the CSR block R_A / delta^2
    takes as many Newton steps as one on the base operator S, and ends at
    the same U to 1e-10 relative."""
    cloud = build_cloud("hemisphere2", 40, seed)
    config = manufactured_config()
    res = nonlinear_solve(cloud, config=config)
    systems = []

    def recorded(*args, **kwargs):
        systems.append(assemble(*args, **kwargs))
        return systems[-1]

    def on_operator(S, b, **kwargs):
        assert S is systems[-1].operator.RA
        return cg(systems[-1].operator, b, **kwargs)

    monkeypatch.setattr(variants, "assemble", recorded)
    monkeypatch.setattr(variants, "cg", on_operator)
    ref = nonlinear_solve(cloud, config=config)
    assert len(systems) == 1
    for r in (res, ref):
        assert r.reason == "converged" and r.inner_misses == 0
    assert res.iterations == ref.iterations
    assert np.linalg.norm(res.U - ref.U) <= 1e-10 * np.linalg.norm(ref.U)


def test_nonlinear_reason_max_iter():
    """One Newton step on criterion 9's cloud leaves the iteration moving:
    the step limit, not convergence, ends it."""
    cloud = build_cloud("hemisphere2", 20, 1)
    config = dataclasses.replace(manufactured_config(), picard_max=1)
    res = nonlinear_solve(cloud, config=config)
    assert res.iterations == 1
    assert res.converged is False
    assert res.reason == "max_iter"


@pytest.mark.parametrize("cloud_name", ["small_cloud", "medium_cloud"])
@pytest.mark.parametrize("weights", ["random", "zero", "lambda_field"])
def test_frozen_operator_matches_materialized(cloud_name, weights, request,
                                              rng):
    """Matrix-free apply, diagonal and materialize() equal base S plus the
    absorption terms, multiplied out densely from Pbar and AZ built from
    the pairs and the coupling: for random weights, random interior and
    zero boundary weights, and the lambda model with a lambda field.  The
    coarse space's E is Z^T H Z, and the stacked averages B^T U are the
    smoothed values and the boundary trace."""
    cloud = request.getfixturevalue(cloud_name)
    n0 = cloud.n0
    if weights == "lambda_field":
        op = assemble_lambda(cloud, lam=lambda x: 1.0 + x[:, 2] ** 2).operator
    else:
        config = VariantConfig(kind="nonlinear", lam=1.0, p=1.5)
        work = _NonlinearWork(cloud, cosine_profile(), config)
        w_bnd = (rng.uniform(0.0, 2.0, cloud.m0) if weights == "random"
                 else np.zeros(cloud.m0))
        w = np.concatenate([rng.uniform(0.0, 2.0, n0), w_bnd])
        op = AbsorptionOperator(work, w * work.measure)
    base = op.blocks.base
    Kbar = assembly.bar_matrix(base.pairs, n0).toarray()
    Pbar = Kbar * cloud.A[None, :] / (Kbar @ cloud.A)[:, None]
    AZ = cloud.A[:, None] * base.coupling.zeta.toarray()
    w_int, w_bnd = op.w[:n0], op.w[n0:]
    dense = (base.S.toarray() + Pbar.T @ np.diag(w_int) @ Pbar
             + AZ @ np.diag(w_bnd) @ AZ.T)
    x = rng.standard_normal(n0)
    want = dense @ x
    assert np.linalg.norm(op @ x - want) <= 1e-13 * np.linalg.norm(want)
    d_want = np.diag(dense)
    assert np.abs(op.diagonal() - d_want).max() <= 1e-13 * np.abs(d_want).max()
    scale = np.abs(dense).max()
    assert np.abs(op.materialize().toarray() - dense).max() <= 1e-13 * scale
    Z, E = op.coarse_space()
    E_want = Z.T @ dense @ Z
    assert np.abs(E - E_want).max() <= 1e-13 * np.abs(E_want).max()
    a_want = np.concatenate([Pbar @ x, boundary_trace(base.coupling, cloud.A, x)])
    a = op.blocks.averages(x)
    assert np.linalg.norm(a - a_want) <= 1e-14 * np.linalg.norm(a_want)


def plain_cg(S, b, tol, max_iter):
    """Unscaled CG on S x = b from zero; returns (iterations, rel_residual)."""
    x, bnorm = np.zeros(len(b)), float(np.linalg.norm(b))
    r = b.copy()
    p, rr, it = r.copy(), float(r @ r), 0
    while it < max_iter and np.sqrt(rr) > tol * bnorm:
        Sp = S @ p
        alpha = rr / float(p @ Sp)
        x += alpha * p
        r -= alpha * Sp
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p
        it += 1
    return it, float(np.linalg.norm(b - S @ x)) / bnorm


@pytest.fixture(scope="module")
def first_newton_system():
    """Criterion 9's cloud, hemisphere2 t=20 seed 1, and the first Newton
    system at the base model's solution U0, in the form nonlinear_solve
    solves it: its correction H D = -g from D = 0, g the gradient at U0."""
    cloud = build_cloud("hemisphere2", 20, 1)
    config = manufactured_config()
    work = _NonlinearWork(cloud, cosine_profile(), config)
    U0 = solve_mean_zero(work.base, tol=1e-12).U
    g, hessian, _ = work.newton(*work.energy(U0)[1:])
    return cloud, hessian, -g


def test_jacobi_cuts_frozen_system_iterations(first_newton_system):
    """On criterion 9's cloud, Jacobi CG needs at least 3x fewer iterations
    than unscaled CG on the first Newton correction (the multiplied-out
    Hessian offers no coarse space, so cg runs Jacobi alone on it)."""
    cloud, hessian, rhs = first_newton_system
    plain_iters, rel = plain_cg(hessian, rhs, 1e-12, 20 * cloud.n0)
    assert rel <= 1e-12
    _, rel, jacobi_iters, ok, _ = cg(hessian.materialize(), rhs, tol=1e-12,
                                     max_iter=20 * cloud.n0)
    assert ok and rel <= 1e-12
    assert 3 * jacobi_iters <= plain_iters


def test_two_level_cuts_newton_iterations(first_newton_system):
    """The operator's coarse space takes the first Newton correction from
    34 Jacobi iterations to 22, with the same solution (unscaled CG takes
    169)."""
    cloud, hessian, rhs = first_newton_system
    kw = dict(tol=1e-12, max_iter=20 * cloud.n0)
    x_jac, _, jacobi_iters, ok_jac, _ = cg(hessian.materialize(), rhs, **kw)
    x_two, rel, two_level_iters, ok, reason = cg(hessian, rhs, **kw)
    assert ok_jac and ok and rel <= 1e-12 and reason == "converged"
    assert two_level_iters <= 0.7 * jacobi_iters
    assert np.linalg.norm(x_two - x_jac) <= 1e-10 * np.linalg.norm(x_jac)


@pytest.mark.parametrize("case, t, k", [("hemisphere2", 10, 9),
                                        ("hemisphere3", 4, 14)])
def test_smooth_basis_orthonormal(case, t, k):
    """Degree-2 monomials in R^3 (10) and R^4 (15), less |x|^2 - 1."""
    Z = smooth_basis(build_cloud(case, t, 1).points)
    assert Z.shape[1] == k
    assert np.abs(Z.T @ Z - np.eye(k)).max() <= 1e-14


def test_nonlinear_config_validation(small_cloud):
    with pytest.raises(ValueError):
        VariantConfig(kind="sublinear")
    with pytest.raises(ValueError):
        VariantConfig(kind="nonlinear", theta=0.0)
    for bad in (dict(p=0.5), dict(lam=0.0), dict(lam=lambda x: x[:, 0])):
        with pytest.raises(ValueError):
            nonlinear_solve(small_cloud, config=VariantConfig(kind="nonlinear", **bad))
    # the config configures the nonlinear model alone: another kind is
    # refused when it is built
    for other in (dict(kind="lambda", lam=1.0, p=0.5),
                  dict(kind="lambda", lam=lambda x: 1.0 + x[:, 0])):
        with pytest.raises(ValueError, match="lambda"):
            VariantConfig(**other)
    # the Newton loop's bounds are checked where they are declared
    for bad in (dict(picard_max=0), dict(picard_max=-3), dict(picard_max=2.5),
                dict(picard_tol=np.nan), dict(picard_tol=np.inf),
                dict(picard_tol=0.0)):
        with pytest.raises(ValueError, match="picard"):
            VariantConfig(**bad)


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
    work = _NonlinearWork(small_cloud, cosine_profile(), config)
    got = work.energy(U)[0]
    omega2 = AbsorptionBlocks(assemble(small_cloud, mode="full")).omega2
    want = lam / (2 * p) * c ** (2 * p) * (
        float(omega2 @ small_cloud.A)
        + float(work.base.coupling.omega_hat @ small_cloud.L))
    assert got == pytest.approx(want, rel=1e-12)
