"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to
see them on success).  The expensive sweeps are shared fixtures, criterion
8's the session's ``lambda_study``; the whole module is sized for a
laptop core.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from nlpoisson.assembly import MODES, assemble
from nlpoisson.geometry import build_cloud, get_case
from nlpoisson.harness import (
    VARIANTS,
    HarnessOptions,
    convergence_study,
    lemma_diagnostics,
)
from nlpoisson.kernels import compute_CR, cosine_profile, profile_eval
from nlpoisson.variants import assemble_lambda, nonlinear_solve
from test_assembly import reference_apply

H2_T_LIST = [5, 10, 15, 20, 30, 40]
H3_T_LIST = [4, 6, 8, 10]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def h2_full():
    return convergence_study("hemisphere2", H2_T_LIST, seeds=3,
                             options=HarnessOptions(mode="full"))


@pytest.fixture(scope="module")
def h2_reduced():
    return convergence_study("hemisphere2", H2_T_LIST, seeds=3,
                             options=HarnessOptions(mode="reduced"))


def _median_at_t(report, t):
    return next(median for s, _, median in report.medians() if s == t)


def test_criterion_1_hemisphere2_slope(h2_full):
    ok = 2.0 <= h2_full.slope <= 3.0
    _report("criterion 1 (S^2 cap convergence)", ok,
            f"fitted slope {h2_full.slope:.3f} in [2.0, 3.0], "
            f"t = {H2_T_LIST}, 3 seeds")


def test_criterion_2_full_beats_reduced(h2_full, h2_reduced):
    t_min = max(H2_T_LIST)
    ratio = _median_at_t(h2_full, t_min) / _median_at_t(h2_reduced, t_min)
    gap = h2_full.slope - h2_reduced.slope
    ok = ratio <= 0.5 and gap >= 0.5
    _report("criterion 2 (full beats reduced)", ok,
            f"error ratio at smallest delta {ratio:.3f} <= 0.5, "
            f"slope gap {gap:.3f} >= 0.5")


def test_criterion_3_hemisphere3_slope():
    report = convergence_study("hemisphere3", H3_T_LIST, seeds=3,
                               options=HarnessOptions(mode="full"))
    ok = report.slope >= 2.0
    _report("criterion 3 (S^3 half-sphere convergence)", ok,
            f"fitted slope {report.slope:.3f} >= 2.0, t = {H3_T_LIST}, 3 seeds")


def test_neumann_spectrum_hemisphere3():
    """PAPER.md's results (2) and (3) with no forcing, on the half 3-sphere.

    The pencil S v = mu M v takes the lumped mass M = diag(A F(1)), F(1)
    the model's smoothed source of f = 1.  The first non-zero Neumann
    eigenvalue there is mu = 3 with multiplicity 3 (x, y and z); the score
    is the relative error of the mean of the three eigenvalues after the
    zero one.  Full medians over seeds 1-3 must strictly decrease in t,
    and the full median at t=8 be at most half the reduced one.
    """
    ts = (4, 6, 8)
    errors = {mode: {t: [] for t in ts} for mode in MODES}
    for t in ts:
        for seed in (1, 2, 3):
            cloud = build_cloud("hemisphere3", t, seed)
            for mode in MODES:
                system = assemble(cloud, mode=mode,
                                  f=lambda x: np.ones(len(x)))
                mass = cloud.A * system.f_delta
                assert np.all(mass > 0.0)
                mu = np.sort(eigsh(system.S, k=4, M=sparse.diags(mass),
                                   sigma=-0.5, return_eigenvectors=False))
                errors[mode][t].append(abs(mu[1:].mean() - 3.0) / 3.0)
    full = [float(np.median(errors["full"][t])) for t in ts]
    reduced = [float(np.median(errors["reduced"][t])) for t in ts]
    ok = (all(b < a for a, b in zip(full, full[1:]))
          and full[-1] <= 0.5 * reduced[-1])
    _report("Neumann spectrum (S^3 half-sphere, mu = 3)", ok,
            f"full medians {', '.join(f'{e:.4f}' for e in full)} strictly "
            f"decrease, t = {list(ts)}; reduced "
            f"{', '.join(f'{e:.4f}' for e in reduced)}; full <= 0.5 x reduced "
            f"at t={ts[-1]}")


def test_criterion_4_system_structure():
    cloud = build_cloud("hemisphere2", 5, 1)
    system = assemble(cloud, mode="full")
    S = system.S
    asym = abs(S - S.T).max() if (S - S.T).count_nonzero() else 0.0
    scale = np.abs(S.data).max()
    null = np.abs(S @ np.ones(cloud.n0)).max()
    rng = np.random.default_rng(7)
    quad_min = min(float(x @ (S @ x)) / float(x @ x)
                   for x in rng.standard_normal((200, cloud.n0)))
    vals = np.linalg.eigvalsh(S.toarray())
    one_zero = abs(vals[0]) <= 1e-12 * vals[-1] and vals[1] > 1e-8 * vals[-1]
    ok = (asym == 0.0 and null <= 1e-10 * scale
          and quad_min >= -1e-12 * scale and one_zero)
    _report("criterion 4 (system structure)", ok,
            f"||S-S^T|| = {asym}, ||S 1||_inf = {null:.2e} <= 1e-10 scale, "
            f"min Rayleigh {quad_min:.2e}, eigs[0:2]/max = "
            f"{vals[0] / vals[-1]:.1e}/{vals[1] / vals[-1]:.1e}")


def test_criterion_5_matvec_oracle():
    profile = cosine_profile()
    CR = compute_CR(profile, 2)
    worst = 0.0
    for t in (5, 10):
        cloud = build_cloud("hemisphere2", t, 1)
        system = assemble(cloud, profile=profile, mode="full")
        rng = np.random.default_rng(31 + t)
        for _ in range(20):
            U = rng.standard_normal(cloud.n0)
            want = reference_apply(cloud, U, CR)
            rel = float(np.linalg.norm(system.S @ U - want)
                        / np.linalg.norm(want))
            worst = max(worst, rel)
    ok = worst <= 1e-10
    _report("criterion 5 (matvec equals summation form)", ok,
            f"worst relative deviation {worst:.2e} <= 1e-10 over 40 vectors")


def test_criterion_6_kernel_lemma_orders():
    report = lemma_diagnostics("hemisphere2", [0.4, 0.2, 0.1, 0.05])
    ok = report.boundary_order >= 1.8 and report.omega_order >= 2.5
    _report("criterion 6 (kernel lemma orders)", ok,
            f"boundary-sum order {report.boundary_order:.3f} >= 1.8, "
            f"omega order {report.omega_order:.3f} >= 2.5")


def test_criterion_7_second_order_surrogate(h2_full):
    # the L2 surrogate stands in for the second-order claim; no H1 norm
    ok = 2.0 <= h2_full.slope <= 3.0
    _report("criterion 7 (second-order surrogate, L2 only)", ok,
            f"same sweep as criterion 1, slope {h2_full.slope:.3f}")


def test_criterion_8_lambda_variant(lambda_study):
    cloud = build_cloud("hemisphere2", 5, 1)
    system = assemble_lambda(cloud, lam=1.0)
    vals = np.linalg.eigvalsh(system.S.materialize().toarray())
    converged = all(r.converged for r in lambda_study.rows)
    meds = [median for _, _, median in lambda_study.medians()]
    decreasing = all(a > b for a, b in zip(meds, meds[1:]))
    ok = vals[0] > 0.0 and converged and decreasing
    _report("criterion 8 (absorption variant)", ok,
            f"min eigenvalue {vals[0]:.3e} > 0; e2 medians (5 seeds) "
            + " > ".join(f"{m:.4f}" for m in meds)
            + f"; every solve converged: {converged}")


def test_criterion_9_nonlinear_model(energy_non_increasing):
    options = HarnessOptions(variant="nonlinear", lam=1.0, p=1.5)
    _, f_man, _ = VARIANTS["nonlinear"].data(get_case("hemisphere2"), options)
    cloud = build_cloud("hemisphere2", 20, 1)
    res = nonlinear_solve(cloud, config=options.variant_config(f_man))
    mono = energy_non_increasing(res)
    ok = res.converged and res.residual < 1e-8 and mono
    _report("criterion 9 (nonlinear model)", ok,
            f"converged in {res.iterations} damped steps, residual "
            f"{res.residual:.2e} < 1e-8, energy non-increasing: {mono}")


def test_criterion_10_kernel_calculus_suite():
    profile = cosine_profile()
    rng = np.random.default_rng(3)
    r = rng.uniform(0.02, 0.98, 1000)
    h = 1e-5
    ok_bar = np.all(np.abs(
        (profile.levels["bar"](r + h) - profile.levels["bar"](r - h)) / (2 * h)
        + profile.levels["base"](r)) <= 1e-6 * np.maximum(1, profile.levels["base"](r)))
    ok_dbar = np.all(np.abs(
        (profile.levels["dbar"](r + h) - profile.levels["dbar"](r - h)) / (2 * h)
        + profile.levels["bar"](r)) <= 1e-6 * np.maximum(1, profile.levels["bar"](r)))
    ok_support = all(profile_eval(profile, lvl, 1.0 + 1e-9) == 0.0
                     for lvl in ("underline", "base", "bar", "dbar"))
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 3))
    from nlpoisson.kernels import scaled_eval
    ok_sym = all(scaled_eval(profile, "base", a, b, 0.4, 2)
                 == scaled_eval(profile, "base", b, a, 0.4, 2)
                 for a, b in zip(x, y))
    mc_rng = np.random.default_rng(904)
    agree = []
    for m in (2, 3):
        pts = mc_rng.uniform(-1, 1, (2_000_000, m - 1))
        mc = 2.0 ** (m - 1) * profile.levels["dbar"](
            (pts * pts).sum(axis=1)).mean() * np.pi ** (-0.5 * m)
        agree.append(abs(compute_CR(profile, m) - mc) / mc <= 5e-3)
    ok = ok_bar and ok_dbar and ok_support and ok_sym and all(agree)
    _report("criterion 10 (kernel calculus suite)", ok,
            f"calculus {ok_bar and ok_dbar}, support {ok_support}, "
            f"symmetry {ok_sym}, C_R MC agreement {agree}")
