"""Kernel profile family: closed forms, integration hierarchy, C_R."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import fresnel

from nlpoisson.kernels import (
    KernelProfile,
    build_integrated,
    compute_CR,
    cosine_profile,
    load_profile_table,
    normalization,
    profile_eval,
    scaled_eval,
)

# pi^-1 * int_-1^1 dbar(x^2) dx, with the Fresnel cosine integral C
COS_CR_M2 = (4.0 / 15.0 - (1.0 + fresnel(np.sqrt(2.0))[1] / np.sqrt(2.0))
             / np.pi**2) / np.pi
COS_CR_M3 = np.pi**-0.5 * (1.0 / 12.0 - 1.0 / (2.0 * np.pi**2))


def cos_base(r):
    return 0.5 * (1.0 + np.cos(np.pi * r))


COS_TABLE = np.linspace(0.0, 1.0, 201)
TABLES = {"cosine": cos_base(COS_TABLE),
          "cubic": (1.0 - COS_TABLE) ** 3,
          "flat-top": np.clip(2.0 * (1.0 - COS_TABLE), 0.0, 1.0)}


@pytest.fixture(scope="module", params=["cosine", "tabulated"])
def any_profile(request):
    """The closed-form cosine profile and its 201-node tabulated copy."""
    if request.param == "cosine":
        return cosine_profile()
    return build_integrated(COS_TABLE, cos_base(COS_TABLE))


def test_profile_eval_point_values(profile):
    assert profile_eval(profile, "base", 0.0) == pytest.approx(1.0, abs=1e-15)
    assert profile_eval(profile, "base", 1.0) == pytest.approx(0.0, abs=1e-15)
    assert profile_eval(profile, "base", 0.5) == pytest.approx(0.5, abs=1e-15)
    assert profile_eval(profile, "bar", 1.5) == 0.0
    # closed-form antiderivative value, cross-checked by adaptive quadrature
    oracle, _ = quad(cos_base, 0.0, 1.0, epsabs=1e-13)
    assert profile_eval(profile, "bar", 0.0) == pytest.approx(0.5, abs=1e-14)
    assert profile_eval(profile, "bar", 0.0) == pytest.approx(oracle, abs=1e-12)


def test_profile_eval_rejects_bad_input(profile):
    with pytest.raises(ValueError):
        profile_eval(profile, "base", -0.1)
    with pytest.raises(ValueError):
        profile_eval(profile, "base", np.nan)
    with pytest.raises(ValueError):
        profile_eval(profile, "quux", 0.5)


def test_support_is_compact(any_profile):
    r = np.linspace(1.0, 5.0, 64)
    for level in ("underline", "base", "bar", "dbar"):
        vals = any_profile.levels[level](r[1:])
        assert np.all(vals == 0.0)
    assert profile_eval(any_profile, "base", 1.0) == pytest.approx(0.0, abs=1e-15)


def test_support_fast_path_matches_masked(any_profile, rng):
    """Each level of an array inside the support equals, bit for bit, the
    same entries set among r = 1.0, the next float past it and 1.5; those
    past 1 give exactly 0."""
    inside = np.concatenate([[0.0, 1.0], rng.random(201)])
    past = np.array([np.nextafter(1.0, 2.0), 1.5])
    mixed = np.insert(inside, [3, 150], past)
    outside = mixed > 1.0
    for level, fn in any_profile.levels.items():
        vals = fn(mixed)
        assert np.array_equal(fn(inside), vals[~outside]), level
        assert np.array_equal(vals[outside], [0.0, 0.0]), level


def test_nondegeneracy_floor(profile):
    """The cosine base is at least 1/2 on [0, 1/2], the paper's
    nondegeneracy condition."""
    r = np.linspace(0.0, 0.5, 257)
    assert np.all(profile.levels["base"](r) >= 0.5)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_cosine_pair_levels_match_long_double():
    """The cosine base and bar, on a dense grid of [0, 1], are within 4e-16
    of a long-double reference, and base keeps a relative error of 1e-8
    wherever it is at least 1e-12, near r = 1 included.  The reference
    base is sin^2(pi (1 - r) / 2), which has no 1 + cos cancellation."""
    profile = cosine_profile()
    r = np.linspace(0.0, 1.0, 10**6 + 1)
    rl = r.astype(np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    base_ref = np.sin(pi * (1 - rl) / 2) ** 2
    bar_ref = ((1 - rl) - np.sin(pi * rl) / pi) / 2
    base_err = np.abs(profile.levels["base"](r) - base_ref)
    assert base_err.max() <= 4e-16
    assert np.abs(profile.levels["bar"](r) - bar_ref).max() <= 4e-16
    keep = base_ref >= 1e-12
    assert np.all(base_err[keep] <= 1e-8 * base_ref[keep])


@pytest.mark.parametrize("pair", [("bar", "base"), ("dbar", "bar")])
def test_calculus_consistency(any_profile, pair, rng):
    """d/dr of each integrated level is minus the level below it."""
    outer, inner = pair
    r = rng.uniform(0.02, 0.98, 1000)
    h = 1e-5
    level = any_profile.levels[outer]
    deriv = (level(r + h) - level(r - h)) / (2 * h)
    target = any_profile.levels[inner](r)
    assert np.all(np.abs(deriv + target) <= 1e-6 * np.maximum(1.0, target))


def test_monotone_nonincreasing(any_profile):
    r = np.linspace(0.0, 1.2, 600)
    for level in ("bar", "dbar"):
        vals = any_profile.levels[level](r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 0.0)


def test_underline_is_negative_base_derivative(any_profile, rng):
    r = rng.uniform(0.02, 0.98, 200)
    h = 1e-6
    base = any_profile.levels["base"]
    dbase = (base(r + h) - base(r - h)) / (2 * h)
    assert np.abs(any_profile.levels["underline"](r) + dbase).max() < 1e-8


def test_build_integrated_from_table():
    r = np.linspace(0.0, 1.0, 201)
    prof = build_integrated(r, cos_base(r))
    assert prof.kind == "custom-tabulated"
    assert profile_eval(prof, "bar", 0.0) == pytest.approx(0.5, abs=1e-8)
    assert profile_eval(prof, "bar", 1.0) == pytest.approx(0.0, abs=1e-12)
    assert profile_eval(prof, "dbar", 1.0) == pytest.approx(0.0, abs=1e-12)
    # dbar(0) equals the two-level quadrature value, stable across rebuilds
    oracle = 0.25 - 1.0 / np.pi**2
    assert profile_eval(prof, "dbar", 0.0) == pytest.approx(oracle, abs=1e-8)
    again = build_integrated(r, cos_base(r))
    assert profile_eval(again, "dbar", 0.0) == profile_eval(prof, "dbar", 0.0)


def test_build_integrated_calculus():
    """The 201-node cosine table's integrated levels match the closed-form
    cosine profile's on [0, 1.2], past the support included."""
    prof = build_integrated(COS_TABLE, cos_base(COS_TABLE))
    exact = cosine_profile()
    r = np.linspace(0.0, 1.2, 1201)
    for level, bound in (("bar", 1e-7), ("dbar", 1e-8)):
        err = np.abs(prof.levels[level](r) - exact.levels[level](r)).max()
        assert err <= bound


def test_build_integrated_levels_are_exact(rng):
    """On each table interval base is cubic and bar quartic, so Simpson's
    rule of base and the 3-point Gauss-Legendre rule of bar (exact to
    degree 5) reproduce the tail-integral differences."""
    prof = build_integrated(COS_TABLE, cos_base(COS_TABLE))
    base, bar, dbar = (prof.levels[k] for k in ("base", "bar", "dbar"))
    cell = rng.integers(0, COS_TABLE.size - 1, 500)
    ends = np.sort(rng.uniform(COS_TABLE[cell, None], COS_TABLE[cell + 1, None],
                               (500, 2)), axis=1)
    x, y = ends[:, 0], ends[:, 1]
    half, mid = 0.5 * (y - x), 0.5 * (x + y)
    simpson = (half / 3.0) * (base(x) + 4.0 * base(mid) + base(y))
    assert np.abs(bar(x) - bar(y) - simpson).max() <= 1e-13
    nodes, weights = np.polynomial.legendre.leggauss(3)
    gauss = half * sum(w * bar(mid + half * t) for t, w in zip(nodes, weights))
    assert np.abs(dbar(x) - dbar(y) - gauss).max() <= 1e-13


def test_build_integrated_table_past_one():
    """Rows beyond r = 1 do not leak into the tail integrals over [r, 1]."""
    long = build_integrated(np.linspace(0.0, 1.5, 16), np.ones(16))
    assert profile_eval(long, "bar", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert profile_eval(long, "dbar", 0.0) == pytest.approx(0.5, abs=1e-12)
    cut = build_integrated(np.linspace(0.0, 1.0, 11), np.ones(11))
    assert compute_CR(long, 2) == pytest.approx(compute_CR(cut, 2), rel=1e-12)


def test_build_integrated_validation():
    r = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        build_integrated(r, -np.ones(11))
    with pytest.raises(ValueError):
        build_integrated(r[::-1], np.ones(11))
    with pytest.raises(ValueError):
        build_integrated(np.linspace(0.1, 1.0, 11), np.ones(11))
    with pytest.raises(ValueError):
        build_integrated(np.linspace(0.0, 0.9, 11), np.ones(11))


def test_load_profile_table(tmp_path):
    r = np.linspace(0.0, 1.0, 401)
    path = tmp_path / "profile.txt"
    np.savetxt(path, np.column_stack([r, cos_base(r)]))
    prof = load_profile_table(path)
    assert profile_eval(prof, "base", 0.25) == pytest.approx(cos_base(0.25), abs=1e-9)


def test_scaled_eval_values(profile):
    val = scaled_eval(profile, "base", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.1, 2)
    assert val == pytest.approx(1.0 / (4.0 * np.pi * 0.01), rel=1e-14)
    # beyond the interaction horizon
    assert scaled_eval(profile, "base", [0.0, 0.0], [0.3, 0.0], 0.1, 2) == 0.0
    # one-delta separation: argument 1/4
    d = 0.37
    got = scaled_eval(profile, "base", [0.0, 0.0, 0.0], [d, 0.0, 0.0], d, 2)
    want = normalization(d, 2) * 0.5 * (1.0 + np.cos(np.pi / 4.0))
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(
        normalization(d, 2) * profile_eval(profile, "base", 0.25), rel=1e-13)


def test_scaled_eval_errors(profile):
    with pytest.raises(ValueError):
        scaled_eval(profile, "base", [0.0], [0.0], 0.0, 2)
    with pytest.raises(ValueError):
        scaled_eval(profile, "base", [0.0], [0.0, 1.0], 0.1, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.sampled_from(["underline", "base", "bar", "dbar"]))
def test_scaled_eval_symmetric(x, y, level):
    prof = cosine_profile()
    a = scaled_eval(prof, level, x, y, 0.5, 2)
    b = scaled_eval(prof, level, y, x, 0.5, 2)
    assert a == b


def test_compute_CR_closed_forms(profile):
    assert compute_CR(profile, 2) == pytest.approx(COS_CR_M2, rel=1e-14)
    assert compute_CR(profile, 3) == pytest.approx(COS_CR_M3, rel=1e-14)
    with pytest.raises(ValueError):
        compute_CR(profile, 1)


def knot_aligned_CR(profile, r_nodes, m):
    """C_R with 8-node Gauss-Legendre on each table interval in rho =
    sqrt(r).  dbar is quintic in r there, so dbar(rho^2) rho^(m-2) has
    degree at most 11 in rho and each interval's rule is exact."""
    knots = np.sqrt(r_nodes[r_nodes <= 1.0])
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(knots)[:, None]
    rho = 0.5 * (knots[:-1] + knots[1:])[:, None] + half * x
    radial = np.sum(half * w * profile.levels["dbar"](rho * rho)
                    * rho ** (m - 2))
    surface = 2.0 * np.pi ** (0.5 * (m - 1)) / math.gamma(0.5 * (m - 1))
    return np.pi ** (-0.5 * m) * surface * radial


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_compute_CR_tabulated_matches_knot_aligned_rule(table, m):
    """The fixed rule's panels ignore the table's knots; on these
    201-node tables it still meets the exact knot-aligned rule (measured
    gap at most 1.4e-13)."""
    prof = build_integrated(COS_TABLE, TABLES[table])
    want = knot_aligned_CR(prof, COS_TABLE, m)
    assert compute_CR(prof, m) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_compute_CR_monte_carlo(profile, m):
    """Radial reduction against a brute-force (m-1)-dim MC oracle."""
    rng = np.random.default_rng(901 + m)
    n = 2_000_000
    x = rng.uniform(-1.0, 1.0, (n, m - 1))
    vals = profile.levels["dbar"]((x * x).sum(axis=1))
    mc = 2.0 ** (m - 1) * vals.mean() * np.pi ** (-0.5 * m)
    assert compute_CR(profile, m) == pytest.approx(mc, rel=5e-3)


def test_compute_CR_zero_profile(profile):
    dead = KernelProfile(kind="custom-tabulated",
                         levels={**profile.levels,
                                 "dbar": lambda r: np.zeros_like(np.asarray(r))})
    assert compute_CR(dead, 2) == 0.0
