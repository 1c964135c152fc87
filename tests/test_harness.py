"""Error metric, sweeps, kernel-order diagnostics, reports, and the CLI."""

import dataclasses
import inspect
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlpoisson.cli as cli
import nlpoisson.harness as harness
import nlpoisson.variants as variants
from nlpoisson.cli import main
from nlpoisson.geometry import build_cloud, get_case
from nlpoisson.harness import (
    G_CASES,
    VARIANTS,
    ConfigurationError,
    ConvergenceReport,
    HarnessOptions,
    ReportRow,
    convergence_study,
    e2_error,
    emit_lemma_report,
    emit_report,
    fit_loglog,
    lemma_diagnostics,
    run_single,
)
from nlpoisson.kernels import cosine_profile, pair_eval
from nlpoisson.solver import DEFAULT_TOL, cg, solve_mean_zero, solve_spd
from nlpoisson.variants import VariantConfig

# frozen after the first verified run of hemisphere2 t=20 seed=1, full model
GOLDEN_E2_T20_SEED1 = 0.06679031769723726


def test_e2_exact_samples_vanish(small_cloud):
    case = get_case("hemisphere2")
    u = case.exact_u(small_cloud.points)
    assert e2_error(u, small_cloud) == 0.0


def test_e2_constant_offset_identity(small_cloud):
    case = get_case("hemisphere2")
    u = case.exact_u(small_cloud.points)
    c = 0.37
    expected = c * np.sqrt(small_cloud.A.sum() / float((u * u) @ small_cloud.A))
    assert e2_error(u + c, small_cloud) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_e2_scale_equivariance(scale):
    cloud = build_cloud("hemisphere2", 5, 1)
    case = get_case("hemisphere2")
    u = case.exact_u(cloud.points)
    U = u + np.sin(7.0 * cloud.points[:, 2])

    def scaled_exact(x):
        return scale * case.exact_u(x)

    a = e2_error(U, cloud)
    b = e2_error(scale * U, cloud, scaled_exact)
    assert b == pytest.approx(a, rel=1e-12)


def test_e2_degenerate_exact(small_cloud):
    with pytest.raises(ValueError):
        e2_error(np.ones(small_cloud.n0), small_cloud,
                 lambda x: np.zeros(x.shape[0]))


def test_fit_loglog_recovers_power():
    deltas = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    for q in (1.0, 2.5, 3.0):
        slope, intercept = fit_loglog(deltas, 1.7 * deltas**q)
        assert slope == pytest.approx(q, abs=1e-10)
        assert np.exp(intercept) == pytest.approx(1.7, rel=1e-10)


def test_run_single_golden_regression():
    row, result = run_single("hemisphere2", 20, 1)
    assert result.converged
    assert row.e2 == pytest.approx(GOLDEN_E2_T20_SEED1, rel=1e-9)


# VariantConfig's Newton controls, which HarnessOptions does not take
NEWTON_CONTROLS = ("theta", "picard_tol", "picard_max")


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "np_bool"])
@pytest.mark.parametrize("name", ["lam", "p", "theta", "picard_tol",
                                  "picard_max", "tol"])
def test_bool_is_not_a_number(name, flag):
    """A bool is refused in every numeric run option, naming the field."""
    if name != "tol":
        with pytest.raises(ValueError, match=rf"{name} = .*bool"):
            VariantConfig(**{name: flag})
    if name not in NEWTON_CONTROLS:
        with pytest.raises(ConfigurationError, match=rf"{name} = .*bool"):
            HarnessOptions(**{name: flag})


@pytest.mark.parametrize("name,value", [
    ("lam", "1.0"), ("lam", None), ("p", "1.5"), ("theta", None),
    ("picard_tol", None), ("picard_tol", "1e-10"), ("picard_max", "5"),
    ("tol", "1e-8"), ("tol", None)])
def test_non_number_names_its_field(name, value):
    """A string or None in a numeric run option is refused with an error
    naming the field, not NumPy's TypeError."""
    if name != "tol":
        with pytest.raises(ValueError, match=rf"{name} = {value!r}"):
            VariantConfig(**{name: value})
    if name not in NEWTON_CONTROLS:
        with pytest.raises(ConfigurationError, match=rf"{name} = {value!r}"):
            HarnessOptions(**{name: value})


def test_any_real_number_is_a_number():
    """A number of any real type passes the checks, a Fraction included."""
    assert VariantConfig(lam=Fraction(1, 2), p=Fraction(3, 2)).lam == 0.5
    assert HarnessOptions(tol=Fraction(1, 10 ** 8)).tol == Fraction(1, 10 ** 8)


def test_integer_options_still_work():
    assert VariantConfig(p=2, picard_max=np.int64(5)).picard_max == 5
    assert HarnessOptions(variant="nonlinear", p=2, tol=1).p == 2


def test_harness_defaults_are_the_models():
    assert HarnessOptions().variant_config() == VariantConfig()
    assert HarnessOptions().tol == DEFAULT_TOL
    # perfbench reads the Newton controls off HarnessOptions' class
    for name in NEWTON_CONTROLS:
        assert getattr(HarnessOptions, name) == getattr(VariantConfig, name)


def test_convergence_study_validation():
    with pytest.raises(ConfigurationError):
        convergence_study("hemisphere2", [5, 10], seeds=1)
    with pytest.raises(ConfigurationError):
        convergence_study("hemisphere2", [5, 10, 15, 20], seeds=[])
    with pytest.raises(ConfigurationError):
        HarnessOptions(mode="reduced", variant="lambda")
    with pytest.raises(ConfigurationError):
        HarnessOptions(variant="cubic")
    for tol in (np.nan, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match="tol"):
            HarnessOptions(tol=tol)
    # an unknown g-case is refused whatever the variant
    for variant in VARIANTS:
        with pytest.raises(ConfigurationError, match="hemisphere2_zsq"):
            HarnessOptions(variant=variant, g_case="missing")
    with pytest.raises(ConfigurationError):
        run_single("hemisphere3", 4, 1,
                   HarnessOptions(variant="nonhomogeneous"))


def test_convergence_study_seed_list():
    """A repeated seed counts once; a negative one is refused."""
    for seeds, runs in (([2, 1, 1], (1, 2)), ([3, 1, 3], (1, 3))):
        report = convergence_study("hemisphere2", [5, 6, 8, 10], seeds=seeds)
        assert [(r.t, r.seed) for r in report.rows] == [
            (t, seed) for t in (5, 6, 8, 10) for seed in runs]
    with pytest.raises(ConfigurationError, match="seeds must be >= 0"):
        convergence_study("hemisphere2", [5, 6, 8, 10], seeds=[1, -1])


@pytest.mark.parametrize("seeds", [2.0, True, [1.5, 2], "3"], ids=repr)
def test_convergence_study_refuses_non_integral_seeds(seeds):
    """A bool is not a count, a string is not a list, and every listed
    seed must be integral: each is refused, the value named, before any
    solve."""
    with pytest.raises(ConfigurationError, match=re.escape(repr(seeds))):
        convergence_study("hemisphere2", [5, 6, 8, 10], seeds=seeds)


@pytest.mark.parametrize("t_list", [[5.5, 6.9, 8, 10], [5, 6, 8, 10.0],
                                    [True, 6, 8, 10]], ids=repr)
def test_convergence_study_refuses_non_integral_resolutions(t_list,
                                                            monkeypatch):
    """int() would truncate 5.5 and 6.9 to the sweep 5, 6, 8, 10: each
    non-integral or bool resolution is refused, named, before any solve."""
    monkeypatch.setattr(harness, "run_single", None)
    bad = next(t for t in t_list if isinstance(t, (bool, float)))
    with pytest.raises(ConfigurationError, match=rf"t = {bad!r}"):
        convergence_study("hemisphere2", t_list, seeds=1)


@pytest.mark.parametrize("t", [5.5, 5.0, True], ids=repr)
def test_run_single_refuses_non_integral_resolution(t):
    with pytest.raises(ConfigurationError, match=rf"t = {t!r}"):
        run_single("hemisphere2", t, 1)


def test_convergence_study_numpy_seed_count():
    """A NumPy integer counts seeds as an int does."""
    t = [5, 6, 8, 10]
    rows = convergence_study("hemisphere2", t, seeds=2).rows
    np_rows = convergence_study("hemisphere2", t, seeds=np.int64(2)).rows
    assert len(rows) == 8
    assert ([(r.t, r.seed, r.e2, r.iters) for r in np_rows]
            == [(r.t, r.seed, r.e2, r.iters) for r in rows])
    rows = convergence_study("hemisphere2", t, seeds=np.int64(3)).rows
    assert [r.seed for r in rows] == [1, 2, 3] * len(t)


def test_convergence_study_small_sweep(tmp_path):
    report = convergence_study("hemisphere2", [5, 6, 7, 8], seeds=2)
    assert len(report.rows) == 8
    assert not report.partial
    assert report.slope > 0.5
    csv_path, svg_path = emit_report(report, tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "case,mode,variant,t,delta,n0,m0,seed,e2,iters,wall_ms"
    assert len([l for l in lines if not l.startswith("#")]) == 9
    assert lines[-1].startswith("#slope=")
    deltas = [float(l.split(",")[4]) for l in lines[1:-1]]
    assert deltas == sorted(deltas, reverse=True)
    assert svg_path.read_text().startswith("<svg")


def test_convergence_study_partial_flag(monkeypatch):
    """A failed solve flags its row, drops it from the fit, marks partial."""
    import nlpoisson.harness as hz
    real = hz.solve_mean_zero

    def flaky(system, tol=1e-10, **kw):
        res = real(system, tol=tol, **kw)
        if system.cloud.t == 5:
            res = dataclasses.replace(res, converged=False)
        return res

    monkeypatch.setattr(hz, "solve_mean_zero", flaky)
    report = convergence_study("hemisphere2", [5, 6, 7, 8, 9], seeds=1)
    assert report.partial
    assert [r.t for r in report.rows if not r.converged] == [5]


def test_convergence_study_all_failed_raises():
    options = HarnessOptions(tol=1e-30)
    with pytest.raises(ConfigurationError, match="converged"):
        convergence_study("hemisphere2", [5, 6, 7, 8], seeds=1,
                          options=options)


def test_emit_report_empty_rows(tmp_path):
    empty = ConvergenceReport(case="hemisphere2", mode="full", variant="none",
                              rows=[])
    with pytest.raises(ValueError):
        emit_report(empty, tmp_path)
    assert not (tmp_path / "converge.csv").exists()


def test_report_fits_its_rows():
    """Medians, fit and partial flag follow the rows: e2 = 3 delta^2 on
    converged rows fits slope 2, and a row that stops converging leaves
    the medians and marks the report partial."""
    rows = [ReportRow(t=t, delta=t ** -0.5, n0=0, m0=0, seed=seed,
                      e2=3.0 / t * (1.0 + 0.1 * seed), iters=1, wall_ms=0.0,
                      converged=True)
            for t in (4, 9, 16, 25) for seed in (-1, 0, 1)]
    report = ConvergenceReport(case="hemisphere2", mode="full",
                               variant="none", rows=rows)
    assert [(t, m) for t, _, m in report.medians()] == [
        (4, 0.75), (9, 3.0 / 9), (16, 3.0 / 16), (25, 3.0 / 25)]
    slope, intercept = report.fit()
    assert (report.slope, report.intercept) == (slope, intercept)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(np.log(3.0), rel=1e-12)
    assert not report.partial
    rows[0].converged = False
    assert report.partial
    assert report.medians()[0] == (4, 0.5, pytest.approx(0.75 * 1.05))


def _mask_wall(text: str) -> str:
    return re.sub(r",[0-9.]+$", ",WALL", text, flags=re.M)


def test_report_determinism(tmp_path):
    a = convergence_study("hemisphere2", [5, 6, 7, 8], seeds=1)
    b = convergence_study("hemisphere2", [5, 6, 7, 8], seeds=1)
    pa, _ = emit_report(a, tmp_path / "a")
    pb, _ = emit_report(b, tmp_path / "b")
    # identical up to the wall-clock column
    assert _mask_wall(pa.read_text()) == _mask_wall(pb.read_text())


def test_lemma_diagnostics_orders():
    report = lemma_diagnostics([0.4, 0.2, 0.1, 0.05])
    assert report.boundary_order >= 1.8
    assert report.omega_order >= 2.5
    devs = [r.boundary_dev for r in report.rows]
    assert devs[-1] < devs[0]          # deviation shrinks toward C_R
    assert report.rows[0].delta > report.rows[-1].delta


@pytest.mark.parametrize("delta", [0.4, 0.05])
def test_circle_fixture_rim_points_agree(delta):
    """The rim circle is invariant under rotation about the cap's axis, so
    the boundary sum at any rim point is the one at point 0."""
    case = get_case("hemisphere2")
    n = max(4096, int(np.ceil(64.0 * case.boundary_measure / 0.05)))
    pts, _ = harness._circle_fixture(case, n)
    sums = [pair_eval(cosine_profile(), "dbar",
                      ((pts - pts[k]) ** 2).sum(axis=1), delta, 2).sum()
            for k in (0, n // 3)]
    assert abs(sums[1] - sums[0]) <= 1e-13 * abs(sums[0])


def test_lemma_rows_deviate_from_their_sum():
    """Each row's deviation is its own sum's distance from C_R."""
    report = lemma_diagnostics([0.4, 0.2, 0.1, 0.05])
    for r in report.rows:
        assert r.boundary_dev == abs(r.boundary_sum - report.CR)


def test_lemma_diagnostics_validation():
    with pytest.raises(ConfigurationError):
        lemma_diagnostics([0.4, 0.2])
    with pytest.raises(ConfigurationError):
        lemma_diagnostics([0.4, 0.3, 0.25, 0.2])
    # a repeated horizon counts once: two distinct horizons are too few
    with pytest.raises(ConfigurationError, match="distinct"):
        lemma_diagnostics([0.4, 0.4, 0.4, 0.1])


def test_emit_lemma_report(tmp_path):
    report = lemma_diagnostics([0.4, 0.2, 0.1, 0.05])
    csv_path, svg_path = emit_lemma_report(report, tmp_path)
    text = csv_path.read_text()
    assert "np." not in text  # plain floats, not np.float64(...) reprs
    lines = text.splitlines()
    assert lines[0] == "delta,boundary_sum,boundary_dev,omega_dev"
    assert sum(1 for l in lines if l.startswith("#")) == 3
    assert svg_path.exists()


def test_cli_lemmas_and_exit_codes(tmp_path, capsys):
    code = main(["lemmas", "--deltas", "0.4,0.2,0.1,0.05",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "boundary-sum deviation order" in out
    assert (tmp_path / "lemmas.csv").exists()
    # too-narrow horizon span is a configuration error
    code = main(["lemmas", "--deltas", "0.4,0.38,0.36,0.34",
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_converge_and_solve(tmp_path):
    out = tmp_path / "sweep"
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--seeds", "1", "--mode", "full", "--out", str(out)])
    assert code == 0
    assert (out / "converge.csv").exists()
    assert (out / "converge.svg").exists()
    code = main(["solve", "--case", "hemisphere2", "--t", "6", "--seed", "2",
                 "--mode", "full", "--out", str(tmp_path / "single"),
                 "--export-matrix", str(tmp_path / "single" / "S.txt")])
    assert code == 0
    assert (tmp_path / "single" / "solution.csv").exists()
    assert (tmp_path / "single" / "S.txt.meta").exists()


@pytest.mark.parametrize("variant", ["none", "nonlinear"])
def test_cli_solve_prints_inner_iterations(variant, tmp_path, capsys):
    """Only results that carry inner CG iterations print them."""
    code = main(["solve", "--case", "hemisphere2", "--t", "5", "--seed", "1",
                 "--variant", variant, "--out", str(tmp_path)])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    fields = dict(f.split("=") for f in line.split())
    if variant == "nonlinear":
        assert int(fields["inner_iters"]) > int(fields["iters"])
    else:
        assert "inner_iters" not in fields


@pytest.mark.parametrize("variant", ["none", "nonhomogeneous"])
def test_cli_solve_exact_column_is_the_variants(tmp_path, variant):
    out = tmp_path / variant
    argv = ["solve", "--case", "hemisphere2", "--t", "6", "--seed", "2",
            "--variant", variant, "--out", str(out)]
    if variant == "nonhomogeneous":
        # the flux data of hemisphere2_zsq miss discrete compatibility at t=6
        with pytest.warns(UserWarning, match="discrete compatibility"):
            code = main(argv)
    else:
        code = main(argv)
    assert code == 0
    rows = np.genfromtxt(out / "solution.csv", delimiter=",", names=True,
                         dtype=None, encoding="utf-8")
    points = np.column_stack([rows["x0"], rows["x1"], rows["x2"]])
    if variant == "nonhomogeneous":
        exact_u = G_CASES["hemisphere2_zsq"][1]
    else:
        exact_u = get_case("hemisphere2").exact_u
    assert np.array_equal(rows["exact"], exact_u(points))
    u, exact = rows["u"], rows["exact"]
    assert np.linalg.norm(u - exact) < 0.5 * np.linalg.norm(exact)


def test_cli_bad_t_list(tmp_path):
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--t", "3"],
    ["converge", "--t", "3,5,6,7"],
    ["lemmas", "--deltas", "0.4,abc"],
    ["solve", "--t", "5", "--variant", "nonlinear", "--p", "0.5"],
    ["solve", "--t", "5", "--variant", "lambda", "--lambda", "-1"],
    ["solve", "--t", "5", "--variant", "nonlinear", "--lambda", "0"],
    ["solve", "--t", "5", "--variant", "lambda", "--lambda", "0"],
    ["lemmas", "--deltas", "0.4,0.2,0.1,0"],
    ["solve", "--t", "5", "--seed", "-1"],
    ["lemmas", "--deltas", "0.4,0.2,0.1,nan"],
    ["lemmas", "--deltas", "inf,0.2,0.1,0.05"],
    ["solve", "--t", "5", "--variant", "lambda", "--lambda", "nan"],
    ["solve", "--t", "5", "--variant", "nonlinear", "--lambda", "inf"],
    ["solve", "--t", "5", "--variant", "nonlinear", "--p", "nan"],
    ["solve", "--t", "5", "--p", "0.5"],
    ["solve", "--t", "5", "--g-case", "bogus"],
], ids=["solve_t", "converge_t", "lemmas_deltas", "nonlinear_p",
        "lambda_negative", "nonlinear_lambda_zero",
        "lambda_zero", "lemmas_delta_zero", "solve_seed", "lemmas_delta_nan",
        "lemmas_delta_inf", "lambda_nan", "nonlinear_lambda_inf",
        "nonlinear_p_nan", "none_p", "none_g_case"])
def test_cli_out_of_range_is_a_configuration_error(argv, tmp_path, capsys):
    """Values outside a parameter's range exit 2 before anything is written."""
    out = tmp_path / "out"
    case = [] if argv[0] == "lemmas" else ["--case", "hemisphere2"]
    code = main([argv[0], *case, *argv[1:], "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unwritable_out(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--seeds", "1", "--out", str(blocker / "nested")])
    assert code == 4


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = hemisphere2\nt = 5,6,7,8\nseeds = 1\n"
                   "mode = full\n# comment line\nout = {0}\n".format(tmp_path / "cfgout"))
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "cfgout" / "converge.csv").exists()
    # explicit flag overrides the file value
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--config", str(cfg), "--out", str(tmp_path / "flagout")])
    assert code == 0
    assert (tmp_path / "flagout" / "converge.csv").exists()


def test_cli_config_bad_switch(tmp_path, capsys):
    """A misspelt allow-partial value is refused, not read as false."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("allow-partial = ture\n")
    out = tmp_path / "out"
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--seeds", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "'ture'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_variant_flags(tmp_path):
    code = main(["converge", "--case", "hemisphere2", "--t", "5,6,7,8",
                 "--seeds", "1", "--variant", "lambda", "--lambda", "1.0",
                 "--out", str(tmp_path / "lam")])
    assert code == 0
    text = (tmp_path / "lam" / "converge.csv").read_text()
    assert ",lambda," in text


def test_option_set_is_pinned():
    """Each run option is declared once: the Newton controls on
    VariantConfig alone, no warm start for the solvers, and the kernel-order
    diagnostics on their one fixture.  An option added or brought back
    fails here until it is listed."""
    assert [f.name for f in dataclasses.fields(HarnessOptions)] == [
        "mode", "variant", "lam", "p", "g_case", "tol"]
    with pytest.raises(TypeError, match="theta"):
        HarnessOptions(theta=0.5)
    _, commands = cli._build_parser()
    flags = {name: sorted(flag for action in sub._actions
                          for flag in action.option_strings
                          if flag.startswith("--"))
             for name, sub in commands.items()}
    common = ["--case", "--config", "--g-case", "--help", "--lambda", "--mode",
              "--out", "--p", "--variant"]
    assert flags == {
        "converge": sorted(common + ["--t", "--seeds", "--allow-partial"]),
        "solve": sorted(common + ["--t", "--seed", "--export-matrix"]),
        "lemmas": ["--config", "--deltas", "--help", "--out"]}
    for fn, params in ((cg, ["S", "b", "tol", "max_iter"]),
                       (solve_mean_zero, ["system", "tol", "max_iter"]),
                       (solve_spd, ["system", "tol", "max_iter"]),
                       (lemma_diagnostics, ["deltas", "profile"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


@pytest.mark.parametrize("argv", [
    ["solve", "--case", "hemisphere2", "--t", "5", "--variant", "nonlinear",
     "--theta", "0.5"],
    ["lemmas", "--case", "hemisphere2", "--deltas", "0.4,0.2,0.1,0.05"],
], ids=["theta", "lemmas_case"])
def test_cli_removed_flags_are_refused(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_config_refuses_theta(tmp_path, capsys):
    """theta is not a config key: the Newton controls are VariantConfig's."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0.5\n")
    code = main(["solve", "--case", "hemisphere2", "--t", "5", "--variant",
                 "nonlinear", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "'theta'" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_variant_table_keys_are_the_variant_kinds():
    assert tuple(VARIANTS) == ("none", "lambda", "nonhomogeneous", "nonlinear")


def _count_calls(monkeypatch, name):
    """Count calls to ``name`` through every module that imports it."""
    calls = []
    for module in (cli, harness, variants):
        if hasattr(module, name):
            real = getattr(module, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def _read_coo(path, n):
    rows, cols, vals = np.loadtxt(path, unpack=True)
    out = np.zeros((n, n))
    out[rows.astype(int), cols.astype(int)] = vals
    return out


@pytest.mark.parametrize("variant", ["none", "lambda", "nonhomogeneous"])
def test_cli_solve_builds_once_and_exports_the_solved_system(
        tmp_path, monkeypatch, variant):
    clouds = _count_calls(monkeypatch, "build_cloud")
    assemblies = _count_calls(monkeypatch, "assemble")
    matrix = tmp_path / "S.txt"
    argv = ["solve", "--case", "hemisphere2", "--t", "6", "--seed", "2",
            "--variant", variant, "--lambda", "2.0", "--out",
            str(tmp_path / "out"), "--export-matrix", str(matrix)]
    if variant == "nonhomogeneous":
        # the flux data of hemisphere2_zsq miss discrete compatibility at t=6
        with pytest.warns(UserWarning, match="discrete compatibility"):
            code = main(argv)
    else:
        code = main(argv)
    assert code == 0
    assert len(clouds) == 1 and len(assemblies) == 1
    monkeypatch.undo()
    cloud = build_cloud("hemisphere2", 6, 2)
    if variant == "lambda":
        case = get_case("hemisphere2")
        S = variants.assemble_lambda(
            cloud, lam=2.0,
            f=lambda x: case.forcing(x) + 2.0 * case.exact_u(x)).S
    else:
        S = harness.assemble(cloud).S
    assert np.array_equal(_read_coo(matrix, cloud.n0), S.toarray())
    meta = (tmp_path / "S.txt.meta").read_text().splitlines()
    assert f"variant = {variant}" in meta


def test_cli_solve_nonlinear_rejects_export_matrix(tmp_path, monkeypatch):
    clouds = _count_calls(monkeypatch, "build_cloud")
    out, matrix = tmp_path / "out", tmp_path / "S.txt"
    code = main(["solve", "--case", "hemisphere2", "--t", "5",
                 "--variant", "nonlinear", "--out", str(out),
                 "--export-matrix", str(matrix)])
    assert code == 2
    assert clouds == []
    assert list(tmp_path.iterdir()) == []


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lamda = 7\n")
    code = main(["solve", "--case", "hemisphere2", "--t", "5", "--variant",
                 "lambda", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "'lamda'" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_cli_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "hemisphere2", "--t", "5", "--variant",
              "lambda", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "'abc'" in err
    assert not (tmp_path / "solution.csv").exists()
