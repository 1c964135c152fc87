"""Convergence studies, kernel-order diagnostics, and report files.

The error metric is the volume-weighted relative L2 discrepancy between
the solved vector and exact-solution samples.  A convergence study runs
(resolution, seed) grids, takes per-resolution medians across seeds, and
fits the log-log slope of error against horizon.  The kernel-order
diagnostics evaluate two boundary-layer quantities once per horizon, at
one rim point of hemisphere2, on dense fixtures (not random clouds): the
boundary tail-kernel sum, whose deviation from the kernel constant C_R
should fall like delta^2, and the coupling normalization omega, whose
deviation from delta * C_R should fall like delta^3.  The rim circle has
64 or more points per smallest delta; both fixtures are invariant under
rotation about the cap's axis, so any other rim point gives the same
values.

Reports are written as CSV plus a dependency-free SVG log-log plot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .assembly import MODES, NonlocalSystem, assemble
from .geometry import ManifoldCase, PointCloud, build_cloud, get_case
from .kernels import KernelProfile, compute_CR, cosine_profile, pair_eval
from .solver import DEFAULT_TOL, SolveResult, solve_mean_zero, solve_spd
from .variants import VariantConfig, assemble_lambda, nonlinear_solve


class ConfigurationError(ValueError):
    """Bad run configuration (unknown case, malformed sweep, ...)."""


def e2_error(U: np.ndarray, cloud: PointCloud,
             exact_u: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Volume-weighted relative L2 error against exact samples."""
    if exact_u is None:
        exact_u = get_case(cloud.case_name).exact_u
    u = np.asarray(exact_u(cloud.points), dtype=float)
    denom = float((u * u) @ cloud.A)
    if denom == 0.0:
        raise ValueError("exact solution is identically zero on the cloud")
    return float(np.sqrt(((U - u) ** 2 @ cloud.A) / denom))


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


# Manufactured data for the non-homogeneous boundary model, keyed by name.
# Each entry: (case, exact_u, forcing, boundary_flux).
def _zsq_u(x):
    return x[:, 2] ** 2 - 7.0 / 12.0


def _zsq_f(x):
    return 6.0 * x[:, 2] ** 2 - 2.0


def _zsq_g(q):
    # du/dn = 2 z n_z = -rho on hemisphere2's rim
    return np.full(q.shape[0], -get_case("hemisphere2").rho)


G_CASES = {
    "hemisphere2_zsq": ("hemisphere2", _zsq_u, _zsq_f, _zsq_g),
}


@dataclass
class HarnessOptions:
    mode: str = "full"
    variant: str = "none"
    lam: float = VariantConfig.lam
    p: float = VariantConfig.p
    g_case: str = "hemisphere2_zsq"
    tol: float = DEFAULT_TOL
    # Not fields: runs take VariantConfig's Newton controls, which
    # perfbench's run_config reads from here
    theta = VariantConfig.theta
    picard_tol = VariantConfig.picard_tol
    picard_max = VariantConfig.picard_max

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; "
                f"expected one of {tuple(VARIANTS)}")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.variant != "none" and self.mode != "full":
            raise ConfigurationError(
                "variants are defined for the full model only")
        if (isinstance(self.tol, (bool, np.bool_))
                or not isinstance(self.tol, Real)
                or not (math.isfinite(self.tol) and self.tol > 0.0)):
            raise ConfigurationError(f"tol = {self.tol!r}: need a number, not "
                                     f"a bool, finite and > 0")
        if self.g_case not in G_CASES:
            raise ConfigurationError(
                f"unknown g-case {self.g_case!r}; "
                f"available: {sorted(G_CASES)}")
        try:
            self.variant_config()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    def variant_config(self, f: Callable | None = None) -> VariantConfig:
        """The nonlinear model's VariantConfig with forcing f; it is built
        for every variant, so it checks lam and p whatever the variant."""
        return VariantConfig(lam=self.lam, p=self.p, f=f)


@dataclass
class ReportRow:
    t: int
    delta: float
    n0: int
    m0: int
    seed: int
    e2: float
    iters: int
    wall_ms: float
    converged: bool


@dataclass
class ConvergenceReport:
    """A sweep's rows, and the medians, fit and partial flag they give."""

    case: str
    mode: str
    variant: str
    rows: list[ReportRow]

    def medians(self) -> list[tuple[int, float, float]]:
        """(t, delta, median e2) over each t's converged rows, t ascending."""
        groups: dict[int, list[ReportRow]] = {}
        for r in self.rows:
            if r.converged:
                groups.setdefault(r.t, []).append(r)
        return [(t, g[0].delta, float(np.median([r.e2 for r in g])))
                for t, g in sorted(groups.items())]

    def fit(self) -> tuple[float, float]:
        """Slope and intercept of log median e2 against log delta."""
        _, deltas, medians = zip(*self.medians())
        return fit_loglog(deltas, medians)

    slope = property(lambda self: self.fit()[0])
    # some solve did not converge, and its row is not fitted
    partial = property(lambda self: not all(r.converged for r in self.rows))


def _g_case(case_name: str, options: HarnessOptions):
    """(exact_u, forcing, flux) of options.g_case, checked against the case."""
    gcase, exact, f, g = G_CASES[options.g_case]
    if gcase != case_name:
        raise ConfigurationError(
            f"g-case {options.g_case!r} is defined on {gcase}, "
            f"not {case_name}")
    return exact, f, g


def _absorbing_forcing(case: ManifoldCase, lam: float, p: float):
    """Forcing that makes the case's exact solution solve the model with
    absorption lam u |u|^(2p-2); p = 1 gives the linear lam u."""
    def f_man(x):
        u = case.exact_u(x)
        return case.forcing(x) + lam * u * np.abs(u) ** (2.0 * p - 2.0)
    return f_man


# Variant solves: (cloud, options, forcing, flux) -> (system, result).
# solve_mean_zero is looked up at call time so that tests can replace it.
def _solve_neumann(cloud, options, f, g):
    system = assemble(cloud, mode=options.mode, f=f, g=g)
    return system, solve_mean_zero(system, tol=options.tol)


def _solve_lambda(cloud, options, f, g):
    system = assemble_lambda(cloud, lam=options.lam, f=f)
    return system, solve_spd(system, tol=options.tol)


def _solve_nonlinear(cloud, options, f, g):
    return None, nonlinear_solve(cloud, config=options.variant_config(f))


class Variant(NamedTuple):
    """A model variant: its solve, and the manufactured data it is scored
    against.  data(case, options) gives (exact_u, forcing, flux), the
    flux None for every model without one; solve(cloud, options, forcing,
    flux) gives (system, result), on the cosine profile.  ``linear`` is
    false for a solve that returns no single linear system."""

    solve: Callable[..., tuple[NonlocalSystem | None, SolveResult]]
    data: Callable[[ManifoldCase, HarnessOptions],
                   tuple[Callable, Callable, Callable | None]]
    linear: bool = True


VARIANTS: dict[str, Variant] = {
    "none": Variant(_solve_neumann,
                    lambda case, o: (case.exact_u, case.forcing, None)),
    "lambda": Variant(_solve_lambda, lambda case, o: (
        case.exact_u, _absorbing_forcing(case, o.lam, 1.0), None)),
    "nonhomogeneous": Variant(_solve_neumann,
                              lambda case, o: _g_case(case.name, o)),
    "nonlinear": Variant(_solve_nonlinear, lambda case, o: (
        case.exact_u, _absorbing_forcing(case, o.lam, o.p), None),
        linear=False),
}


def _resolution(t) -> int:
    """t as an int; a bool or a t that is not integral is refused, named."""
    if isinstance(t, bool) or not isinstance(t, Integral):
        raise ConfigurationError(f"t = {t!r}: need an integral resolution")
    return int(t)


def solve_single(case_name: str, t: int, seed: int,
                 options: HarnessOptions | None = None
                 ) -> tuple[ReportRow, SolveResult, PointCloud,
                            NonlocalSystem | None]:
    """run_single, also returning the cloud and the system it solved
    (None for a variant that solves no single linear system)."""
    t = _resolution(t)
    options = options or HarnessOptions()
    case = get_case(case_name)
    variant = VARIANTS[options.variant]
    exact, f, g = variant.data(case, options)
    start = time.perf_counter()
    cloud = build_cloud(case, t, seed)
    system, result = variant.solve(cloud, options, f, g)
    wall_ms = (time.perf_counter() - start) * 1000.0
    row = ReportRow(t=t, delta=cloud.delta, n0=cloud.n0, m0=cloud.m0,
                    seed=seed, e2=e2_error(result.U, cloud, exact),
                    iters=result.iterations, wall_ms=wall_ms,
                    converged=result.converged)
    return row, result, cloud, system


def run_single(case_name: str, t: int, seed: int,
               options: HarnessOptions | None = None
               ) -> tuple[ReportRow, SolveResult]:
    """Sample, weight, assemble, solve, and score one configuration, on
    the cosine kernel profile."""
    row, result, _, _ = solve_single(case_name, t, seed, options)
    return row, result


def convergence_study(case_name: str, t_list: Sequence[int],
                      seeds: Integral | Sequence[int] = 3,
                      options: HarnessOptions | None = None) -> ConvergenceReport:
    """Sweep resolutions and seeds; the report fits the median-error slope.

    Resolutions and seeds are integral, a NumPy integer but not a bool, a
    float or a string, and a repeat counts once.  ``seeds`` is a count
    (seeds 1..n) or a list of seeds.
    Rows whose solve did not converge stay in the report flagged, are
    excluded from the fit, and mark the report as partial.
    """
    options = options or HarnessOptions()
    t_list = sorted(set(_resolution(t) for t in t_list))
    if len(t_list) < 4:
        raise ConfigurationError("need at least 4 distinct resolutions to fit")
    listed = not isinstance(seeds, (Integral, str)) and isinstance(seeds, Iterable)
    given = list(seeds) if listed else [seeds]
    if any(isinstance(s, bool) or not isinstance(s, Integral) for s in given):
        raise ConfigurationError(f"seeds {seeds!r}: need a count or a list of "
                                 "integral seeds")
    seed_list = (sorted(set(int(s) for s in given)) if listed
                 else list(range(1, int(seeds) + 1)))
    if not seed_list or seed_list[0] < 0:
        raise ConfigurationError(f"seeds {seeds!r}: need at least one, "
                                 "and seeds must be >= 0")

    rows: list[ReportRow] = []
    for t in t_list:
        for seed in seed_list:
            row, _ = run_single(case_name, t, seed, options)
            rows.append(row)

    report = ConvergenceReport(case=case_name, mode=options.mode,
                               variant=options.variant, rows=rows)
    if len(report.medians()) < 4:
        raise ConfigurationError("fewer than 4 resolutions converged")
    return report


@dataclass
class LemmaRow:
    delta: float
    boundary_sum: float
    boundary_dev: float
    omega_dev: float


@dataclass
class LemmaReport:
    """The fixtures' rows, and the deviation orders they give."""

    CR: float
    rows: list[LemmaRow]

    def fit(self, column: str) -> tuple[float, float]:
        """Slope and intercept of log column against log delta."""
        return fit_loglog([r.delta for r in self.rows],
                          [getattr(r, column) for r in self.rows])

    boundary_order = property(lambda self: self.fit("boundary_dev")[0])
    omega_order = property(lambda self: self.fit("omega_dev")[0])


def _circle_fixture(case: ManifoldCase, n: int) -> tuple[np.ndarray, float]:
    phi = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([case.rho * np.cos(phi), case.rho * np.sin(phi),
                    np.full(n, case.height)], axis=1)
    return pts, case.boundary_measure / n


def _cap_patch_omega(case: ManifoldCase, delta: float,
                     profile: KernelProfile) -> float:
    """Midpoint quadrature of the displacement coupling over the cap patch
    within kernel range of the rim point (rho, 0, height), 40 cells per
    delta."""
    q = np.array([case.rho, 0.0, case.height])
    nq = case.conormal(q)[0]
    th_max = np.arccos(case.height)
    geo = 2.0 * np.arcsin(min(delta, 1.0)) + 0.05 * delta
    th_lo = max(0.0, th_max - geo)
    h = delta / 40
    nth = int(np.ceil((th_max - th_lo) / h))
    half_w = geo / np.sin(th_max) + 2.0 * h
    nph = int(np.ceil(2.0 * half_w / h))
    th = th_lo + (np.arange(nth) + 0.5) * (th_max - th_lo) / nth
    ph = -half_w + (np.arange(nph) + 0.5) * 2.0 * half_w / nph
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                    np.cos(TH)], axis=-1)
    dA = np.sin(TH) * ((th_max - th_lo) / nth) * (2.0 * half_w / nph)
    disp = pts - q
    sq = (disp**2).sum(axis=-1)
    zeta = -(disp @ nq) * pair_eval(profile, "bar", sq, delta, 2)
    return float((zeta * dA).sum())


def lemma_diagnostics(deltas: Sequence[float],
                      profile: KernelProfile | None = None) -> LemmaReport:
    """Boundary kernel-sum and coupling-normalization orders on fixtures.

    Both quantities are evaluated at one rim point of hemisphere2's
    spherical cap, (rho, 0, height).  The boundary sum runs over an equally
    spaced rim circle of max(4096, ceil(64 |boundary| / min delta)) points,
    64 or more per delta; the coupling normalization is a dense local
    surface quadrature around the point.  Both fixtures are invariant under
    rotation about the cap's axis, so every rim point gives the same
    values up to rounding, and one point stands for them all.
    """
    profile = profile or cosine_profile()
    deltas = sorted({float(d) for d in deltas}, reverse=True)
    if not all(np.isfinite(d) and d > 0.0 for d in deltas):
        raise ConfigurationError("horizons must be finite and > 0")
    if len(deltas) < 4:
        raise ConfigurationError("need at least 4 distinct horizons")
    if deltas[0] / deltas[-1] < 4.0:
        raise ConfigurationError("horizons must span at least a factor of 4")
    case = get_case("hemisphere2")
    n = max(4096, int(np.ceil(64.0 * case.boundary_measure / deltas[-1])))
    CR = compute_CR(profile, 2)
    pts, seg = _circle_fixture(case, n)
    sq = ((pts - pts[0]) ** 2).sum(axis=1)
    rows = []
    for delta in deltas:
        dbar = pair_eval(profile, "dbar", sq, delta, 2)
        bsum = 2.0 * delta * float(dbar.sum()) * seg
        omega = _cap_patch_omega(case, delta, profile)
        rows.append(LemmaRow(delta=delta, boundary_sum=bsum,
                             boundary_dev=abs(bsum - CR),
                             omega_dev=abs(omega - delta * CR)))
    return LemmaReport(CR=CR, rows=rows)


def _svg_loglog(path, xlabel: str, ylabel: str,
                points: list[tuple[float, float]],
                fit: tuple[float, float] | None, title: str) -> None:
    """Minimal log-log scatter with an optional fitted line."""
    W, H, ML, MR, MT, MB = 720, 520, 80, 30, 40, 60
    xs = np.log10([p[0] for p in points])
    ys = np.log10([p[1] for p in points])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.06 * (x1 - x0), 0.08 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return ML + (v - x0) / (x1 - x0) * (W - ML - MR)

    def sy(v):
        return H - MB - (v - y0) / (y1 - y0) * (H - MT - MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
        f'height="{H - MT - MB}" fill="none" stroke="black"/>',
    ]
    for tick in np.arange(np.ceil(x0 * 2) / 2, x1 + 1e-9, 0.5):
        X = sx(tick)
        parts.append(f'<line x1="{X:.1f}" y1="{H - MB}" x2="{X:.1f}" '
                     f'y2="{H - MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{X:.1f}" y="{H - MB + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{10.0 ** tick:.3g}</text>')
    for tick in np.arange(np.ceil(y0 * 2) / 2, y1 + 1e-9, 0.5):
        Y = sy(tick)
        parts.append(f'<line x1="{ML - 5}" y1="{Y:.1f}" x2="{ML}" '
                     f'y2="{Y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ML - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{10.0 ** tick:.2g}</text>')
    if fit is not None:
        slope, intercept = fit
        ge = np.log10(np.e)
        ya = (slope * (x0 + padx) / ge + intercept) * ge
        yb = (slope * (x1 - padx) / ge + intercept) * ge
        parts.append(f'<line x1="{sx(x0 + padx):.1f}" y1="{sy(ya):.1f}" '
                     f'x2="{sx(x1 - padx):.1f}" y2="{sy(yb):.1f}" '
                     f'stroke="#c33" stroke-width="1.5"/>')
        parts.append(f'<text x="{W - MR - 10}" y="{MT + 18}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="13" fill="#c33">'
                     f'slope = {slope:.3f}</text>')
    for px, py in points:
        parts.append(f'<circle cx="{sx(np.log10(px)):.1f}" '
                     f'cy="{sy(np.log10(py)):.1f}" r="4" fill="#1667b8" '
                     f'fill-opacity="0.75"/>')
    parts.append(f'<text x="{(ML + W - MR) / 2:.1f}" y="{H - 18}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="22" y="{(MT + H - MB) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13" transform="rotate(-90 22 '
                 f'{(MT + H - MB) / 2:.1f})">{ylabel}</text>')
    parts.append('</svg>')
    Path(path).write_text("\n".join(parts))


def _write_report(out_dir, stem: str, header: str, rows: list[tuple],
                  trailers: Callable[[], dict[str, float]],
                  plot: Callable[[], tuple]) -> tuple[Path, Path]:
    """Write stem.csv (header, one line per row, a #key=value line per
    trailer, each float as its repr) and stem.svg, _svg_loglog(*plot()).
    trailers and plot are called once there are rows for their fits."""
    if not rows:
        raise ValueError("report has no rows; nothing to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = out / f"{stem}.csv", out / f"{stem}.svg"
    lines = [header]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    lines += [f"#{key}={float(v)!r}" for key, v in trailers().items()]
    csv_path.write_text("\n".join(lines) + "\n")
    _svg_loglog(svg_path, *plot())
    return csv_path, svg_path


def emit_report(report: ConvergenceReport, out_dir) -> tuple[Path, Path]:
    """Write converge.csv (one row per run, slope trailer) and converge.svg."""
    variant = f" / {report.variant}" if report.variant != "none" else ""
    return _write_report(
        out_dir, "converge",
        "case,mode,variant,t,delta,n0,m0,seed,e2,iters,wall_ms",
        [(report.case, report.mode, report.variant, r.t, r.delta, r.n0, r.m0,
          r.seed, r.e2, r.iters, f"{r.wall_ms:.1f}")
         for r in sorted(report.rows, key=lambda r: (-r.delta, r.seed))],
        lambda: {"slope": report.slope},
        lambda: ("horizon delta", "relative L2 error e2",
                 sorted((d, m) for _, d, m in report.medians()), report.fit(),
                 f"{report.case} {report.mode}{variant} convergence"))


def emit_lemma_report(report: LemmaReport, out_dir) -> tuple[Path, Path]:
    """Write lemmas.csv and lemmas.svg (both deviation series)."""
    return _write_report(
        out_dir, "lemmas", "delta,boundary_sum,boundary_dev,omega_dev",
        [(r.delta, r.boundary_sum, r.boundary_dev, r.omega_dev)
         for r in report.rows],
        lambda: {"CR": report.CR, "order_boundary": report.boundary_order,
                 "order_omega": report.omega_order},
        lambda: ("horizon delta", "|boundary sum - C_R|",
                 [(r.delta, r.boundary_dev) for r in report.rows],
                 report.fit("boundary_dev"),
                 f"boundary kernel sum deviation (omega order "
                 f"{report.omega_order:.2f})"))
