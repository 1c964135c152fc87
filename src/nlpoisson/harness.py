"""Convergence studies, kernel-order diagnostics, and report files.

The error metric is the volume-weighted relative L2 discrepancy between
the solved vector and exact-solution samples.  A convergence study runs
(resolution, seed) grids, takes per-resolution medians across seeds, and
fits the log-log slope of error against horizon.  The kernel-order
diagnostics evaluate two boundary-layer quantities on dense fixtures
(not random clouds): the boundary tail-kernel sum, whose deviation from
the kernel constant C_R should fall like delta^2, and the coupling
normalization omega, whose deviation from delta * C_R should fall like
delta^3.

Reports are written as CSV plus a dependency-free SVG log-log plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .assembly import MODES, NonlocalSystem, assemble
from .geometry import ManifoldCase, PointCloud, build_cloud, get_case
from .kernels import KernelProfile, compute_CR, cosine_profile, normalization
from .solver import SolveResult, solve_mean_zero, solve_spd
from .variants import (
    VariantConfig,
    assemble_lambda,
    assemble_nonhomogeneous,
    nonlinear_solve,
)


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
    return np.full(q.shape[0], -np.sqrt(3.0) / 2.0)


G_CASES = {
    "hemisphere2_zsq": ("hemisphere2", _zsq_u, _zsq_f, _zsq_g),
}


@dataclass
class HarnessOptions:
    mode: str = "full"
    variant: str = "none"
    lam: float = 1.0
    p: float = 1.5
    theta: float = 1.0
    g_case: str = "hemisphere2_zsq"
    tol: float = 1e-10
    picard_tol: float = 1e-10
    picard_max: int = 50

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
        try:
            self.variant_config()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    def variant_config(self, f: Callable | None = None) -> VariantConfig | None:
        """The variant's VariantConfig with forcing f; None for the base
        model.  VariantConfig checks the parameter ranges."""
        if self.variant == "none":
            return None
        return VariantConfig(kind=self.variant, lam=self.lam, p=self.p,
                             theta=self.theta, f=f, picard_tol=self.picard_tol,
                             picard_max=self.picard_max)


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
    case: str
    mode: str
    variant: str
    rows: list[ReportRow]
    slope: float
    intercept: float
    partial: bool


def _g_case(case_name: str, options: HarnessOptions):
    """(exact_u, forcing, flux) of options.g_case, checked against the case."""
    try:
        gcase, exact, f, g = G_CASES[options.g_case]
    except KeyError:
        raise ConfigurationError(
            f"unknown g-case {options.g_case!r}; "
            f"available: {sorted(G_CASES)}") from None
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


# Variant solves: (cloud, profile, options, forcing) -> (system, result).
# solve_mean_zero is looked up at call time so that tests can replace it.
def _solve_base(cloud, profile, options, f):
    system = assemble(cloud, profile=profile, mode=options.mode, f=f)
    return system, solve_mean_zero(system, tol=options.tol)


def _solve_lambda(cloud, profile, options, f):
    system = assemble_lambda(cloud, profile=profile, lam=options.lam, f=f)
    return system, solve_spd(system, tol=options.tol)


def _solve_nonhomogeneous(cloud, profile, options, f):
    g = _g_case(cloud.case_name, options)[2]
    system = assemble_nonhomogeneous(cloud, profile=profile, f=f, g=g)
    return system, solve_mean_zero(system, tol=options.tol)


def _solve_nonlinear(cloud, profile, options, f):
    return None, nonlinear_solve(cloud, profile=profile,
                                 config=options.variant_config(f))


class Variant(NamedTuple):
    """A model variant: its solve, and the manufactured forcing and exact
    solution it is scored against, each a function of (case, options).
    ``linear`` is false for a solve that returns no single linear system."""

    solve: Callable[..., tuple[NonlocalSystem | None, SolveResult]]
    forcing: Callable[[ManifoldCase, HarnessOptions], Callable]
    exact: Callable[[ManifoldCase, HarnessOptions], Callable] = \
        lambda case, options: case.exact_u
    linear: bool = True


VARIANTS: dict[str, Variant] = {
    "none": Variant(_solve_base, lambda case, o: case.forcing),
    "lambda": Variant(_solve_lambda,
                      lambda case, o: _absorbing_forcing(case, o.lam, 1.0)),
    "nonhomogeneous": Variant(_solve_nonhomogeneous,
                              lambda case, o: _g_case(case.name, o)[1],
                              lambda case, o: _g_case(case.name, o)[0]),
    "nonlinear": Variant(_solve_nonlinear,
                         lambda case, o: _absorbing_forcing(case, o.lam, o.p),
                         linear=False),
}


def solve_single(case_name: str, t: int, seed: int,
                 options: HarnessOptions | None = None,
                 profile: KernelProfile | None = None
                 ) -> tuple[ReportRow, SolveResult, PointCloud,
                            NonlocalSystem | None]:
    """run_single, also returning the cloud and the system it solved
    (None for a variant that solves no single linear system)."""
    options = options or HarnessOptions()
    profile = profile or cosine_profile()
    case = get_case(case_name)
    variant = VARIANTS[options.variant]
    exact = variant.exact(case, options)
    f = variant.forcing(case, options)
    start = time.perf_counter()
    cloud = build_cloud(case, t, seed)
    system, result = variant.solve(cloud, profile, options, f)
    wall_ms = (time.perf_counter() - start) * 1000.0
    row = ReportRow(t=t, delta=cloud.delta, n0=cloud.n0, m0=cloud.m0,
                    seed=seed, e2=e2_error(result.U, cloud, exact),
                    iters=result.iterations, wall_ms=wall_ms,
                    converged=result.converged)
    return row, result, cloud, system


def run_single(case_name: str, t: int, seed: int,
               options: HarnessOptions | None = None,
               profile: KernelProfile | None = None
               ) -> tuple[ReportRow, SolveResult]:
    """Sample, weight, assemble, solve, and score one configuration."""
    row, result, _, _ = solve_single(case_name, t, seed, options, profile)
    return row, result


def convergence_study(case_name: str, t_list: Sequence[int],
                      seeds: int | Sequence[int] = 3,
                      options: HarnessOptions | None = None) -> ConvergenceReport:
    """Sweep resolutions and seeds, fit the median-error slope.

    ``seeds`` is either a count (seeds 1..n) or an explicit list.  Rows
    whose solve did not converge stay in the report flagged, are excluded
    from the fit, and mark the report as partial.
    """
    options = options or HarnessOptions()
    t_list = sorted(set(int(t) for t in t_list))
    if len(t_list) < 4:
        raise ConfigurationError("need at least 4 distinct resolutions to fit")
    seed_list = list(range(1, seeds + 1)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ConfigurationError("need at least one seed")

    rows: list[ReportRow] = []
    for t in t_list:
        for seed in seed_list:
            row, _ = run_single(case_name, t, seed, options)
            rows.append(row)

    deltas, medians = [], []
    partial = False
    for t in t_list:
        group = [r for r in rows if r.t == t and r.converged]
        if any(not r.converged for r in rows if r.t == t):
            partial = True
        if group:
            deltas.append(group[0].delta)
            medians.append(float(np.median([r.e2 for r in group])))
    if len(deltas) < 4:
        raise ConfigurationError("fewer than 4 resolutions converged")
    slope, intercept = fit_loglog(deltas, medians)
    return ConvergenceReport(case=case_name, mode=options.mode,
                             variant=options.variant, rows=rows, slope=slope,
                             intercept=intercept, partial=partial)


@dataclass
class LemmaRow:
    delta: float
    boundary_sum: float
    boundary_dev: float
    omega_dev: float


@dataclass
class LemmaReport:
    case: str
    CR: float
    rows: list[LemmaRow]
    boundary_order: float
    omega_order: float


def _circle_fixture(n: int) -> tuple[np.ndarray, float]:
    rho = np.sqrt(3.0) / 2.0
    phi = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi),
                    np.full(n, 0.5)], axis=1)
    return pts, 2.0 * np.pi * rho / n


def _cap_patch_omega(delta: float, phi0: float, profile: KernelProfile,
                     resolution: int) -> float:
    """Midpoint quadrature of the displacement coupling over the cap patch
    within kernel range of the boundary probe at angle phi0."""
    rho, zb = np.sqrt(3.0) / 2.0, 0.5
    q = np.array([rho * np.cos(phi0), rho * np.sin(phi0), zb])
    nq = np.array([0.5 * np.cos(phi0), 0.5 * np.sin(phi0), -rho])
    th_max = np.pi / 3.0
    geo = 2.0 * np.arcsin(min(delta, 1.0)) + 0.05 * delta
    th_lo = max(0.0, th_max - geo)
    h = delta / resolution
    nth = int(np.ceil((th_max - th_lo) / h))
    half_w = geo / np.sin(th_max) + 2.0 * h
    nph = int(np.ceil(2.0 * half_w / h))
    th = th_lo + (np.arange(nth) + 0.5) * (th_max - th_lo) / nth
    ph = phi0 - half_w + (np.arange(nph) + 0.5) * 2.0 * half_w / nph
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                    np.cos(TH)], axis=-1)
    dA = np.sin(TH) * ((th_max - th_lo) / nth) * (2.0 * half_w / nph)
    disp = pts - q
    sq = (disp**2).sum(axis=-1)
    bar = normalization(delta, 2) * profile.levels["bar"](sq / (4 * delta**2))
    zeta = -(disp @ nq) * bar
    return float((zeta * dA).sum())


def lemma_diagnostics(case_name: str, deltas: Sequence[float],
                      n_boundary: int | None = None, probes: int = 4,
                      resolution: int = 40,
                      profile: KernelProfile | None = None) -> LemmaReport:
    """Boundary kernel-sum and coupling-normalization orders on fixtures.

    Runs on the circle boundary of the spherical cap; the boundary sum
    uses an equally spaced circle fixture, the coupling normalization a
    dense local surface quadrature around each probe point.
    """
    if case_name != "hemisphere2":
        raise ConfigurationError(
            "kernel-order diagnostics run on the hemisphere2 circle fixture")
    profile = profile or cosine_profile()
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not all(np.isfinite(d) and d > 0.0 for d in deltas):
        raise ConfigurationError("horizons must be finite and > 0")
    if len(deltas) < 4:
        raise ConfigurationError("need at least 4 horizons")
    if deltas[0] / deltas[-1] < 4.0:
        raise ConfigurationError("horizons must span at least a factor of 4")
    circumference = 2.0 * np.pi * np.sqrt(3.0) / 2.0
    if n_boundary is None:
        n_boundary = max(4096, int(np.ceil(64.0 * circumference / deltas[-1])))
    if n_boundary * deltas[-1] / circumference < 10.0:
        raise ConfigurationError(
            f"boundary fixture too coarse: {n_boundary} points give fewer "
            f"than 10 per delta = {deltas[-1]}")
    CR = compute_CR(profile, 2)
    pts, seg = _circle_fixture(n_boundary)
    probe_idx = np.linspace(0, n_boundary, probes, endpoint=False).astype(int)
    rows = []
    for delta in deltas:
        bsums = []
        for k in probe_idx:
            sq = ((pts - pts[k]) ** 2).sum(axis=1)
            dbar = normalization(delta, 2) * profile.levels["dbar"](
                sq / (4 * delta * delta))
            bsums.append(2.0 * delta * float(dbar.sum()) * seg)
        odevs = []
        for k in probe_idx:
            phi0 = 2.0 * np.pi * k / n_boundary
            omega = _cap_patch_omega(delta, phi0, profile, resolution)
            odevs.append(abs(omega - delta * CR))
        bdev = max(abs(b - CR) for b in bsums)
        rows.append(LemmaRow(delta=delta, boundary_sum=float(np.mean(bsums)),
                             boundary_dev=bdev, omega_dev=max(odevs)))
    border, _ = fit_loglog([r.delta for r in rows],
                           [r.boundary_dev for r in rows])
    oorder, _ = fit_loglog([r.delta for r in rows],
                           [r.omega_dev for r in rows])
    return LemmaReport(case=case_name, CR=CR, rows=rows,
                       boundary_order=border, omega_order=oorder)


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


def emit_report(report: ConvergenceReport, out_dir) -> tuple[Path, Path]:
    """Write converge.csv (one row per run, slope trailer) and converge.svg."""
    if not report.rows:
        raise ValueError("report has no rows; nothing to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "converge.csv"
    lines = ["case,mode,variant,t,delta,n0,m0,seed,e2,iters,wall_ms"]
    rows = sorted(report.rows, key=lambda r: (-r.delta, r.seed))
    for r in rows:
        lines.append(f"{report.case},{report.mode},{report.variant},{r.t},"
                     f"{r.delta!r},{r.n0},{r.m0},{r.seed},{r.e2!r},{r.iters},"
                     f"{r.wall_ms:.1f}")
    lines.append(f"#slope={report.slope!r}")
    csv_path.write_text("\n".join(lines) + "\n")

    med = {}
    for r in rows:
        if r.converged:
            med.setdefault(r.delta, []).append(r.e2)
    pts = [(d, float(np.median(v))) for d, v in sorted(med.items())]
    svg_path = out / "converge.svg"
    _svg_loglog(svg_path, "horizon delta", "relative L2 error e2", pts,
                (report.slope, report.intercept),
                f"{report.case} {report.mode}"
                + (f" / {report.variant}" if report.variant != "none" else "")
                + " convergence")
    return csv_path, svg_path


def emit_lemma_report(report: LemmaReport, out_dir) -> tuple[Path, Path]:
    """Write lemmas.csv and lemmas.svg (both deviation series)."""
    if not report.rows:
        raise ValueError("report has no rows; nothing to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "lemmas.csv"
    lines = ["delta,boundary_sum,boundary_dev,omega_dev"]
    for r in report.rows:
        lines.append(f"{r.delta!r},{r.boundary_sum!r},{r.boundary_dev!r},"
                     f"{r.omega_dev!r}")
    lines.append(f"#CR={report.CR!r}")
    lines.append(f"#order_boundary={report.boundary_order!r}")
    lines.append(f"#order_omega={report.omega_order!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    svg_path = out / "lemmas.svg"
    pts = [(r.delta, r.boundary_dev) for r in report.rows]
    _svg_loglog(svg_path, "horizon delta", "|boundary sum - C_R|", pts,
                (report.boundary_order,
                 float(np.log(report.rows[0].boundary_dev)
                       - report.boundary_order * np.log(report.rows[0].delta))),
                f"boundary kernel sum deviation (omega order "
                f"{report.omega_order:.2f})")
    return csv_path, svg_path
