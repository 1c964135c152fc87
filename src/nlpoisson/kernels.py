"""Radial kernel profiles and their integrated hierarchy.

A profile is a compactly supported radial function ``base(r)`` on [0, 1]
together with three companions obtained by tail integration /
differentiation::

    underline(r) = -d base / dr
    bar(r)       = integral of base  over [r, 1]
    dbar(r)      = integral of bar   over [r, 1]

All four vanish identically for r > 1.  The scaled two-point kernel used
by the assembly is

    K(x, y) = (4 pi delta^2)^(-m/2) * level(|x - y|^2 / (4 delta^2))

which is supported on pairs with |x - y| <= 2 delta.  The default profile
is the cosine bump (1 + cos(pi r)) / 2, for which every level has a
closed form.  A tabulated profile's base is a monotone piecewise-cubic
interpolant, so its tail integrals are exact piecewise polynomials too.
C_R is a fixed Gauss-Legendre sum, exact to degree 15 on each panel, and
PCHIP is imported from scipy.interpolate only when a table is first built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

LEVELS = ("underline", "base", "bar", "dbar")

# C_R's radial rule: 8 Gauss-Legendre nodes on each of 64 panels of [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_RHO = ((np.arange(64)[:, None] + 0.5 * (1.0 + _GL_X)) / 64).ravel()
_RHO_W = np.tile(_GL_W / 128, 64)


@dataclass(frozen=True)
class KernelProfile:
    """A radial profile and its derived levels, immutable after construction.

    ``kind`` is "cosine" or "custom-tabulated"; ``levels`` maps each name
    in :data:`LEVELS` to a vectorized callable that already enforces the
    compact support (zero for r > 1).
    """

    kind: str
    levels: Mapping[str, Callable[[np.ndarray], np.ndarray]]


def _masked(fn: Callable[[np.ndarray], np.ndarray]):
    """Wrap ``fn`` so it evaluates to exactly 0 outside [0, 1].

    ``fn`` acts entrywise, so when every r lies inside (the pair
    distances of a 2 delta search nearly always do) it runs on r itself,
    with no mask, compressed copy or masked store.
    """

    def wrapped(r):
        r = np.asarray(r, dtype=float)
        inside = r <= 1.0
        if inside.all():
            return np.asarray(fn(r), dtype=float)
        out = np.zeros_like(r)
        if np.any(inside):
            out[inside] = fn(r[inside])
        return out

    return wrapped


def cosine_profile() -> KernelProfile:
    """The cosine bump profile with closed-form integrated levels.

    base(r) = (1 + cos(pi r)) / 2 on [0, 1].  Antiderivatives:

        bar(r)  = ((1 - r) - sin(pi r)/pi) / 2
        dbar(r) = ((1 - r)^2 / 2 - (1 + cos(pi r)) / pi^2) / 2

    and underline(r) = (pi/2) sin(pi r).  base falls to 1/2 at r = 1/2, so
    base >= 1/2 on [0, 1/2]: the paper's nondegeneracy condition.
    """
    levels = {
        "underline": _masked(lambda r: 0.5 * np.pi * np.sin(np.pi * r)),
        "base": _masked(lambda r: 0.5 * (1.0 + np.cos(np.pi * r))),
        "bar": _masked(lambda r: 0.5 * ((1.0 - r) - np.sin(np.pi * r) / np.pi)),
        "dbar": _masked(
            lambda r: 0.5
            * (0.5 * (1.0 - r) ** 2 - (1.0 + np.cos(np.pi * r)) / np.pi**2)
        ),
    }
    return KernelProfile(kind="cosine", levels=levels)


def build_integrated(r_nodes, base_values) -> KernelProfile:
    """Build a full profile from a tabulated base function.

    The table must have strictly increasing abscissae starting at 0 and
    reaching at least 1, with nonnegative values; rows past r = 1 shape
    the interpolant but every level vanishes there.  base is the monotone
    piecewise-cubic interpolant of the table (scipy's PCHIP, imported on
    the first build) and underline its negative derivative.  bar and dbar
    are its tail integrals over [r, 1], read exactly off the
    interpolant's first and second antiderivatives B and B2:

        bar(r)  = B(1) - B(r)
        dbar(r) = B(1) (1 - r) - (B2(1) - B2(r))

    Nothing checks the table against the paper's nondegeneracy condition,
    a positive lower bound on base over [0, 1/2].
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    base_values = np.asarray(base_values, dtype=float)
    if r_nodes.ndim != 1 or r_nodes.shape != base_values.shape:
        raise ValueError("profile table must be two equal-length 1-D columns")
    if r_nodes.size < 4:
        raise ValueError("profile table needs at least 4 rows")
    if np.any(np.diff(r_nodes) <= 0):
        raise ValueError("profile table abscissae must be strictly increasing")
    if r_nodes[0] != 0.0 or r_nodes[-1] < 1.0:
        raise ValueError("profile table must cover [0, 1]")
    if np.any(base_values < 0):
        raise ValueError("profile values must be nonnegative")
    if not np.all(np.isfinite(base_values)):
        raise ValueError("profile values must be finite")
    from scipy.interpolate import PchipInterpolator

    base_interp = PchipInterpolator(r_nodes, base_values, extrapolate=False)

    def base_fn(r):
        return np.nan_to_num(base_interp(np.minimum(r, r_nodes[-1])))

    underline_interp = base_interp.derivative()

    def underline_fn(r):
        return -np.nan_to_num(underline_interp(np.minimum(r, r_nodes[-1])))

    B = base_interp.antiderivative()
    B2 = B.antiderivative()
    B_1, B2_1 = float(B(1.0)), float(B2(1.0))

    def bar_fn(r):
        return np.maximum(B_1 - B(r), 0.0)

    def dbar_fn(r):
        return np.maximum(B_1 * (1.0 - r) - (B2_1 - B2(r)), 0.0)

    levels = {
        "underline": _masked(underline_fn),
        "base": _masked(base_fn),
        "bar": _masked(bar_fn),
        "dbar": _masked(dbar_fn),
    }
    return KernelProfile(kind="custom-tabulated", levels=levels)


def load_profile_table(path) -> KernelProfile:
    """Read a two-column text file (r, base(r)) and build the profile."""
    table = np.loadtxt(path)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (r, value)")
    return build_integrated(table[:, 0], table[:, 1])


def profile_eval(profile: KernelProfile, level: str, r):
    """Evaluate one level of the profile at dimensionless radius r >= 0."""
    if level not in LEVELS:
        raise ValueError(f"unknown kernel level {level!r}; expected one of {LEVELS}")
    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr)) or np.any(r_arr < 0):
        raise ValueError("kernel argument must be finite and nonnegative")
    out = profile.levels[level](r_arr)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def scaled_eval(profile: KernelProfile, level: str, x, y, delta: float, m: int):
    """Two-point kernel (4 pi delta^2)^(-m/2) level(|x-y|^2 / (4 delta^2)).

    x and y are ambient points of equal dimension; the result vanishes
    for |x - y| > 2 delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if m < 1:
        raise ValueError("intrinsic dimension must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("points must share an ambient dimension")
    rsq = float(np.dot(x - y, x - y)) / (4.0 * delta * delta)
    return normalization(delta, m) * profile_eval(profile, level, rsq)


def normalization(delta: float, m: int) -> float:
    """The kernel normalization (4 pi delta^2)^(-m/2)."""
    return float((4.0 * np.pi * delta * delta) ** (-0.5 * m))


def pair_eval(profile: KernelProfile, level: str, sq_dist, delta: float, m: int):
    """Vectorized scaled kernel on an array of squared pair distances."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    arg = np.asarray(sq_dist, dtype=float) / (4.0 * delta * delta)
    return normalization(delta, m) * profile.levels[level](arg)


def compute_CR(profile: KernelProfile, m: int) -> float:
    """Boundary normalization constant of the profile in intrinsic dim m.

    Defined as pi^(-m/2) times the integral of dbar(|x|^2) over
    R^(m-1), reduced here to a radial integral against the surface
    measure of the (m-2)-sphere and taken by 8-point Gauss-Legendre on
    64 equal panels of [0, 1] in rho, exact to degree 15 on each panel.
    """
    if m < 2:
        raise ValueError("boundary constant requires intrinsic dimension >= 2")
    surface = 2.0 * np.pi ** (0.5 * (m - 1)) / math.gamma(0.5 * (m - 1))
    radial = profile.levels["dbar"](_RHO * _RHO) * _RHO ** (m - 2) @ _RHO_W
    return float(np.pi ** (-0.5 * m) * surface * radial)
