"""Command-line driver: convergence sweeps, single solves, kernel orders.

Subcommands::

    converge --case CASE --t 5,10,20,40 --seeds 3 --mode MODE
             --variant VARIANT [--lambda X --p X --g-case NAME]
             [--allow-partial] [--config PATH] --out DIR
    solve    --case ... --t N --seed N --mode ... [--variant ...]
             [--export-matrix PATH] --out DIR
    lemmas   --case hemisphere2 --deltas 0.4,0.2,0.1,0.05 --out DIR

Cases, modes and variants are those of geometry.CASES, assembly.MODES
and harness.VARIANTS; run options default to HarnessOptions'.  Exit
codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 I/O error.  An optional config file holds flat ``key = value`` lines
mirroring the long flags of the subcommand; explicit flags override file
values.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .assembly import MODES, export_matrix
from .geometry import CASES, T_MIN, get_case, save_cloud_csv
from .harness import (
    VARIANTS,
    ConfigurationError,
    HarnessOptions,
    convergence_study,
    emit_lemma_report,
    emit_report,
    lemma_diagnostics,
    solve_single,
)

OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(HarnessOptions))
SWITCH_VALUES = {"true": True, "yes": True, "1": True,
                 "false": False, "no": False, "0": False}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name.  A HarnessOptions
    flag left at None keeps HarnessOptions' default."""
    parser = argparse.ArgumentParser(
        prog="nlpoisson",
        description="Meshless nonlocal solver for the manifold Poisson "
                    "problem with Neumann boundary")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--case", required=True, choices=sorted(CASES))
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument("--variant", choices=tuple(VARIANTS), default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--g-case", dest="g_case", default=None)
        p.add_argument("--config", default=None,
                       help="flat key = value file mirroring the flags")
        p.add_argument("--out", default=".", help="output directory")

    conv = sub.add_parser("converge", help="run a convergence sweep")
    common(conv)
    conv.add_argument("--t", required=True,
                      help="comma-separated resolution list, e.g. 5,10,20,40")
    conv.add_argument("--seeds", type=int, default=3,
                      help="number of seeds per resolution (seeds 1..n)")
    conv.add_argument("--allow-partial", action="store_true", default=None)

    solve = sub.add_parser("solve", help="solve one configuration")
    common(solve)
    solve.add_argument("--t", type=int, required=True)
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument("--export-matrix", dest="export_matrix", default=None)

    lem = sub.add_parser("lemmas", help="kernel-order diagnostics")
    lem.add_argument("--case", required=True, choices=sorted(CASES))
    lem.add_argument("--deltas", required=True,
                     help="comma-separated horizons, e.g. 0.4,0.2,0.1,0.05")
    lem.add_argument("--config", default=None)
    lem.add_argument("--out", default=".")

    return parser, {"converge": conv, "solve": solve, "lemmas": lem}


def _config_defaults(path: str, args: argparse.Namespace) -> dict:
    """A config file's values by flag destination, for args' subcommand."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        dest = "lam" if key == "lambda" else key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "config"):
            raise ConfigurationError(
                f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        if dest == "allow_partial":
            if val.lower() not in SWITCH_VALUES:
                raise ConfigurationError(f"{path}:{lineno}: {key} = {val!r} is "
                                         f"not one of {', '.join(SWITCH_VALUES)}")
            val = SWITCH_VALUES[val.lower()]
        values[dest] = val
    return values


def _parse(argv) -> dict:
    """Flags over config file values over defaults.  File values become
    the subcommand's defaults, which argparse converts like the flags."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands[args.command].set_defaults(
            **_config_defaults(args.config, args))
        args = parser.parse_args(argv)
    return vars(args)


def _number_list(text, kind) -> list:
    """The comma-separated entries of a flag value, each converted by kind."""
    try:
        return [kind(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"bad {kind.__name__} list {text!r}") from None


def _parse_t(text) -> list[int]:
    """The resolutions of a --t value, each at least T_MIN."""
    t_list = _number_list(text, int)
    if any(t < T_MIN for t in t_list):
        raise ConfigurationError(f"--t {text}: resolutions must be >= {T_MIN}")
    return t_list


def _options(merged: dict) -> HarnessOptions:
    return HarnessOptions(**{key: merged[key] for key in OPTION_FIELDS
                             if merged.get(key) is not None})


def _cmd_converge(merged: dict) -> int:
    options = _options(merged)
    t_list = _parse_t(merged["t"])
    report = convergence_study(merged["case"], t_list, int(merged["seeds"]),
                               options)
    csv_path, svg_path = emit_report(report, merged["out"])
    print(f"slope = {report.slope:.4f}")
    print(f"wrote {csv_path} and {svg_path}")
    if report.partial and not merged.get("allow_partial"):
        print("some solves did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_solve(merged: dict) -> int:
    options = _options(merged)
    if merged.get("export_matrix") and not VARIANTS[options.variant].linear:
        raise ConfigurationError(
            f"--export-matrix: the {options.variant} model solves no single "
            f"linear system")
    [t] = _parse_t(merged["t"])
    seed = int(merged["seed"])
    if seed < 0:
        raise ConfigurationError(f"--seed {seed}: seeds must be >= 0")
    row, result, cloud, system = solve_single(merged["case"], t, seed, options)
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    exact = VARIANTS[options.variant].data(get_case(merged["case"]),
                                           options)[0](cloud.points)
    path = out / "solution.csv"
    with open(path, "w") as fh:
        fh.write("kind," + ",".join(f"x{i}" for i in range(cloud.d))
                 + ",u,exact\n")
        nb = cloud.n0 - cloud.m0
        for i in range(cloud.n0):
            kind = "interior" if i < nb else "boundary"
            xs = ",".join(repr(float(v)) for v in cloud.points[i])
            fh.write(f"{kind},{xs},{float(result.U[i])!r},{float(exact[i])!r}\n")
    save_cloud_csv(cloud, out / "cloud.csv")
    if merged.get("export_matrix"):
        export_matrix(system, merged["export_matrix"])
    inner = ("" if result.inner_iterations is None
             else f" inner_iters={result.inner_iterations}")
    print(f"t={row.t} seed={row.seed} n0={row.n0} m0={row.m0} "
          f"e2={row.e2:.6f} iters={row.iters}{inner} converged={row.converged}")
    print(f"wrote {path}")
    return 0 if row.converged else 3


def _cmd_lemmas(merged: dict) -> int:
    deltas = _number_list(merged["deltas"], float)
    report = lemma_diagnostics(merged["case"], deltas)
    csv_path, svg_path = emit_lemma_report(report, merged["out"])
    print(f"C_R = {report.CR:.12g}")
    print(f"boundary-sum deviation order = {report.boundary_order:.3f}")
    print(f"omega deviation order = {report.omega_order:.3f}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def main(argv=None) -> int:
    try:
        merged = _parse(argv)
        if merged["command"] == "converge":
            return _cmd_converge(merged)
        if merged["command"] == "solve":
            return _cmd_solve(merged)
        if merged["command"] == "lemmas":
            return _cmd_lemmas(merged)
        raise ConfigurationError(f"unknown command {merged['command']!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
