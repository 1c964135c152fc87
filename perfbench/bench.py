"""Workloads, the staged pipeline, correctness gates and metrics.

The benchmark calls the package's public functions itself, one layer at a
time, so each layer can be timed from outside:

    geometry.sample_case -> geometry.volume_weights ->
    geometry.boundary_weights -> case.conormal -> assembly.assemble ->
    solver.solve_mean_zero -> harness.e2_error

The nonlinear workload calls variants.nonlinear_solve in place of the
assemble and solve steps; the sweep calls harness.convergence_study.  The
package only ever receives the generated (case, t, seed) inputs.

A run repeats a fixed cycle of units (one configuration, or one whole
convergence study) for the requested number of seconds.  It always
finishes the first cycle, and starts no further unit that would end after
the deadline at the mean unit time seen so far.  Between units a fixed
pure-Python probe measures how fast the shared host runs the interpreter,
and the end-to-end times are scaled by it to a quiet host's speed.

The fidelity check compares the staged rows with the rows of the
program's own entry point (run_single or convergence_study), which must
agree bit for bit.  A traced run checks this at full size against its
first staged configurations; an untraced run checks it at smoke size
before the window, which also warms the process up.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from nlpoisson import assembly, geometry, harness, kernels, solver, variants

from spans import Tracer, layer_of, no_span, self_times

MEAN_ZERO_TOL = 1e-12
NONLINEAR_RESIDUAL = 1e-8
ENERGY_SLACK = 1e-12          # criterion 9 of the acceptance suite
SLOPE_RANGE = (2.0, 3.0)      # criterion 1 of the acceptance suite
PROFILE_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "base", "nonlinear" or "sweep"
    case: str
    t: tuple[int, ...]        # one resolution, or the sweep's list
    configs: int              # cloud seeds per run, drawn from --seed
    fixed_seeds: tuple[int, ...] = ()

    def seeds(self, seed: int) -> list[int]:
        """Cloud seeds of one run: block ``seed`` of ``configs`` seeds.

        A workload with fixed seeds ignores ``seed``.
        """
        if seed < 0:
            raise ValueError("--seed must be >= 0")
        if self.fixed_seeds:
            return list(self.fixed_seeds)
        return [self.configs * seed + j + 1 for j in range(self.configs)]


# Why each workload exists is recorded in BENCHMARK.json.  cap-fine and
# sphere3-fine run by name but are left out of it: their operators (33 and
# 73 MB) exceed the caches, and their times swing by up to 1.9x with the
# load other tenants put on a shared host, more than the host probe follows.
WORKLOADS = {w.name: w for w in (
    Workload("cap-fine", "base", "hemisphere2", (80,), 4),
    Workload("sphere3-fine", "base", "hemisphere3", (12,), 2),
    Workload("cap-nonlinear", "nonlinear", "hemisphere2", (40,), 4),
    # The acceptance study as criterion 1 defines it, on its documented
    # seeds 1..3: the slope gate holds on that set only (on 6 of 24 other
    # blocks of three seeds the fitted slope leaves [2, 3]).
    Workload("cap-sweep", "sweep", "hemisphere2", (5, 10, 15, 20, 30, 40), 3,
             (1, 2, 3)),
)}

# The same workloads at tiny sizes, for the benchmark's own tests.
SMOKE = {w.name: w for w in (
    Workload("cap-fine", "base", "hemisphere2", (10,), 2),
    Workload("sphere3-fine", "base", "hemisphere3", (4,), 2),
    Workload("cap-nonlinear", "nonlinear", "hemisphere2", (8,), 1),
    Workload("cap-sweep", "sweep", "hemisphere2", (5, 6, 8, 10), 1, (1,)),
)}


def options_for(w: Workload) -> harness.HarnessOptions:
    if w.kind == "nonlinear":
        return harness.HarnessOptions(variant="nonlinear", lam=1.0, p=1.5)
    return harness.HarnessOptions()


def nonlinear_forcing(case, lam: float, p: float):
    """The manufactured forcing run_single uses for the nonlinear model."""
    def f_man(x):
        u = case.exact_u(x)
        return case.forcing(x) + lam * u * np.abs(u) ** (2.0 * p - 2.0)
    return f_man


def csr_bytes(S) -> int:
    return int(S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)


# ---------------------------------------------------------------- pipeline

def _cloud(case, t, seed, span):
    with span("geometry.sample_case"):
        cloud = geometry.sample_case(case, t, seed)
    with span("geometry.volume_weights"):
        cloud.A = geometry.volume_weights(cloud)
    with span("geometry.boundary_weights"):
        cloud.L = geometry.boundary_weights(cloud)
    with span("geometry.conormal"):
        cloud.normals = case.conormal(cloud.boundary)
    return cloud


@contextmanager
def _variant_probes(span, probe):
    """Span the assembly and solver calls made inside variants.

    Wraps the names variants imported from assembly and solver for the
    duration of one traced configuration, and restores them after.
    """
    wrapped = {}

    def assembly_call(name):
        fn = getattr(variants, name)

        def call(*args, **kwargs):
            with span("assembly." + name):
                out = fn(*args, **kwargs)
            if name == "assemble":
                probe["system"] = out
            return out
        return call

    def solve_mean_zero(system, *args, **kwargs):
        with span("solver.solve_mean_zero"):
            res = wrapped["solve_mean_zero"](system, *args, **kwargs)
        probe["solves"].append((csr_bytes(system.S), res.iterations,
                                res.residual))
        return res

    def cg(S, *args, **kwargs):
        with span("solver.cg"):
            out = wrapped["cg"](S, *args, **kwargs)
        probe["solves"].append((csr_bytes(S), out[2], out[1]))
        return out

    replacements = {"cg": cg, "solve_mean_zero": solve_mean_zero}
    for name in ("assemble", "bar_matrix", "interior_laplacian"):
        replacements[name] = assembly_call(name)
    for name in replacements:
        wrapped[name] = getattr(variants, name)
    try:
        for name, fn in replacements.items():
            setattr(variants, name, fn)
        yield
    finally:
        for name, fn in wrapped.items():
            setattr(variants, name, fn)


def run_config(w: Workload, t: int, seed: int, profile, span, cid: str,
               traced: bool) -> dict:
    """One configuration from (case, t, seed) to a scored solution.

    Returns its record: wall time, counts, the row run_single would
    report, and the failed gates.
    """
    case = geometry.get_case(w.case)
    opts = options_for(w)
    probe = {"system": None, "solves": []}
    start = time.perf_counter()
    with span("bench.config", config=cid):
        cloud = _cloud(case, t, seed, span)
        if w.kind == "nonlinear":
            config = variants.VariantConfig(
                kind="nonlinear", lam=opts.lam, p=opts.p, theta=opts.theta,
                f=nonlinear_forcing(case, opts.lam, opts.p),
                picard_tol=opts.picard_tol, picard_max=opts.picard_max)
            probes = _variant_probes(span, probe) if traced else nullcontext()
            with probes, span("variants.nonlinear_solve"):
                result = variants.nonlinear_solve(cloud, profile=profile,
                                                  config=config)
        else:
            with span("assembly.assemble"):
                system = assembly.assemble(cloud, profile=profile,
                                           mode=opts.mode)
            with span("solver.solve_mean_zero"):
                result = solver.solve_mean_zero(system, tol=opts.tol)
            probe["system"] = system
            probe["solves"].append((csr_bytes(system.S), result.iterations,
                                    result.residual))
        with span("harness.e2_error"):
            e2 = harness.e2_error(result.U, cloud, case.exact_u)
    wall = time.perf_counter() - start

    rec = {"id": cid, "t": t, "seed": seed, "traced": traced, "wall": wall,
           "n0": cloud.n0, "m0": cloud.m0, "delta": cloud.delta, "e2": e2,
           "iters": result.iterations, "converged": result.converged,
           "mass_ratio": float(cloud.A.sum() / case.volume),
           "boundary_mass_ratio": float(cloud.L.sum() / case.boundary_measure)}
    system = probe["system"]
    if system is not None:
        CR = kernels.compute_CR(profile, cloud.m)
        rec.update(
            S_nnz=int(system.S.nnz), S_bytes=csr_bytes(system.S),
            zeta_nnz=int(system.coupling.zeta.nnz),
            RbarL_nnz=int(system.coupling.RbarL.nnz),
            min_omega_ratio=float(system.coupling.omega_hat.min()
                                  / (system.delta * CR)))
    if probe["solves"]:
        rec.update(
            cg_iters=sum(it for _, it, _ in probe["solves"]),
            solver_residual=max(r for _, _, r in probe["solves"]),
            # each CG call applies S once per iteration, plus the initial
            # and final residuals
            bytes_moved=sum(b * (it + 2) for b, it, _ in probe["solves"]))
    if w.kind == "nonlinear":
        rec.update(picard_steps=result.iterations,
                   final_residual=result.residual,
                   energy_monotone=_energy_monotone(result.energy_history))
        rec["failures"] = _nonlinear_gates(result, rec)
    else:
        rec["failures"] = _base_gates(system, result, opts.tol)
    # A solve that reports non-convergence failed; one that reports
    # convergence and still fails a gate gave a wrong answer.
    rec["incorrect"] = bool(rec["failures"]) and result.converged
    return rec


def _energy_monotone(energies) -> bool:
    J = np.asarray(energies)
    return bool(np.all(np.diff(J) <= ENERGY_SLACK
                       * np.maximum(1.0, np.abs(J[:-1]))))


def _base_gates(system, result, tol: float) -> list[str]:
    fails = []
    U = result.U
    if not result.converged:
        fails.append("solve did not converge")
    if not np.all(np.isfinite(U)):
        fails.append("U is not finite")
        return fails
    b = system.rhs
    true_res = float(np.linalg.norm(b - system.S @ U) / np.linalg.norm(b))
    if not true_res <= tol:
        fails.append(f"true relative residual {true_res:.3e} > {tol:.0e}")
    mean = abs(float(U @ system.A)) / float(np.abs(U) @ system.A)
    if not mean <= MEAN_ZERO_TOL:
        fails.append(f"A-weighted mean {mean:.3e} is not zero")
    return fails


def _nonlinear_gates(result, rec) -> list[str]:
    fails = []
    if not result.converged:
        fails.append("Picard iteration did not converge")
    if not result.residual < NONLINEAR_RESIDUAL:
        fails.append(f"residual {result.residual:.3e} >= {NONLINEAR_RESIDUAL}")
    if not rec["energy_monotone"]:
        fails.append("energy increased")
    if not np.all(np.isfinite(result.U)):
        fails.append("U is not finite")
    return fails


ROW_FIELDS = ("t", "delta", "n0", "m0", "seed", "e2", "iters", "converged")


def _row(r) -> tuple:
    """The reproducible part of a report row; wall_ms is left out."""
    if isinstance(r, dict):
        return tuple(r[k] for k in ROW_FIELDS)
    return tuple(getattr(r, k) for k in ROW_FIELDS)


def run_study(w: Workload, seeds: list[int], span, cid: str) -> dict:
    opts = options_for(w)
    start = time.perf_counter()
    with span("harness.convergence_study", config=cid):
        report = harness.convergence_study(w.case, list(w.t), seeds=seeds,
                                           options=opts)
    wall = time.perf_counter() - start
    lo, hi = SLOPE_RANGE
    slope_ok = lo <= report.slope <= hi
    rows = [{"t": r.t, "delta": r.delta, "n0": r.n0, "m0": r.m0,
             "seed": r.seed, "e2": r.e2, "iters": r.iters,
             "converged": r.converged, "traced": False,
             "incorrect": not slope_ok,
             "failures": ([] if r.converged else ["solve did not converge"])
             + ([] if slope_ok else
                [f"slope {report.slope:.3f} outside [{lo}, {hi}]"])}
            for r in report.rows]
    return {"id": cid, "kind": "study", "traced": False, "wall": wall,
            "rows": rows, "slope": report.slope}


# ------------------------------------------------------------- host speed

# The probe's median time on a quiet host of the kind the benchmark was
# written on: 2 vCPUs of an Intel Xeon at 2.0 GHz.  On that host other
# tenants' load slows the interpreter, and the probe with it, by up to 1.6x
# for minutes at a time.
PROBE_REFERENCE_S = 0.0375
PROBES_PER_UNIT = 3


def host_probe_s() -> float:
    """Seconds the interpreter takes for a fixed loop that uses none of
    the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return time.perf_counter() - start


# ------------------------------------------------------------------ a run

@dataclass
class RunResult:
    workload: Workload
    units: list[dict]
    configs: list[dict]          # every configuration executed in the window
    fidelity: list[str]          # mismatches against the program's own path
    profile_s: list[float]
    probe_s: list[float]         # host probes around the window's units
    spans: list[dict]
    slope: float | None

    @property
    def host_slowdown(self) -> float:
        """How much slower than a quiet host the host ran this run."""
        return _median(self.probe_s) / PROBE_REFERENCE_S

    @property
    def attempted(self) -> int:
        return len(self.configs)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.configs if c["failures"])

    @property
    def correct(self) -> bool:
        """No wrong answer reported as right, and the staged pipeline
        reproduces the program's own."""
        return not self.fidelity and not any(c["incorrect"]
                                             for c in self.configs)


def _cycle(w: Workload, seeds: list[int], trace: bool) -> list[tuple]:
    if w.kind == "sweep":
        return [("staged", True), ("study", False)] if trace \
            else [("study", False)]
    if trace:
        # every configuration traced, one untraced for the overhead
        return [(s, True) for s in seeds] + [(seeds[0], False)]
    return [(s, False) for s in seeds]


def run(w: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    seeds = w.seeds(seed)
    tracer = Tracer() if trace else None
    span = tracer.span if trace else no_span

    profile_s = []
    for _ in range(PROFILE_REPEATS if trace else 1):
        start = time.perf_counter()
        with span("kernels.profile", config="setup"):
            profile = kernels.cosine_profile()
            kernels.compute_CR(profile, geometry.get_case(w.case).m)
        profile_s.append(time.perf_counter() - start)

    # The program's own entry point on the first configuration: at full
    # size in a traced run, where the window's staged rows are compared
    # with it; at smoke size in an untraced run, where it also warms up.
    ref_w = w if trace else SMOKE[w.name]
    ref_seeds = ref_w.seeds(seed)
    reference = _program_rows(ref_w, ref_seeds)
    staged = None if trace else _staged_rows(ref_w, ref_seeds, profile)

    units, configs, probes = [], [], []

    def probe():
        probes.extend(host_probe_s() for _ in range(PROBES_PER_UNIT))

    cycle = _cycle(w, seeds, trace)
    start = time.perf_counter()
    i = 0
    while True:
        probe()
        item, traced = cycle[i % len(cycle)]
        cid = f"{w.name}/{i}"
        if item == "study":
            unit = run_study(w, seeds, span, cid)
            configs.extend(unit["rows"])
        elif item == "staged":
            unit = _staged_sweep(w, seeds, profile, span, cid, True)
            configs.extend(unit["rows"])
        else:
            rec = run_config(w, w.t[0], item, profile,
                             span if traced else no_span, cid, traced)
            unit = {"id": cid, "kind": "config", "traced": traced,
                    "wall": rec["wall"], "rows": [rec]}
            configs.append(rec)
        units.append(unit)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= len(cycle) and elapsed + elapsed / i > seconds:
            break
    probe()

    if trace:
        staged = [c for c in configs if c["traced"]][:len(reference)]
    fidelity = [] if [_row(c) for c in staged] == reference else [
        f"staged rows {[_row(c) for c in staged]} differ from the "
        f"program's rows {reference}"]
    slope = next((u["slope"] for u in units if "slope" in u), None)
    return RunResult(workload=w, units=units,
                     configs=configs, fidelity=fidelity, profile_s=profile_s,
                     probe_s=probes, spans=tracer.spans if trace else [],
                     slope=slope)


def _staged_sweep(w: Workload, seeds, profile, span, cid, traced) -> dict:
    """The sweep's configurations through the staged pipeline."""
    start = time.perf_counter()
    rows = [run_config(w, t, s, profile, span, f"{cid}/t{t}/s{s}", traced)
            for t in w.t for s in seeds]
    return {"id": cid, "kind": "staged", "traced": traced,
            "wall": time.perf_counter() - start, "rows": rows}


def _program_rows(w: Workload, seeds: list[int]) -> list[tuple]:
    """Rows of run_single (first seed) or convergence_study, untimed."""
    if w.kind == "sweep":
        return [_row(r) for r in run_study(w, seeds, no_span, "ref")["rows"]]
    row, _ = harness.run_single(w.case, w.t[0], seeds[0], options_for(w))
    return [_row(row)]


def _staged_rows(w: Workload, seeds: list[int], profile) -> list[dict]:
    """The staged pipeline on the configurations of _program_rows."""
    if w.kind == "sweep":
        return _staged_sweep(w, seeds, profile, no_span, "ref", False)["rows"]
    return [run_config(w, w.t[0], seeds[0], profile, no_span, "ref", False)]


# ---------------------------------------------------------------- metrics

def _median(values) -> float:
    return float(statistics.median(values))


def _distinct(configs: list[dict]) -> list[dict]:
    """First execution of each (t, seed): counts repeat exactly."""
    seen = {}
    for c in configs:
        seen.setdefault((c["t"], c["seed"]), c)
    return list(seen.values())


def _per_config_s(r: RunResult) -> list[float]:
    return [u["wall"] / len(u["rows"]) for u in r.units if not u["traced"]]


def end_to_end(r: RunResult, setup_s: float) -> dict:
    """Metrics from the untraced units; value and unit by name.

    Times are medians, as the host slowdown is, and are scaled by it to a
    quiet host's speed.
    """
    plain = [u for u in r.units if not u["traced"]]
    dof = [sum(c["n0"] for c in u["rows"]) / u["wall"] for u in plain]
    slow = r.host_slowdown
    return {
        "time_to_solution_s": (_median(_per_config_s(r)) / slow, "s"),
        "dof_per_s": (_median(dof) * slow, "1/s"),
        "setup_s": (setup_s / slow, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def extra_end_to_end(r: RunResult) -> dict:
    """End-to-end figures kept out of BENCHMARK.json's bounded metrics.

    e2 depends on the cloud seeds far more than any bound allows (the
    nonlinear workload's ranges over 0.4 to 1.9), failed_frac is 0 on a
    healthy run, and the slope exists on the sweep only.  The host's
    slowdown and the unscaled time show what the scaling did.
    """
    rows = _distinct(r.configs)
    out = {"host.slowdown": (r.host_slowdown, "ratio"),
           "wall.time_to_solution_s": (_median(_per_config_s(r)), "s"),
           "e2": (_median([c["e2"] for c in rows]), "ratio"),
           "failed_frac": (r.failed / r.attempted, "ratio")}
    if r.slope is not None:
        out["convergence_slope"] = (r.slope, "ratio")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span_table(spans: list[dict]) -> dict[str, dict]:
    """Per traced configuration: duration by span name, self time by layer."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        if s["name"] == "bench.config":
            table[s["config"]] = {"dur": {}, "self": {}}
    for s in spans:
        entry = table.get(s["config"])
        if entry is None:
            continue
        dur = s["end"] - s["start"]
        entry["dur"][s["name"]] = entry["dur"].get(s["name"], 0.0) + dur
        layer = layer_of(s["name"])
        entry["self"][layer] = entry["self"].get(layer, 0.0) + own[s["id"]]
    return table


def _traced(r: RunResult) -> tuple[dict, list[dict]]:
    table = _span_table(r.spans)
    return table, [c for c in r.configs if c["traced"] and c["id"] in table]


def per_layer(r: RunResult) -> dict:
    """Metrics from the traced configurations; value and unit by name.

    Times are medians over traced executions, counts medians over the
    distinct configurations of the run.
    """
    table, traced = _traced(r)
    distinct = _distinct(traced)

    def dur(name):
        return _median([table[c["id"]]["dur"].get(name, 0.0) for c in traced])

    def self_s(layer):
        return _median([table[c["id"]]["self"].get(layer, 0.0)
                        for c in traced])

    def count(key):
        return _median([c[key] for c in distinct])

    def solver_s(c):
        d = table[c["id"]]["dur"]
        return d.get("solver.solve_mean_zero", 0.0) + d.get("solver.cg", 0.0)

    return {
        "kernels.profile_s": (_median(r.profile_s), "s"),
        "geometry.sample_s": (dur("geometry.sample_case"), "s"),
        "geometry.volume_weights_s": (dur("geometry.volume_weights"), "s"),
        "geometry.volume_weights_us_per_point": (_median(
            [1e6 * table[c["id"]]["dur"]["geometry.volume_weights"] / c["n0"]
             for c in traced]), "us"),
        "geometry.boundary_weights_s": (dur("geometry.boundary_weights"), "s"),
        "geometry.self_s": (self_s("geometry"), "s"),
        "geometry.n0": (count("n0"), "count"),
        "geometry.m0": (count("m0"), "count"),
        "geometry.mass_ratio": (count("mass_ratio"), "ratio"),
        "geometry.boundary_mass_ratio": (count("boundary_mass_ratio"), "ratio"),
        "assembly.assemble_s": (dur("assembly.assemble"), "s"),
        "assembly.self_s": (self_s("assembly"), "s"),
        "assembly.S_nnz": (count("S_nnz"), "count"),
        "assembly.S_mb": (count("S_bytes") / 1e6, "MB"),
        "assembly.zeta_nnz": (count("zeta_nnz"), "count"),
        "assembly.RbarL_nnz": (count("RbarL_nnz"), "count"),
        "assembly.min_omega_ratio": (count("min_omega_ratio"), "ratio"),
        "solver.solve_s": (_median([solver_s(c) for c in traced]), "s"),
        "solver.cg_iters": (count("cg_iters"), "count"),
        "solver.iter_ms": (_median([1e3 * solver_s(c) / c["cg_iters"]
                                    for c in traced]), "ms"),
        "solver.rel_residual": (count("solver_residual"), "ratio"),
        "solver.spmv_gbs": (_median([c["bytes_moved"] / solver_s(c) / 1e9
                                     for c in traced]), "GB/s"),
        "harness.score_s": (dur("harness.e2_error"), "s"),
        "harness.e2": (count("e2"), "ratio"),
    }


def extra_per_layer(r: RunResult) -> dict:
    """Per-layer figures of one workload only, and the tracing overhead."""
    table, traced = _traced(r)
    out = {}
    if r.workload.kind == "nonlinear":
        distinct = _distinct(traced)
        nl = [table[c["id"]]["dur"]["variants.nonlinear_solve"] for c in traced]
        steps = _median([c["picard_steps"] for c in distinct])
        out.update({
            "variants.nonlinear_s": (_median(nl), "s"),
            "variants.self_s": (_median([table[c["id"]]["self"]["variants"]
                                         for c in traced]), "s"),
            "variants.picard_steps": (steps, "count"),
            "variants.step_ms": (_median(
                [1e3 * t / c["picard_steps"] for t, c in zip(nl, traced)]),
                "ms"),
            "variants.energy_monotone": (float(np.mean(
                [c["energy_monotone"] for c in distinct])), "ratio"),
            "variants.final_residual": (_median(
                [c["final_residual"] for c in distinct]), "ratio"),
        })
    studies = [s["end"] - s["start"] for s in r.spans
               if s["name"] == "harness.convergence_study"]
    if studies:
        out["harness.study_s"] = (_median(studies), "s")
    out["bench.self_s"] = (_median([table[c["id"]]["self"]["bench"]
                                    for c in traced]), "s")
    # traced against untraced units of the same run
    plain = [u["wall"] / len(u["rows"]) for u in r.units if not u["traced"]]
    spanned = [u["wall"] / len(u["rows"]) for u in r.units if u["traced"]]
    if plain and spanned:
        base = _median(plain)
        out["trace.overhead_frac"] = ((_median(spanned) - base) / base, "ratio")
    return out
