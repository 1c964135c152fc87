"""Pipeline benchmark for nlpoisson.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cap-sweep --seed 1 --seconds 50 --trace 0

It prints every metric by name with its unit, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, taken from untraced
configurations.  With ``--trace 1`` they are the per-layer ones, taken
from spans recorded around each layer call; the spans are written to
``perfbench/out/`` when the run ends.  The workloads and metrics are
listed in BENCHMARK.json at the root of the repository.

The package is imported from ``src/`` of the checkout; the benchmark
exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the heavy kernels (scipy.sparse, Qhull, cKDTree
# queries) are single-threaded, and more threads than this only add
# contention on shared cores.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5

# What set-up costs a user: a fresh interpreter up to a ready kernel profile.
SETUP_CODE = """
import sys
import nlpoisson
profile = nlpoisson.cosine_profile()
nlpoisson.compute_CR(profile, int(sys.argv[1]))
print(nlpoisson.__file__, flush=True)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Must run before numpy is imported to take effect."""
    n = str(min(THREADS, nproc()))
    for var in THREAD_VARS:
        os.environ[var] = n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": nproc(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "cpu": cpu_model()}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(m: int, repeats: int) -> list[float]:
    """Wall time from process start to a ready profile and C_R, per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(m)],
                              stdout=subprocess.PIPE, env=_child_env(),
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child failed or imported "
                               f"{line.strip()!r} instead of {SRC}")
    return times


def _fmt(name: str, value: float, unit: str) -> str:
    return f"{name:<40} {value:>16.6g} {unit}"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and one set-up repeat, for the tests")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for the span file of a traced run")
    return p.parse_args(argv)


def main(argv=None) -> None:
    import statistics

    import bench

    args = parse_args(argv, bench.WORKLOADS)
    w = (bench.SMOKE if args.smoke else bench.WORKLOADS)[args.workload]
    env = environment()
    for key, value in env.items():
        print(f"# {key}: {value}")

    m = bench.geometry.get_case(w.case).m
    setup = setup_seconds(m, 1 if args.smoke else SETUP_REPEATS)
    result = bench.run(w, args.seed, args.seconds, bool(args.trace))

    e2e = bench.end_to_end(result, statistics.median(setup))
    e2e_extra = bench.extra_end_to_end(result)
    layers = bench.per_layer(result) if args.trace else {}
    layers_extra = bench.extra_per_layer(result) if args.trace else {}

    print(f"# workload {w.name}: {w.kind} {w.case} t={list(w.t)} "
          f"seeds={w.seeds(args.seed)} units={len(result.units)} "
          f"configs={result.attempted}")
    print("# set-up wall times (s): " + " ".join(f"{t:.3f}" for t in setup))
    print("# unit wall times (s): " + " ".join(
        f"{u['wall']:.3f}{'T' if u['traced'] else ''}" for u in result.units))
    print("# end to end" + (" (untraced units of this run)" if args.trace
                            else ""))
    for name, (value, unit) in {**e2e, **e2e_extra}.items():
        print(_fmt(name, value, unit))
    if args.trace:
        print("# per layer (traced configurations)")
        for name, (value, unit) in {**layers, **layers_extra}.items():
            print(_fmt(name, value, unit))
    for c in result.configs:
        for f in c["failures"]:
            tag = "INCORRECT" if c["incorrect"] else "FAILED"
            print(f"# {tag} t={c['t']} seed={c['seed']}: {f}")
    for f in result.fidelity:
        print(f"# FIDELITY {f}")

    if args.trace:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": w.name, "seed": args.seed, "environment": env,
            "setup_s": setup, "configs": result.configs,
            "spans": result.spans,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                        {**e2e, **e2e_extra, **layers, **layers_extra}.items()},
        }, indent=1, default=float))
        print(f"# spans written to {path}")

    chosen = layers if args.trace else e2e
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    if not (SRC / "nlpoisson" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'nlpoisson'}; run from the "
              "root of an nlpoisson checkout", file=sys.stderr)
        sys.exit(2)
    pin_threads()
    sys.path.insert(0, str(SRC))
    main(sys.argv[1:])
