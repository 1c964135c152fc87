"""Tests of the benchmark itself, on the smoke-size workloads.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from spans import self_times  # noqa: E402
from nlpoisson import harness, solver, variants  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.1
# one host probe between units keeps the smoke runs quick
bench.PROBES_PER_UNIT = 1


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.SMOKE))
def test_every_metric_prints_with_its_unit(workload, trace, tmp_path, capsys):
    run.main(["--workload", workload, "--seed", "0", "--seconds",
              str(SECONDS), "--trace", str(trace), "--smoke",
              "--out", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if not line.startswith("#")}
    for name, unit in declared.items():
        assert printed[name] == unit
        assert summary["metrics"][name]["value"] != 0
    assert printed["failed_frac"] == "ratio"
    if workload == "cap-sweep":
        assert "convergence_slope" in printed
    if trace:
        assert (tmp_path / f"trace-{workload}-seed0.json").is_file()
        assert "trace.overhead_frac" in printed
    if trace and workload == "cap-nonlinear":
        assert "variants.picard_steps" in printed


COUNTS = ("assembly.S_nnz", "solver.cg_iters", "harness.e2")


@pytest.mark.parametrize("workload", ["cap-fine", "cap-nonlinear", "cap-sweep"])
def test_deterministic_counts_repeat_exactly(workload):
    w = bench.SMOKE[workload]
    runs = [bench.run(w, 3, SECONDS, True) for _ in range(2)]
    for r in runs:
        assert not r.fidelity and r.failed == 0
    layers = [bench.per_layer(r) for r in runs]
    extras = [{**bench.extra_end_to_end(r), **bench.extra_per_layer(r)}
              for r in runs]
    for name in COUNTS:
        assert layers[0][name] == layers[1][name]
    assert extras[0]["e2"] == extras[1]["e2"]
    if workload == "cap-nonlinear":
        assert (extras[0]["variants.picard_steps"]
                == extras[1]["variants.picard_steps"])
    if workload == "cap-sweep":
        assert (extras[0]["convergence_slope"]
                == extras[1]["convergence_slope"])


def test_non_converged_solve_counts_as_failed(monkeypatch):
    real = solver.solve_mean_zero

    def stalled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.converged = False
        return result

    # the program's own path too, so that the fidelity check still agrees
    monkeypatch.setattr(solver, "solve_mean_zero", stalled)
    monkeypatch.setattr(harness, "solve_mean_zero", stalled)
    r = bench.run(bench.SMOKE["cap-fine"], 0, SECONDS, False)
    assert not r.fidelity
    assert r.failed == r.attempted >= 1
    assert bench.extra_end_to_end(r)["failed_frac"] == (1.0, "ratio")
    assert all("did not converge" in " ".join(c["failures"])
               for c in r.configs)
    # reported as a failure, not as a wrong answer
    assert r.correct


def test_wrong_answer_reported_as_converged_is_incorrect(monkeypatch):
    real = solver.solve_mean_zero

    def sloppy(*args, **kwargs):
        result = real(*args, **kwargs)
        result.U = result.U * 1.001
        return result

    monkeypatch.setattr(solver, "solve_mean_zero", sloppy)
    r = bench.run(bench.SMOKE["cap-fine"], 0, SECONDS, False)
    assert r.failed == r.attempted >= 1
    assert all("true relative residual" in " ".join(c["failures"])
               for c in r.configs)
    assert not r.correct


@pytest.mark.parametrize("workload", ["cap-fine", "cap-nonlinear", "cap-sweep"])
def test_layer_spans_nest_under_their_configuration(workload):
    originals = {n: getattr(variants, n) for n in ("assemble", "cg")}
    r = bench.run(bench.SMOKE[workload], 0, SECONDS, True)
    by_id = {s["id"]: s for s in r.spans}
    configs = [s for s in r.spans if s["name"] == "bench.config"]
    assert configs
    for s in r.spans:
        if s["name"] in ("kernels.profile", "harness.convergence_study"):
            assert s["parent"] is None
            continue
        if s["name"] == "bench.config":
            assert s["parent"] is None
            continue
        parent = by_id[s["parent"]]
        assert parent["config"] == s["config"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        assert root["name"] == "bench.config"
        assert root["config"] == s["config"]
    if workload == "cap-nonlinear":
        names = {s["name"] for s in r.spans}
        assert {"assembly.assemble", "solver.cg"} <= names
        assert {n: getattr(variants, n) for n in originals} == originals
    own = self_times(r.spans)
    for c in configs:
        inside = [s for s in r.spans if s["config"] == c["config"]]
        total = sum(own[s["id"]] for s in inside)
        assert total == pytest.approx(c["end"] - c["start"], rel=1e-9)


def test_end_to_end_times_are_scaled_to_host_speed():
    def unit(seed, wall, traced=False):
        return {"traced": traced, "wall": wall,
                "rows": [{"t": 80, "seed": seed, "n0": 100}]}

    r = bench.RunResult(
        workload=bench.WORKLOADS["cap-fine"],
        units=[unit(1, 2.0), unit(2, 3.0), unit(1, 5.0),
               unit(1, 0.5, traced=True)],
        configs=[], fidelity=[], profile_s=[], spans=[], slope=None,
        probe_s=[bench.PROBE_REFERENCE_S])
    e2e = bench.end_to_end(r, setup_s=0.7)
    assert e2e["time_to_solution_s"] == (3.0, "s")
    assert e2e["dof_per_s"] == (100 / 3.0, "1/s")
    assert e2e["setup_s"] == (0.7, "s")

    # a host running at half speed: times scaled back to a quiet host's
    r.probe_s = [bench.PROBE_REFERENCE_S * k for k in (1, 2, 3)]
    e2e = bench.end_to_end(r, setup_s=0.7)
    assert e2e["time_to_solution_s"][0] == pytest.approx(1.5)
    assert e2e["dof_per_s"][0] == pytest.approx(2 * 100 / 3.0)
    assert e2e["setup_s"][0] == pytest.approx(0.35)
