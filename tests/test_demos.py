"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


DEMO_OUTPUTS = {
    "02_point_clouds": ["nlpoisson_demo_cloud.csv"],
    "04_convergence": ["nlpoisson_demo_converge/converge.csv",
                       "nlpoisson_demo_converge/converge.svg"],
    "05_kernel_orders": ["nlpoisson_demo_lemmas"],
}


@pytest.mark.parametrize("demo", DEMO_OUTPUTS)
def test_demo_writes_under_working_directory(demo, tmp_path):
    """A demo's files land in the directory it runs in."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in DEMO_OUTPUTS[demo]:
        assert (tmp_path / name).exists(), name
