"""Every demo script, and every Python block of README.md, runs to
completion against the package in src/."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.fixture(scope="session")
def run_demo(tmp_path_factory):
    """Run a demo once, in a directory of its own, for every test that
    reads it; returns the finished process and that directory."""
    @functools.cache
    def run(stem):
        cwd = tmp_path_factory.mktemp(stem)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        demo = ROOT / "demos" / f"{stem}.py"
        proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)
        return proc, cwd
    return run


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, run_demo):
    proc, _ = run_demo(demo.stem)
    assert proc.returncode == 0, proc.stderr


DEMO_OUTPUTS = {
    "02_point_clouds": ["nlpoisson_demo_cloud.csv"],
    "04_convergence": ["nlpoisson_demo_converge/converge.csv",
                       "nlpoisson_demo_converge/converge.svg"],
    "05_kernel_orders": ["nlpoisson_demo_lemmas"],
}


@pytest.mark.parametrize("demo", DEMO_OUTPUTS)
def test_demo_writes_under_working_directory(demo, run_demo):
    """A demo's files land in the directory it runs in."""
    proc, cwd = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    for name in DEMO_OUTPUTS[demo]:
        assert (cwd / name).exists(), name


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
