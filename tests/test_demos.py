"""Every demo script, and every Python block of README.md, runs to
completion against the package in src/, and every nlpoisson command of
README.md's sh blocks parses."""

import functools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nlpoisson import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README,
                           flags=re.MULTILINE | re.DOTALL)
# each command line of the sh blocks, its backslash continuations joined
README_COMMANDS = [
    line.strip()
    for block in re.findall(r"^```sh\n(.*?)^```$", README,
                            flags=re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.strip().startswith("nlpoisson ")]


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


def test_readme_has_cli_commands():
    assert README_COMMANDS


@pytest.mark.parametrize("command", README_COMMANDS,
                         ids=[f"cmd{i}" for i in range(len(README_COMMANDS))])
def test_readme_cli_command_parses(command):
    """The flags README shows are the parser's; nothing is run."""
    argv = shlex.split(command, comments=True)[1:]
    cli._build_parser()[0].parse_args(argv)
