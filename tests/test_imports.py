"""Every import in the package, the tests and the demos is used, every
private name of the package is read, every public one is read outside the
tests, and the package exports what it imports.

The repository runs no linter, so this walks each module's syntax tree.
Package ``__init__`` modules (whose imports are re-exports) and names
imported on a line marked ``# noqa: F401`` are exempt from the import
check.  Such a kept-alive import must be one of the names that
``perfbench/bench.py::_variant_probes`` wraps on ``variants``, so the
exemptions cannot grow beyond them.  A module-level private function,
class or constant (``_name``), a private method and any method of a
private class (dunders aside) must be read somewhere in the package
outside its own definition.  A public function or class, and a public
method of a public class, must be read outside its own definition in the
package, the demos or perfbench (its tests aside): a name only tests call
is a test oracle, which belongs in the tests.  The PROBED names, which
perfbench reads only as strings, and ``load_profile_table`` are exempt.
No module imports the scipy subpackages no run executes (LAZY) at module
level, and a fresh interpreter that solves one configuration never loads
them.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlpoisson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the tests and demos are held to the import check too
SCRIPTS = sorted(p for folder in ("tests", "demos")
                 for p in (PACKAGE.parents[1] / folder).glob("*.py"))
# what a run calls: the demos and perfbench, its tests aside
CALLERS = sorted(p for folder in ("demos", "perfbench")
                 for p in (PACKAGE.parents[1] / folder).glob("*.py")
                 if not p.name.startswith("test_"))
# the names perfbench's traced runs wrap; they go when it reads a trace
PROBED = frozenset({"assemble", "bar_matrix", "interior_laplacian", "cg",
                    "solve_mean_zero"})
# no run needs these; build_integrated imports PCHIP (and so .optimize) itself
LAZY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")


def _unread_imports(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, on a noqa line) for each name a module imports but
    never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = (alias.lineno,
                                  "# noqa: F401" in lines[alias.lineno - 1])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line, noqa) for name, (line, noqa) in sorted(imported.items())
            if name not in used]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, with their line numbers."""
    return [f"{name} (line {line})"
            for name, line, noqa in _unread_imports(source) if not noqa]


def unprobed_keep_alives(source: str) -> list[str]:
    """Unread names kept alive by ``# noqa: F401`` that are not PROBED."""
    return [f"{name} (line {line})"
            for name, line, noqa in _unread_imports(source)
            if noqa and name not in PROBED]


def test_checker_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from typing import Callable  # noqa: F401\n"
              "x = np.zeros(1)\n@dataclass\nclass C:\n    y: int = 0\n")
    assert unused_imports(source) == ["field (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: (p.name if p in MODULES
                                        else f"{p.parent.name}/{p.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_a_sixth_keep_alive():
    source = ("from .assembly import assemble, bar_matrix  # noqa: F401\n"
              "from .assembly import interior_laplacian  # noqa: F401\n"
              "from .solver import cg, solve_mean_zero  # noqa: F401\n"
              "from .solver import solve_spd  # noqa: F401\n"
              "x = assemble\n")
    assert unused_imports(source) == []
    assert unprobed_keep_alives(source) == ["solve_spd (line 4)"]


def test_keep_alives_are_probed_names():
    kept = [f"{path.name}: {name}" for path in MODULES
            for name in unprobed_keep_alives(path.read_text())]
    assert kept == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an
    attribute."""
    return Counter(
        [n.id for n in ast.walk(node)
         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """(label, name, defining node) for each module-level private name, each
    private method and each method of a private class, dunders aside."""
    for stmt in tree.body:
        for name in _defined_names(stmt):
            if _private(name):
                yield name, name, stmt
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("__")
                    and (_private(fn.name) or _private(cls.name))):
                yield f"{cls.name}.{fn.name}", fn.name, fn


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private names of ``sources`` (module name -> source), module-level
    or methods, that nothing in them reads outside the defining
    statement."""
    trees = {module: ast.parse(source)
             for module, source in sorted(sources.items())}
    reads = sum((_read_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{label} (line {node.lineno})"
            for module, tree in trees.items()
            for label, name, node in _private_definitions(tree)
            if reads[name] == _read_names(node)[name]]


def test_checker_flags_dead_private_names():
    sources = {"a": ("_LIMIT = 3\n_unused = 4\n__all__ = []\n"
                     "def _helper(x):\n    return _helper(x - 1)\n"
                     "class _Used:\n    pass\n"),
               "b": "from . import a\nX = a._LIMIT\nY = a._Used()\n"}
    assert dead_private_names(sources) == ["a._unused (line 2)",
                                           "a._helper (line 4)"]


def test_checker_flags_dead_methods():
    """A private method, or a method of a private class, that nothing but
    its own body reads is dead; dunders and public classes' public methods
    are not checked."""
    sources = {"a": ("class _Work:\n"
                     "    def __init__(self):\n        self.n = 0\n"
                     "    def energy(self):\n        return self._scale()\n"
                     "    def _scale(self):\n        return 2.0\n"
                     "    def frozen(self):\n        return self.frozen()\n"
                     "class Public:\n"
                     "    def materialize(self):\n        return 1\n"
                     "    def _dead(self):\n        return 0\n"
                     "def run():\n    return _Work().energy()\n")}
    assert dead_private_names(sources) == ["a._Work.frozen (line 8)",
                                           "a.Public._dead (line 13)"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def _public_definitions(tree: ast.Module):
    """(label, name, defining node) for each module-level public function
    or class and each public method of a public class, dunders aside."""
    for stmt in tree.body:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) and not stmt.name.startswith("_")):
            yield stmt.name, stmt.name, stmt
            for fn in stmt.body if isinstance(stmt, ast.ClassDef) else []:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")):
                    yield f"{stmt.name}.{fn.name}", fn.name, fn


def dead_public_names(sources: dict[str, str], callers: list[str],
                      exempt: frozenset = frozenset()) -> list[str]:
    """Public names of ``sources`` (module name -> source) that nothing in
    them or in ``callers`` (more sources) reads outside the defining
    statement, the ``exempt`` names aside."""
    trees = {module: ast.parse(source)
             for module, source in sorted(sources.items())}
    reads = sum((_read_names(tree) for tree in
                 [*trees.values(), *map(ast.parse, callers)]), Counter())
    return [f"{module}.{label} (line {node.lineno})"
            for module, tree in trees.items()
            for label, name, node in _public_definitions(tree)
            if name not in exempt and reads[name] == _read_names(node)[name]]


def test_checker_flags_dead_public_names():
    """A public function or method read only by itself, or named only in a
    string, is dead; a name read by a caller, or exempt, is not."""
    sources = {"a": ("def used():\n    return Public().run()\n"
                     "def dead(n):\n    return dead(n - 1)\n"
                     "class Public:\n"
                     "    def __init__(self):\n        self.n = 0\n"
                     "    def run(self):\n        return 1\n"
                     "    def unread(self):\n        return self._scale()\n"
                     "    def _scale(self):\n        return 2.0\n"
                     "def probed():\n    return 0\n")}
    callers = ["from a import used\nprint(used())\n", "NAMES = ['dead']\n"]
    assert dead_public_names(sources, callers, frozenset({"probed"})) == [
        "a.dead (line 3)", "a.Public.unread (line 10)"]


def test_no_dead_public_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in CALLERS]
    exempt = PROBED | {"load_profile_table"}     # until a profile option reads it
    assert dead_public_names(sources, callers, exempt) == []


def test_all_matches_the_package_imports():
    """``__all__`` lists exactly the names the package ``__init__`` imports,
    once each, and every one resolves, so ``from nlpoisson import *`` works."""
    import nlpoisson

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = sorted(alias.asname or alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names)
    assert sorted(nlpoisson.__all__) == imported
    assert [n for n in nlpoisson.__all__ if not hasattr(nlpoisson, n)] == []


def lazy_at_module_level(source: str) -> list[str]:
    """The LAZY modules a source imports outside a function body: each
    ``import a.b`` as ``a.b``, each ``from a import b`` as ``a`` and
    ``a.b``."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [node.module] + [f"{node.module}.{alias.name}"
                                      for alias in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(name for name in found
                  if any(name == lazy or name.startswith(lazy + ".")
                         for lazy in LAZY))


def test_checker_flags_module_level_lazy_imports():
    source = ("import scipy.optimize\nfrom scipy import integrate, sparse\n"
              "try:\n    from scipy.interpolate import PchipInterpolator\n"
              "except ImportError:\n    pass\n"
              "from . import interpolate\n"
              "def build():\n    from scipy.interpolate import CubicSpline\n"
              "    return CubicSpline\n")
    assert lazy_at_module_level(source) == [
        "scipy.integrate", "scipy.interpolate",
        "scipy.interpolate.PchipInterpolator", "scipy.optimize"]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.name)
def test_no_lazy_import_at_module_level(path):
    assert lazy_at_module_level(path.read_text()) == []


RUN = f"""
import sys
import nlpoisson.cli
from nlpoisson.harness import run_single
from nlpoisson.kernels import build_integrated, compute_CR, cosine_profile
profile = cosine_profile()
compute_CR(profile, 2), compute_CR(profile, 3)
run_single("hemisphere2", 5, 1)
print(sorted(name for name in {LAZY!r} if name in sys.modules))
import numpy as np
r = np.linspace(0.0, 1.0, 11)
print(build_integrated(r, 1.0 - r).kind)
"""


def test_a_run_loads_no_lazy_module():
    """A fresh interpreter imports the CLI, builds the cosine profile and
    its C_R in both dimensions, and solves one configuration without
    loading any LAZY module; a tabulated profile still builds after."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", RUN], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines() == ["[]", "custom-tabulated"]
