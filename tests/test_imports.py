"""Every import in the package is used, and every private name is read.

The repository runs no linter, so this walks each module's syntax tree.
Package ``__init__`` modules (whose imports are re-exports) and names
imported on a line marked ``# noqa: F401`` are exempt from the import
check.  Such a kept-alive import must be one of the names that
``perfbench/bench.py::_variant_probes`` wraps on ``variants``, so the
exemptions cannot grow beyond them.  A module-level private function,
class or constant (``_name``) must be read somewhere in the package
outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlpoisson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the names perfbench's traced runs wrap; they go when it reads a trace
PROBED = frozenset({"assemble", "bar_matrix", "interior_laplacian", "cg",
                    "solve_mean_zero"})


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def _read_names(node: ast.AST) -> set[str]:
    """Names read under ``node``, as bare names or as attributes."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names of ``sources`` (module name -> source)
    that nothing in them reads outside the defining statement."""
    statements = [(module, stmt) for module, source in sorted(sources.items())
                  for stmt in ast.parse(source).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    dead = []
    for k, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in r for j, r in enumerate(reads) if j != k):
                dead.append(f"{module}.{name} (line {stmt.lineno})")
    return dead


def test_checker_flags_dead_private_names():
    sources = {"a": ("_LIMIT = 3\n_unused = 4\n__all__ = []\n"
                     "def _helper(x):\n    return _helper(x - 1)\n"
                     "class _Used:\n    pass\n"),
               "b": "from . import a\nX = a._LIMIT\nY = a._Used()\n"}
    assert dead_private_names(sources) == ["a._unused (line 2)",
                                           "a._helper (line 4)"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []
