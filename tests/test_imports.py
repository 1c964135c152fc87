"""Every import in the package, the tests and the demos is used, every
private name of the package is read, and the package exports what it
imports.

The repository runs no linter, so this walks each module's syntax tree.
Package ``__init__`` modules (whose imports are re-exports) and names
imported on a line marked ``# noqa: F401`` are exempt from the import
check.  Such a kept-alive import must be one of the names that
``perfbench/bench.py::_variant_probes`` wraps on ``variants``, so the
exemptions cannot grow beyond them.  A module-level private function,
class or constant (``_name``), a private method and any method of a
private class (dunders aside) must be read somewhere in the package
outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlpoisson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the tests and demos are held to the import check too
SCRIPTS = sorted(p for folder in ("tests", "demos")
                 for p in (PACKAGE.parents[1] / folder).glob("*.py"))
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
