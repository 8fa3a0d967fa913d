"""Source hygiene: every name a library module imports is used in it, and
every private module-level name of the package is read somewhere in it."""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import run_fresh

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "argent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (``__future__`` aside) that no
    expression in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_sees_unused_and_used_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(a)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module._name`` for each module-level function, class or constant
    whose name starts with one underscore (dunders aside) and that nothing
    in `sources` outside its own definition reads: by name, as an
    attribute, or in a ``from`` import.  A helper that only calls itself
    has no reader."""
    defined = []
    readers: dict[str, set] = {}
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            defined += [(module, i, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    read = [sub.attr]
                elif isinstance(sub, ast.ImportFrom):
                    read = [a.name for a in sub.names]
                else:
                    read = []
                for name in read:
                    readers.setdefault(name, set()).add((module, i))
    return [f"{module}.{name}" for module, i, name in defined
            if not readers.get(name, set()) - {(module, i)}]


def test_scan_sees_dead_and_read_private_names():
    sources = {
        "a": "_LIMIT = 3\n_x, _y = 1, 2\n_z: int = 0\n__all__ = []\n"
             "def _used(): return _LIMIT\nclass _Dead: pass\ndef _stub(): pass\n"
             "def _loop(n): return _loop(n - 1)\n",
        "b": "from .a import _used\nimport a\n_used(a._y)\n",
    }
    assert dead_private_names(sources) == ["a._x", "a._z", "a._Dead", "a._stub", "a._loop"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def traced_names() -> list[tuple[str, str]]:
    """The ``(module, function)`` pairs of ``TRACED`` in the benchmark's
    layer tracer, read from its source without importing it."""
    source = (PACKAGE.parents[1] / "argbench" / "layers.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED tuple in argbench/layers.py")


def test_traced_names_resolve():
    # the traced run patches each pair by name, so each must stay defined
    pairs = traced_names()
    assert pairs
    for module, function in pairs:
        assert callable(getattr(importlib.import_module(f"argent.{module}"), function, None)), (
            f"argent.{module}.{function}"
        )


def test_cli_import_loads_every_traced_layer():
    # the traced run looks each layer up in sys.modules after importing only
    # `argent` and `argent.cli`, and reads `argent.kernels.BACKEND`
    loaded = run_fresh("import argent, argent.cli\nprint(json.dumps(loaded()))")
    wanted = {f"argent.{module}" for module, _ in traced_names()} | {"argent.kernels"}
    assert wanted <= set(loaded)
