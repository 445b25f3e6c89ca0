"""The array transport stays behind the runtime.

Solvers hand plain ndarrays to ``Executor.map``; only the persistent
backend knows that they travel as out-of-band pickle buffers. These checks
read the source with :mod:`ast`, so they hold for every code path, run or
not.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Transport modules the solver packages must not import.
TRANSPORT_MODULES = ("repro.runtime.persistent",)

#: Transport names the solver packages must not mention.
TRANSPORT_NAMES = ("supports_shared_state", "base_executor")


def _modules(tree: ast.AST) -> set[str]:
    """Every module a file imports, and every ``from`` import spelled as
    ``module.name`` (``from repro.runtime import persistent`` imports
    ``repro.runtime.persistent``)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a file binds, loads, imports or reads as an
    attribute."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name.rpartition(".")[2])
    return found


def _sources(package: str) -> list[Path]:
    return sorted((SRC / package).rglob("*.py"))


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@pytest.mark.parametrize("package", ["jacobi", "core"])
def test_solvers_never_touch_the_transport(package):
    offenders = []
    for path in _sources(package):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(SRC)
        offenders += [
            f"{rel}: imports {m}"
            for m in sorted(_modules(tree))
            if _under(m, TRANSPORT_MODULES)
        ]
        offenders += [
            f"{rel}: names {n}"
            for n in sorted(_names(tree) & set(TRANSPORT_NAMES))
        ]
    assert offenders == []


def test_runtime_never_imports_the_solvers():
    offenders = [
        f"{path.relative_to(SRC)}: imports {m}"
        for path in _sources("runtime")
        for m in sorted(_modules(ast.parse(path.read_text())))
        if _under(m, ("repro.jacobi",))
    ]
    assert offenders == []
