"""The package is the engine only: standard library imports, no oracles.

The brute-force oracles live in `tests/oracles.py`.  A prediction checked
against an oracle the engine could import, or redefine, would no longer be
an independent check, so this reads every module under `src/zdgraph` and
rejects both.
"""

import ast
import sys
from pathlib import Path

import pytest

import oracles

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zdgraph"
MODULES = sorted(PACKAGE.glob("*.py"))
ORACLE_NAMES = frozenset(
    {
        "ExplicitGraph",
        "TableOracle",
        "ag_from_ideal_products",
        "exhaustive_domination",
        "gamma_from_multiplication",
        "materialize",
    }
)
ORACLE_PREFIXES = ("bfs_", "scan_", "cycle_through_pair_")


def _is_oracle_name(name: str) -> bool:
    return name in ORACLE_NAMES or name.startswith(ORACLE_PREFIXES)


def _import_paths(tree: ast.Module) -> list[str]:
    """The dotted path of everything a file imports; relative paths keep their dots."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out += [f"{base}.{alias.name}" for alias in node.names]
    return out


def _bound_names(tree: ast.Module) -> list[str]:
    """Every name a file defines, and the last part of every path it imports."""
    out = [path.rsplit(".", 1)[-1] for path in _import_paths(tree)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node.id)
    return out


def test_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert "explicit" not in {path.stem for path in MODULES}


def test_oracle_names_are_defined_in_the_oracle_module():
    defined = {name for name in vars(oracles) if _is_oracle_name(name)}
    assert ORACLE_NAMES <= defined
    assert all(any(name.startswith(p) for name in defined) for p in ORACLE_PREFIXES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_standard_library_or_zdgraph(path):
    for imported in _import_paths(ast.parse(path.read_text(encoding="utf-8"))):
        top = "zdgraph" if imported.startswith(".") else imported.split(".")[0]
        assert top == "zdgraph" or top in sys.stdlib_module_names, f"{path.name} imports {imported}"
        assert "explicit" not in imported.split("."), f"{path.name} imports {imported}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_oracle_is_defined_or_imported(path):
    names = _bound_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted({name for name in names if _is_oracle_name(name)}) == []
