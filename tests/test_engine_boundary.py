"""The package is the engine only: standard library imports, no oracles.

The brute-force oracles live in `tests/oracles.py`.  A prediction checked
against an oracle the engine could import, or redefine, would no longer be
an independent check, so this reads every module under `src/zdgraph` and
rejects both.

It also rejects import cycles among the package's modules, counting the
imports inside functions, which Python resolves only when they run.

Last, it keeps the graph engine and the topology layer apart.  `graphs`
supplies the oracles (class BFS, path searches, exact domination) and
`spectrum` the predictions (closures and kernels over Min(R)); a
prediction that reused an oracle's code would no longer check it.  So
neither module imports the other, inside a function or not, and the
arithmetic they share comes from `rings`.
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

# The one import allowed to close a cycle.  `rings.build_ring` is the single
# place the factor cap is checked for every kind of ring spec, tables
# included, and table decomposition builds a `Ring`; so `build_ring` imports
# `tables` inside the function, after both modules have loaded.
CYCLE_EXCEPTIONS = frozenset({("rings", "tables")})


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


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a file imports, at module level or inside functions."""
    names = {path.stem for path in MODULES}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "zdgraph":
                    continue
                parts = parts[1:] or [""]
            # `from . import x` and `from zdgraph import x` may name modules
            out |= {parts[0]} if parts[0] else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("zdgraph.")}
    return out & names


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the directed graph as a closed walk of its nodes, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node) :] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if cycle := visit(nxt):
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        if cycle := visit(start):
            return cycle
    return None


def _import_graph() -> dict[str, set[str]]:
    return {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}


def test_function_local_imports_count():
    source = "def f():\n    from .tables import x\n    from . import spectrum\n    import zdgraph.graphs\n"
    assert _package_imports(ast.parse(source)) == {"tables", "spectrum", "graphs"}
    source = "from zdgraph import cli\nfrom zdgraph.verify import x\nimport json\n"
    assert _package_imports(ast.parse(source)) == {"cli", "verify"}


def test_cycle_finder():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_no_import_cycle_among_package_modules():
    graph = _import_graph()
    for a, b in CYCLE_EXCEPTIONS:
        assert b in graph[a], f"{a} no longer imports {b}; drop the exception"
        graph[a].discard(b)
    assert _find_cycle(graph) is None


def test_graphs_and_spectrum_share_only_rings():
    graph = _import_graph()
    assert "spectrum" not in graph["graphs"]
    assert "graphs" not in graph["spectrum"]
    assert "rings" in graph["graphs"] & graph["spectrum"]
