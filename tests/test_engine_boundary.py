"""The package is the engine only: standard library imports, no oracles.

The brute-force oracles live in `tests/oracles.py`.  A prediction checked
against an oracle the engine could import, or redefine, would no longer be
an independent check, so this reads every module under `src/zdgraph` and
rejects both.

It also rejects import cycles among the package's modules, counting the
imports inside functions, which Python resolves only when they run.

It keeps the graph engine and the topology layer apart.  `graphs`
supplies the oracles (class BFS, path searches, exact domination) and
`spectrum` the predictions (closures and kernels over Min(R)); a
prediction that reused an oracle's code would no longer check it.  So
neither module imports the other, inside a function or not, and the
arithmetic they share comes from `rings`.

Last, it keeps the public surface to what something reaches.  Every
function and class that `zdgraph` exports, and every public method and
property of such a class, is used by the package's own code, imported by
the acceptance tests, or shown in the README's Library section; a name
that none of them reaches is dead code with a test keeping it alive.

And it keeps one source of randomness.  Reports must be byte-identical for
a seed, so the package reaches the `random` module only as one
`random.Random(key)` in `verify._draw`, which every sampler calls; an
unseeded draw or a second draw path would fail here.

And no file under `src/zdgraph` or `tests` imports a name it never reads,
apart from the package's `__init__.py`, whose imports are its exports.

Last of all, it keeps each command to the modules it runs.  `import zdgraph`
loads no engine module, and a fresh interpreter running one command holds
only the modules that command needs.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import oracles
import zdgraph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zdgraph"
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


def _used_names(tree: ast.AST) -> set[str]:
    """The names a file reads, as a plain name or as an attribute; definitions and imports do not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _library_section_names() -> set[str]:
    """Every identifier in the code of the README's Library section: fenced blocks and `spans`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`\n]+`", section, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zdgraph"
        for alias in node.names
    }


def test_used_names_skip_definitions_and_imports():
    source = "from .rings import a\ndef b(): pass\nclass C: pass\nd = 1\nd.e(f)\n"
    assert _used_names(ast.parse(source)) == {"d", "e", "f"}


def _reached_names() -> set[str]:
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    return used | _acceptance_imports() | _library_section_names()


def _exported(kind) -> list[str]:
    return [name for name in zdgraph.__all__ if kind(getattr(zdgraph, name))]


def test_every_export_is_reached():
    exported = _exported(inspect.isfunction) + _exported(inspect.isclass)
    assert len(exported) > 50
    assert sorted(set(exported) - _reached_names()) == []


def test_every_public_method_of_an_exported_class_is_reached():
    # the same rule one level down: methods and properties, by name
    reached = _reached_names()
    members = [
        f"{cls}.{attr}"
        for cls in _exported(inspect.isclass)
        for attr, value in vars(getattr(zdgraph, cls)).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
    ]
    assert "Ring.mul" in members and "Element.support_mask" in members
    assert sorted(m for m in members if m.split(".")[1] not in reached) == []


def _random_uses(tree: ast.Module) -> list[str]:
    """Each import of `random` and each use of the name, with the function it is in.

    A call `random.Random(x)` with one argument and no keywords counts as
    one use, "random.Random(key)"; any other `random` name is a bare use.
    """
    out: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        children = ast.iter_child_nodes(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    renamed = f" as {alias.asname}" if alias.asname else ""
                    out.append(f"import {alias.name}{renamed} in {scope}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random" and not node.level:
            out.append(f"from {node.module} import in {scope}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) == ("random", "Random")
            and len(node.args) == 1
            and not node.keywords
        ):
            out.append(f"random.Random(key) in {scope}")
            children = node.args
        elif isinstance(node, ast.Name) and node.id == "random":
            out.append(f"random in {scope}")
        for child in children:
            visit(child, scope)

    visit(tree, "<module>")
    return out


def test_random_uses_finder():
    source = (
        "import random\nimport random as r\nfrom random import choice\n"
        "def f(k):\n    return random.Random(k), random.Random(), random.sample(k, 2)\n"
    )
    assert _random_uses(ast.parse(source)) == [
        "import random in <module>",
        "import random as r in <module>",
        "from random import in <module>",
        "random.Random(key) in f",
        "random in f",
        "random in f",
    ]


def test_randomness_is_one_seeded_generator_in_draw():
    uses = {path.name: _random_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}
    assert {name: found for name, found in uses.items() if found} == {
        "verify.py": ["import random in <module>", "random.Random(key) in _draw"]
    }


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a file imports and never reads; `from __future__` imports do not count."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unused_imports_finder():
    source = "from __future__ import annotations\nimport os.path\nimport a as b\nfrom .c import d, e\nos.sep\nd()\n"
    assert _unused_imports(ast.parse(source)) == ["b", "e"]


def test_every_import_is_read():
    files = [p for p in MODULES if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in files}
    assert {name: names for name, names in unused.items() if names} == {}


# `zdgraph.__all__` before the package became lazy, less its submodule names
EXPORTS = [
    "AG", "ALL_SUITES", "BourbakiSet", "CheckRecord", "DecompositionMismatch", "Disconnected",
    "DominationResult", "Element", "EmptyGraph", "FactorNotField", "FactorNotPrimeField", "GAMMA",
    "GirthResult", "GraphView", "Ideal", "Infinite", "InputFormatError", "InternalInconsistency",
    "MinPrime", "NoAnnihilatingIdeals", "NotAdditiveGroup", "NotCommutative", "NotReduced",
    "NotSquarefree", "NotUnital", "PlaceStatus", "PrimeFactors", "Registry", "RegistryEntry",
    "RetractReport", "Ring", "RingConstructionError", "SquarefreeModulus", "TableRing",
    "TooManyElements", "TooManyFactors", "Verdict", "VerificationReport", "Vertex",
    "ZdgraphError", "annihilating_ideals", "annihilator_element", "bourbaki_primes", "build_ag",
    "build_gamma", "build_ring", "class_eccentricity", "cozero_set", "degree", "diameter",
    "distance", "domination", "eccentricity", "enumerate_ideals", "factor_squarefree",
    "fixed_place_status", "gamma_vertex", "girth_through", "ideal_product",
    "interior", "is_pendant", "is_triangle_vertex", "is_triangulated", "kernel", "load_registry",
    "load_table_file", "maximal_annihilating", "min_primes", "orthogonal", "prime_annihilating",
    "product_tables", "radius", "retract_check", "run_verification", "sz_closure", "table_from_json",
    "table_to_json", "vertex_element", "vertex_label", "zero_set", "zn_tables",
]


def _modules_after(code: str) -> set[str]:
    """The package modules a fresh interpreter holds after running `code`, without the prefix."""
    script = f"import sys\n{code}\nprint()\nprint(*sorted(m for m in sys.modules if m.startswith('zdgraph')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return {m.removeprefix("zdgraph").lstrip(".") or "zdgraph" for m in done.stdout.splitlines()[-1].split()}


def _modules_after_command(*argv: str) -> set[str]:
    return _modules_after(f"from zdgraph.cli import main\nassert main({list(argv)!r}) == 0")


def test_no_module_loads_dataclasses_or_inspect():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, and execs
    # generated code for each class: about 20 ms of every command's start-up.
    # Modules `site` loaded before the script starts do not count.  `verify`
    # also reads the bundled registry, which through `importlib.resources`
    # would load `inspect` from Python 3.12 on
    modules = ", ".join(f"zdgraph.{path.stem}" for path in MODULES if path.stem != "__init__")
    script = (
        f"import sys\nbefore = set(sys.modules)\nimport {modules}\n"
        "assert zdgraph.cli.main(['verify', '--zn', '30', '--quiet']) == 0\n"
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == []


def test_bundled_registry_loads_from_a_zipped_package(tmp_path):
    archive = tmp_path / "zdgraph.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(PACKAGE.rglob("*")):
            if path.suffix in (".py", ".json"):
                zf.write(path, path.relative_to(PACKAGE.parent).as_posix())
    script = "import zdgraph\nprint(zdgraph.__file__)\nprint(len(zdgraph.load_registry().entries))"
    env = dict(os.environ, PYTHONPATH=str(archive))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    origin, entries = done.stdout.split()
    assert Path(origin).is_relative_to(archive)
    assert int(entries) == len(zdgraph.load_registry().entries) > 0


def test_import_loads_no_engine_module():
    assert _modules_after("import zdgraph") == {"zdgraph", "version"}


def test_inspect_loads_only_what_it_runs():
    loaded = _modules_after_command("inspect", "--zn", "30", "--json")
    assert loaded <= {"zdgraph", "cli", "errors", "rings", "graphs", "spectrum", "exports", "version"}


def test_verify_loads_neither_tables_nor_corpus():
    loaded = _modules_after_command("verify", "--zn", "30", "--quiet")
    assert {"verify", "edge_cases"} <= loaded
    assert not {"tables", "corpus"} & loaded


def test_verify_on_a_table_loads_tables(tmp_path):
    from zdgraph.tables import table_to_json, zn_tables

    path = tmp_path / "z6.json"
    path.write_text(json.dumps(table_to_json(zn_tables(6))))
    assert "tables" in _modules_after_command("verify", "--table", str(path), "--quiet")


def test_every_export_resolves_lazily():
    assert zdgraph.__all__ == sorted(EXPORTS)
    assert dir(zdgraph) == sorted(EXPORTS)
    assert all(getattr(zdgraph, name) is not None for name in EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        zdgraph.no_such_name
