"""Every imported name is read somewhere in the module that imports it, and
nothing in the package exists only for its tests.

A stdlib ``ast`` check over the package and the tests: no linter is a
dependency. ``from __future__`` imports and the package ``__init__`` (whose
imports exist for their side effects) are skipped by the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rangerefine").glob("*.py"))
MODULES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_import_check_flags_an_unread_name():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d\nimport e.f\nd(e.f)\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def name_reads(tree: ast.AST) -> Counter:
    """How often a tree reads each name: as a Name load, an attribute or an imported name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads.update(node.name.split("."))
    return reads


def module_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, defining statement) of each module-level function, class and
    assigned name, dunders excepted."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, node) for name, node in defs if not (name.startswith("__") and name.endswith("__"))]


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """``<module>: <name>`` for each module-level definition in ``package``
    (module name -> source) that neither the package nor ``readers`` reads
    outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        reads += name_reads(tree)
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in module_definitions(tree)
        if reads[name] == name_reads(node)[name]
    ]


def test_unread_definition_check_flags_a_dead_name():
    package = {
        "a.py": "X = 1\nY: int = 2\nZ = 3\n__all__ = []\n"
                "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n\ndef g():\n    return X\n",
        "b.py": "from a import g\nfrom a import C as D\n",
    }
    assert unread_definitions(package, ["import a\na.Y\n"]) == ["a.py: Z", "a.py: f"]
    assert unread_definitions(package, ["import a\na.Y, a.Z, a.f\n"]) == []


def test_every_package_definition_is_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unread_definitions(package, readers) == []
