"""Every imported name is read somewhere in the module that imports it, and
nothing in the package exists only for its tests: no module-level name, no
record field and no method.

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


def class_fields(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, annotated statement) of each annotated field of each class."""
    return [
        (node.target.id, node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def attribute_reads(tree: ast.AST) -> Counter:
    """How often a tree reads each attribute name (an attribute load)."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def unread(package: dict[str, str], readers: list[str], definitions, reads) -> list[str]:
    """``<module>: <name>`` for each of ``definitions(tree)`` in ``package``
    (module name -> source) that ``reads`` finds nowhere in the package and
    ``readers`` outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        total += reads(tree)
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in definitions(tree)
        if total[name] == reads(node)[name]
    ]


def class_methods(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, def) of each method defined in a class body, dunders excepted.
    A class with a base class is skipped: its base may call what it overrides."""
    return [
        (node.name, node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and not cls.bases
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """Module-level definitions that neither the package nor ``readers`` reads."""
    return unread(package, readers, module_definitions, name_reads)


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Class fields that neither the package nor ``readers`` reads as an
    attribute: a record field that only its tests read."""
    return unread(package, readers, class_fields, attribute_reads)


def unread_methods(package: dict[str, str], readers: list[str]) -> list[str]:
    """Methods that neither the package nor ``readers`` reads as an attribute
    outside their own body: a method that only its tests call."""
    return unread(package, readers, class_methods, attribute_reads)


def test_unread_definition_check_flags_a_dead_name():
    package = {
        "a.py": "X = 1\nY: int = 2\nZ = 3\n__all__ = []\n"
                "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n\ndef g():\n    return X\n",
        "b.py": "from a import g\nfrom a import C as D\n",
    }
    assert unread_definitions(package, ["import a\na.Y\n"]) == ["a.py: Z", "a.py: f"]
    assert unread_definitions(package, ["import a\na.Y, a.Z, a.f\n"]) == []


def test_unread_field_check_flags_a_dead_field():
    package = {
        "a.py": "class R:\n    x: int\n    y: int = 0\n    z: int = 0\n    w = 0\n\n"
                "    def set(self):\n        self.x = self.y\n        self.z += 1\n",
    }
    # stores and a plain class attribute are not reads, nor is a local name
    assert unread_fields(package, ["x = 1\n"]) == ["a.py: x", "a.py: z"]
    assert unread_fields(package, ["def f(r):\n    return r.x + r.z\n"]) == []


def test_unread_method_check_flags_a_dead_method():
    package = {
        "a.py": "class M:\n    def __init__(self):\n        self.run()\n\n"
                "    def run(self):\n        return self.step\n\n"
                "    @property\n    def step(self):\n        return 1\n\n"
                "    def walk(self, n):\n        return self.walk(n - 1)\n\n"
                "    def idle(self):\n        pass\n\n"
                "class P(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n",
    }
    # a read inside the method's own body does not count, nor does a local name;
    # an override is read by its base class
    assert unread_methods(package, ["idle = 1\n"]) == ["a.py: walk", "a.py: idle"]
    assert unread_methods(package, ["def f(m):\n    return m.walk(1), m.idle()\n"]) == []


def package_and_readers() -> tuple[dict[str, str], list[str]]:
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return package, readers


def test_every_package_definition_is_read():
    assert unread_definitions(*package_and_readers()) == []


def test_every_record_field_is_read():
    # RangeImage.is_foreground, UncertainPointSet.reason and
    # UncertainPointSet.coarse_label pass only because perfbench's tracer
    # reads them: once it stops, this check flags each of them
    assert unread_fields(*package_and_readers()) == []


def test_every_method_is_read():
    assert unread_methods(*package_and_readers()) == []
