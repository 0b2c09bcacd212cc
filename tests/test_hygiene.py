"""Source hygiene: no module imports a name it never uses, and no private
module-level name of the package goes unread.  A removal leaves such names
behind, and no linter runs over this tree."""

import ast

import pytest

from conftest import ROOT

# `__init__.py` imports are the package's public API, not uses.
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "protolab", ROOT / "tests", ROOT / "perfbench")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(full for name, full in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import os\nimport a.b\nfrom x import y, z as w\nfrom __future__ import annotations\n"
    assert unused_imports(source + "a.b.c(y)\n") == ["os", "x.z"]


# ── private helpers ──────────────────────────────────────────────────────────

SOURCES = sorted((ROOT / "src" / "protolab").glob("*.py"))


def _defines(stmt) -> list[str]:
    """The module-level names a top-level statement binds by def, class or
    assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level name starting with `_` (dunders
    aside) that no top-level statement of any module reads, by name or as an
    attribute, other than the statement that defines it."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defines(stmt)
            defined += [
                (module, name)
                for name in own
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_helper_is_used_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert orphaned_private_names(sources) == []


def test_an_orphaned_private_helper_is_reported():
    sources = {
        "a": (
            "__all__ = ['public']\n"
            "_TABLE = (1,)\n"
            "def _used(): return _TABLE\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _by_attribute(): pass\n"
            "def _orphan(): pass\n"
            "def public(): return _used()\n"
        ),
        "b": "import a\na._by_attribute()\n",
    }
    assert orphaned_private_names(sources) == ["a._recursive", "a._orphan"]
