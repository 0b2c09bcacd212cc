"""Source hygiene: no module imports a name it never uses.  A removal leaves
such imports behind, and no linter runs over this tree."""

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
