"""Source hygiene: no module imports a name it never uses, no private
module-level name of the package goes unread, and every dotted name the
README gives is in the package.  A removal or a rename leaves such names
behind, and no linter runs over this tree.  Some concerns have one place
in the source, which these checks hold them to: reading an int from text,
echoing input in a diagnostic, the safety checks, and the protocol
variants.  And no module imports `dataclasses`, whose generated methods
every launch would pay for."""

import ast
import re
import subprocess
import sys

import pytest

from conftest import ROOT

# `__init__.py` imports are the package's public API, not uses.
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "protolab", ROOT / "tests", ROOT / "perfbench", ROOT / "tools")
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


# ── module state ─────────────────────────────────────────────────────────────


def global_statements(sources: dict[str, str]) -> list[str]:
    """`module.name` for each name a `global` statement declares, at any
    depth of any module."""
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


def test_no_module_keeps_state_between_calls():
    # a call that rebinds a module's name leaves state for the next call to
    # read, so its result could depend on what ran before it; the program's
    # values carry all a call reads
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert global_statements(sources) == []


def test_a_global_statement_is_reported():
    sources = {
        "a": (
            "_memo = None\n"
            "_TABLE = {}\n"
            "def remember(x):\n"
            "    global _memo\n"
            "    _memo = x\n"
            "def fill(x): _TABLE[x] = x\n"
        ),
        "b": (
            "class C:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            global _a, _b\n"
            "        n = 0\n"
            "        def counter():\n"
            "            nonlocal n\n"
        ),
    }
    assert global_statements(sources) == ["a._memo", "b._a", "b._b"]


# ── import cycles ────────────────────────────────────────────────────────────


def modules_on_import_cycles(sources: dict[str, str]) -> list[str]:
    """The modules from which a chain of the package's relative imports
    (`from .x import`, at any depth, so deferred imports too) leads back to
    the module itself."""
    imports: dict[str, set] = {module: set() for module in sources}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                imports[module].update(t.partition(".")[0] for t in targets)

    def reached(module):
        seen, todo = set(), list(imports[module])
        while todo:
            target = todo.pop()
            if target not in seen:
                seen.add(target)
                todo.extend(imports.get(target, ()))
        return seen

    return sorted(module for module in sources if module in reached(module))


def test_the_package_imports_form_no_cycle():
    # each module builds only on the modules below it, so a module can be
    # read, and imported, without the ones that build on it
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert modules_on_import_cycles(sources) == []


def test_an_import_cycle_is_reported():
    sources = {
        "a": "from .b import f\n",
        "b": "def f():\n    from .c import g\n    return g()\n",
        "c": "from .a.inner import h\nfrom .d import k\n",
        "d": "from . import e\nimport a\nfrom a import x\nfrom ..a import y\n",
        "e": "",
    }
    assert modules_on_import_cycles(sources) == ["a", "b", "c"]


# ── integer readers ──────────────────────────────────────────────────────────


def int_readers(sources: dict[str, str]) -> list[str]:
    """`module.function` for each place that turns text into an int: a call
    of `int`, or `int` handed to a call as a converter (`type=int`,
    `map(int, ...)`), `isinstance` and `issubclass` aside.  `function` is
    the innermost def around it, `<module>` at the top level."""
    found = []

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not (
                isinstance(child.func, ast.Name) and child.func.id in ("isinstance", "issubclass")
            ):
                handed = [child.func, *child.args, *(k.value for k in child.keywords)]
                if any(isinstance(n, ast.Name) and n.id == "int" for n in handed):
                    found.append(f"{module}.{where}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return found


def test_one_function_reads_an_int_from_text():
    # `int` reads `+14`, `1_4`, `014` and `١٤` alike; every count of a
    # scenario, a trace and the command line goes through `model.count`,
    # which takes only the spelling that `str` writes
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert int_readers(sources) == ["model.count"]


def test_an_int_reader_is_reported():
    sources = {
        "a": "def count(text):\n    return int(text)\nTOP = int('1')\n",
        "b": (
            "class P:\n"
            "    def build(self, p):\n"
            "        p.add_argument('--n', type=int)\n"
            "        return list(map(int, ['1'])) if isinstance(p, int) else None\n"
            "    def typed(self, x: int) -> int:\n"
            "        return x\n"
        ),
    }
    assert int_readers(sources) == ["a.count", "a.<module>", "b.build", "b.build"]


# ── echoed input ─────────────────────────────────────────────────────────────

# the errors whose messages echo scenario and trace text to the user
INPUT_ERRORS = ("ScenarioError", "TraceError")


def repr_echoes(sources: dict[str, str]) -> list[str]:
    """`module.function` for each raise of an input error whose message
    formats a value with `!r` or `repr`.  `function` is the innermost def
    around it, `<module>` at the top level."""
    found = []

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) in INPUT_ERRORS
                and any(
                    (isinstance(n, ast.FormattedValue) and n.conversion == ord("r"))
                    or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "repr")
                    for n in ast.walk(child.exc)
                )
            ):
                found.append(f"{module}.{where}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return found


def test_one_rule_echoes_input():
    # `repr` echoes a 5,000-character value whole; every diagnostic goes
    # through `model.shown`, which cuts a value past 40 characters to its
    # first 20 and its length
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert repr_echoes(sources) == []


def test_a_repr_echo_is_reported():
    sources = {
        "a": (
            "def check(value):\n"
            "    if value:\n"
            "        raise TraceError(f'bad {value!r}')\n"
            "    raise TraceError(f'bad {shown(value)}')\n"
            "raise ScenarioError('bad ' + repr(1))\n"
        ),
        "b": "def f(x):\n    raise ValueError(f'{x!r}')\n",
    }
    assert repr_echoes(sources) == ["a.check", "a.<module>"]


# ── safety checks ────────────────────────────────────────────────────────────

# the transition invariant and the incremental state checks: `Audit` calls them
SAFETY_CHECKS = ("dyn_inv", "_reused", "_justify", "_unread")


def safety_check_callers(sources: dict[str, str]) -> list[str]:
    """`module.function` for each call of a safety check, by name or as an
    attribute, outside `invariants`.  `function` is the innermost def around
    it, `<module>` at the top level."""
    found = []

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SAFETY_CHECKS:
                    found.append(f"{module}.{where}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(module, child, inner)

    for module, source in sources.items():
        if module != "invariants":
            visit(module, ast.parse(source), "<module>")
    return found


def test_safety_is_checked_in_one_place():
    # a run's suite and the search both step an `invariants.Audit`, which
    # alone checks the transition invariant and what each state adds
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert safety_check_callers(sources) == []


def test_a_safety_check_outside_the_audit_is_reported():
    sources = {
        "invariants": "def dyn_inv(a, b):\n    return a\ndef audit(a):\n    return dyn_inv(a, a)\n",
        "a": (
            "from .invariants import dyn_inv\n"
            "from . import invariants\n"
            "class S:\n"
            "    def safety(self, a, b):\n"
            "        return dyn_inv(a, b)\n"
            "invariants._justify({}, ())\n"
            "check = dyn_inv\n"
        ),
        "b": "def f(x):\n    return x._unread() or x._reused_nonces()\n",
    }
    assert safety_check_callers(sources) == ["a.safety", "a.<module>", "b.f"]


# ── protocol variants ────────────────────────────────────────────────────────


def variant_comparisons(sources: dict[str, str]) -> list[str]:
    """`module.scope` for each comparison with a variant among its operands:
    a `.variant` attribute, a name `variant` or a member `Variant.X`.
    `scope` is the dotted path of the classes and defs around it,
    `<module>` at the top level."""
    found = []

    def is_variant(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "variant" or (
                isinstance(node.value, ast.Name) and node.value.id == "Variant"
            )
        return isinstance(node, ast.Name) and node.id == "variant"

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                is_variant(operand) for operand in (child.left, *child.comparators)
            ):
                found.append(f"{module}.{'.'.join(where) or '<module>'}")
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(module, child, where + [child.name] if scoped else where)

    for module, source in sources.items():
        visit(module, ast.parse(source), [])
    return found


def test_only_the_program_lookup_compares_variants():
    # NSL is NS with message 2 changed, and the programs hold that change:
    # a machine looks its program up by its variant, so nothing compares
    # one; the scenario reader checks the text it read, not a variant
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert variant_comparisons(sources) == []


def test_a_variant_comparison_is_reported():
    sources = {
        "a": (
            "class RoleMachine:\n"
            "    def statements(self):\n"
            "        return 1 if self.variant is _NS else 2\n"
            "def guard(machine, bound):\n"
            "    return machine.variant is Variant.NSL and bound['claim'] != machine.peer\n"
            "def build(variant):\n"
            "    if variant == 'ns':\n"
            "        return [Variant.NS != m.kind for m in ()]\n"
            "def render(machine):\n"
            "    return f'{machine.variant._value_}', Variant(machine.variant)\n"
        ),
        "b": "class C:\n    def pick(self):\n        return self.variant in (1, 2)\nX = Variant.NS == 1\n",
    }
    assert variant_comparisons(sources) == [
        "a.RoleMachine.statements", "a.guard", "a.build", "a.build", "b.C.pick", "b.<module>",
    ]


# ── launch cost ──────────────────────────────────────────────────────────────


def importers(sources: dict[str, str], package: str) -> list[str]:
    """The modules that import `package` or one of its submodules, at any
    depth."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == package for name in names):
                found.append(module)
                break
    return found


def test_no_module_imports_dataclasses():
    # a dataclass writes and executes the source of its methods when its
    # module is imported, which every command line pays; the package's
    # records are NamedTuples or written-out classes
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert importers(sources, "dataclasses") == []


def test_a_dataclasses_import_is_reported():
    sources = {
        "a": "from dataclasses import dataclass\n",
        "b": "def f():\n    import dataclasses.x as d\n    return d\n",
        "c": "from .dataclasses import x\nimport dataclassy\nfrom typing import NamedTuple\n",
    }
    assert importers(sources, "dataclasses") == ["a", "b"]


def test_a_launch_loads_neither_dataclasses_nor_inspect():
    # `inspect` comes in with `dataclasses`, and with it `ast`, `dis` and
    # `tokenize`; without site-packages, so only the package's own imports count
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import protolab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


# ── names the README gives ───────────────────────────────────────────────────


def _members(body) -> dict:
    """The names a module or class body binds, each mapped to the names its
    class binds (its methods, fields and the `self.` attributes its methods
    set), or to nothing."""
    found = {}
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            members = _members(stmt.body)
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    members.setdefault(node.attr, {})
            found[stmt.name] = members
        else:
            found.update((name, {}) for name in _defines(stmt))
    return found


def unresolved_readme_names(readme: str, sources: dict[str, str]) -> list[str]:
    """Each backticked dotted name of `readme` (`invariants.Audit`,
    `TraceRun.advance`) that names no module of `sources`, or no name one
    defines at its top level, followed by the members it names; `protolab.`
    may lead."""
    modules = {module: _members(ast.parse(source).body) for module, source in sources.items()}
    scope = {name: members for found in modules.values() for name, members in found.items()}
    scope.update(modules)
    missing = []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme):
        parts = dotted.split(".")
        names = scope
        for part in parts[1:] if parts[0] == "protolab" else parts:
            if part not in names:
                missing.append(dotted)
                break
            names = names[part]
    return list(dict.fromkeys(missing))


def test_every_name_the_readme_gives_is_in_the_package():
    # a rename or a removal leaves the README naming what is gone
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unresolved_readme_names(readme, sources) == []


def test_a_name_the_package_lacks_is_reported():
    sources = {
        "a": (
            "class Audit:\n"
            "    size = 0\n"
            "    def __init__(self):\n"
            "        self.facts = {}\n"
            "    def step(self, state):\n"
            "        pass\n"
            "def helper():\n"
            "    pass\n"
        ),
        "b": "from .a import Audit\nTABLE = {}\n",
    }
    readme = (
        "`a.Audit.step`, `Audit.facts`, `Audit.size`, `protolab.b`, `b.TABLE`, `a.helper`,"
        " `scenarios/x.scn`, `a.Audit.after`, `Audit.after`, `b.Audit`, `c.helper`,"
        " `Audit.step.x`, `a.Audit.after`, `lowe-on-ns.trc`\n"
    )
    assert unresolved_readme_names(readme, sources) == [
        "a.Audit.after", "Audit.after", "b.Audit", "c.helper", "Audit.step.x",
    ]


# ── NSL's message 2 in the docs ──────────────────────────────────────────────


def test_the_docs_give_nsl_message_two_as_the_program_receives_it():
    # the responder names itself first in message 2; Lowe writes the name
    # last, and the docs once did too, which misstated the pattern the
    # content bound is measured against
    from protolab import intruder, scenario
    from protolab.roles import _NSL_SENDER, RecvStmt

    (receive,) = [stmt for stmt in _NSL_SENDER if isinstance(stmt, RecvStmt)]
    pattern = receive.pattern
    name_last = pattern[1:] + pattern[:1]
    assert name_last != pattern
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for doc in (readme, scenario.__doc__, intruder.legal_moves.__doc__):
        assert f"`[{','.join(pattern)}]`" in doc
    texts = [ROOT / "README.md", ROOT / "ROADMAP.md", *SOURCES, *MODULES]
    assert [
        str(path.relative_to(ROOT))
        for path in texts
        if f"[{','.join(name_last)}]" in path.read_text(encoding="utf-8")
    ] == []
