"""Shared test paths and references.  Tests reference scenario and golden
files relative to the repository root, so anchor them to this file's
location."""

import importlib.util
import pathlib
import sys

import pytest

from protolab.roles import RecvStmt, Status, kinds_match
from protolab.search import _Searcher, explore

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
TAMPERED = ROOT / "tests" / "tampered"


def scenario(name: str) -> str:
    return str(SCENARIOS / f"{name}.scn")


def perfbench_module(name: str):
    """A module of the benchmark, loaded from its file (perfbench/ is a
    directory of scripts, not a package)."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, fn, weigh=lambda *args, **kwargs: 1):
    """Count the calls of `fn` through every binding of it in protolab's
    modules, each call adding `weigh` of its arguments; returns a function
    that reads the count."""
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += weigh(*args, **kwargs)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "protolab" or name.startswith("protolab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return lambda: calls


def reference_find_match(machine, state, inbox, medium):
    """The history index a machine's receive takes, by the receive rule as
    a scan of the whole history, newest first, asking `medium.readable`
    about each entry it passes; None when nothing matches or the machine is
    not running at a receive."""
    if machine.status is not Status.RUNNING or not isinstance(machine.current(), RecvStmt):
        return None
    pattern = machine.current().pattern
    taken = inbox.consumed_for(machine.owner)
    for index in range(len(state.history) - 1, -1, -1):
        if index in taken:
            continue
        items = medium.readable(state.history[index], machine.owner)
        if items is not None and kinds_match(items, pattern):
            return index
    return None


def explore_with_quiescents(sc, spec):
    """`explore(sc, spec)` and the state of every quiescent node it checked,
    in the order it checked them.  The patch is undone on return, so this
    works in fixtures of any scope."""
    collected = []
    check = _Searcher.quiescent_violation

    def recording(searcher, node):
        collected.append(node.state)
        return check(searcher, node)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Searcher, "quiescent_violation", recording)
        verdict = explore(sc, spec=spec)
    return verdict, collected
