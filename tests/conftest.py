"""Shared test paths and references.  Tests reference scenario and golden
files relative to the repository root, so anchor them to this file's
location."""

import importlib.util
import pathlib
import sys

import pytest

from protolab.crypto import DECRYPT_FAILED, WireMsg, dec
from protolab.model import Msg, is_nonce, is_uid
from protolab.roles import RecvStmt, Status
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


def kinds_match(items, pattern) -> bool:
    """Whether `items` match a receive pattern, position by position: as
    many items as kinds, a nonce at each "n" and a user at each "u".  A
    reference for the program's one lookup under `roles.kinds_of`."""
    if len(items) != len(pattern):
        return False
    return all(
        (kind == "n" and is_nonce(item)) or (kind == "u" and is_uid(item))
        for kind, item in zip(pattern, items)
    )


def reads(medium, action, uid):
    """The content `uid` reads of `action` through `medium`, or None: at the
    abstract level the recipient a message names (`Msg.rec`), at the wire
    level a user whose secret key decrypts it (`crypto.dec`).  A reference
    for the media's `readers`, so it never asks them."""
    if medium.registry is None:
        return action.content if isinstance(action, Msg) and action.rec == uid else None
    if isinstance(action, WireMsg):
        out = dec(action.body, medium.registry.skeys[uid], medium.registry)
        if out is not DECRYPT_FAILED:
            return out
    return None


def reference_find_match(machine, state, inbox, medium):
    """The history index a machine's receive takes, by the receive rule as
    a scan of the whole history, newest first, asking `reads` about each
    entry it passes; None when nothing matches or the machine is not
    running at a receive."""
    if machine.status is not Status.RUNNING or not isinstance(machine.current(), RecvStmt):
        return None
    pattern = machine.current().pattern
    taken = dict(inbox.consumed).get(machine.owner, ())
    for index in range(len(state.history) - 1, -1, -1):
        if index in taken:
            continue
        items = reads(medium, state.history[index], machine.owner)
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
