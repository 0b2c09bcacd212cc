"""The benchmark's per-layer spans wrap protolab functions by name; a name
that no longer resolves would drop its metrics with only a note."""

import importlib

import pytest

from conftest import perfbench_module

TRACER = perfbench_module("tracer")


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in TRACER.TRACED.items() for name in names],
)
def test_traced_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"protolab.{module}"), name, None))


def test_reported_spans_are_traced():
    traced = {f"{module}.{name}" for module, names in TRACER.TRACED.items() for name in names}
    assert set(TRACER.REPORTED_SPANS) <= traced
