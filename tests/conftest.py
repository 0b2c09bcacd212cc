"""Shared test paths.  Tests reference scenario and golden files relative to
the repository root, so anchor them to this file's location."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
TAMPERED = ROOT / "tests" / "tampered"


def scenario(name: str) -> str:
    return str(SCENARIOS / f"{name}.scn")
