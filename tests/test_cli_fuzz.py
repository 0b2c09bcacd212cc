"""Property: every input maps to an exit code in 0..3, and exit 2 says
"error: ..." on stderr; no exception escapes `cli.main`.

Inputs are the golden traces and shipped scenarios with tokens and lines
replaced, inserted and deleted below their header line: traces go to
`replay`, scripted scenarios to `run` and search scenarios to
`explore --max-steps 4`."""

import io
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protolab.cli import main

from conftest import GOLDEN, ROOT, SCENARIOS

TRACES = sorted(GOLDEN.glob("*.trc"))
SCENARIO_FILES = sorted(SCENARIOS.glob("*.scn"))
SOURCES = [("replay", path.read_text()) for path in TRACES] + [
    ("explore" if "intruder search" in text else "run", text)
    for text in (path.read_text() for path in SCENARIO_FILES)
]
ARGV = {"replay": ["replay"], "run": ["run"], "explore": ["explore", "--max-steps", "4"]}

# spellings that `int` or a regex's `\d` would read, but a count or a nonce
# name does not take: signs, underscores, leading zeros, Arabic-Indic digits,
# the nonce names `n0`, `n01` and `n١`, and a numeral longer than Python
# converts to an int
MISSPELT = ["+14", "1_4", "014", "١٤", "n0", "n01", "n١", "1" * 4400]
TOKENS = sorted({token for _, text in SOURCES for token in text.split()}) + [
    "", "=", "x=y", "-1", "999999999", "n1", "Q", '"', "\t", *MISSPELT
]
VALUES = sorted({token.split("=", 1)[1] for token in TOKENS if "=" in token}) + [
    "-1", "2.5", *MISSPELT
]

# a scripted intruder whose principals coincide
COINCIDING = (SCENARIOS / "lowe-on-ns.scn").read_text().replace("a=A b=B", "a=A b=A")


@st.composite
def mutated_input(draw):
    """(command, bytes of the input file)."""
    command, text = draw(st.sampled_from(SOURCES))
    header, *lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["token", "value", "insert", "delete", "line", "drop-line"]))
        if op == "line":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines or TOKENS)))
            continue
        if not lines:
            continue
        row = draw(st.integers(0, len(lines) - 1))
        if op == "drop-line":
            del lines[row]
            continue
        words = lines[row].split(" ")
        at = draw(st.integers(0, len(words) - 1))
        if op == "token":
            words[at] = draw(st.sampled_from(TOKENS))
        elif op == "value" and "=" in words[at]:
            words[at] = words[at].split("=", 1)[0] + "=" + draw(st.sampled_from(VALUES))
        elif op == "insert":
            words.insert(at, draw(st.sampled_from(TOKENS)))
        elif op == "delete":
            del words[at]
        lines[row] = " ".join(words)
    return command, ("\n".join([header, *lines]) + "\n").encode()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=mutated_input())
@example(case=("run", COINCIDING.encode()))
@example(case=("replay", (GOLDEN / "honest-ns.trc").read_bytes().replace(b"user A", b"user \xc4")))
@example(case=("replay", None))
@example(case=("explore", None))
def test_every_input_maps_to_an_exit_code(fuzz_dir, case):
    # explicit checks, not asserts, so that the property also runs under -O
    command, data = case  # data None: the path given is a directory
    path = fuzz_dir
    if data is not None:
        path = fuzz_dir / "input"
        path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    code = main([*ARGV[command], str(path)], out=out, err=err)
    if code not in (0, 1, 2, 3):
        raise AssertionError(f"{command} exited {code}")
    if code == 2 and not err.getvalue().startswith("error: "):
        raise AssertionError(f"{command} exited 2 with stderr {err.getvalue()!r}")


# the property once more under -O, which strips the program's asserts: an
# input the program rejects only by an assert would escape as a traceback
_UNDER_O = """
import pathlib, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]
from test_cli_fuzz import test_every_input_maps_to_an_exit_code
test_every_input_maps_to_an_exit_code(fuzz_dir=pathlib.Path(sys.argv[2]))
"""


def test_every_input_maps_to_an_exit_code_under_optimisation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert (result.returncode, result.stderr) == (0, ""), result.stderr[-2000:]
