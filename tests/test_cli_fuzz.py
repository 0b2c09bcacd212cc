"""Properties: every input maps to an exit code in 0..3, and exit 2 says
"error: ..." on stderr; no exception escapes `cli.main`.  An accepted text
renders back to itself: a trace to its lines less the blank ones, and a
scenario to a rendering that parses to the same scenario.

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
from protolab.scenario import ScenarioError, parse_scenario, render_scenario
from protolab.trace import TraceError, parse_trace, render_trace

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
# a content bound far past every receive pattern, which must cost no more
# than the longest pattern does
FAR_BOUND = (SCENARIOS / "nsl-search.scn").read_text().replace(
    "max_content_len=2", "max_content_len=999999999"
)


@st.composite
def mutated_input(draw, sources=SOURCES):
    """(command, bytes of the input file), from one of `sources`."""
    command, text = draw(st.sampled_from(sources))
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
@example(case=("explore", FAR_BOUND.encode()))
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


# ── accepted texts render back to themselves ────────────────────────────────

HONEST = (GOLDEN / "honest-ns.trc").read_text()


def _blank_scn(at):
    """The honest golden with a blank `scn` record inserted before its
    `at`-th scenario line (-1: after the last)."""
    lines = HONEST.splitlines(True)
    scn = [i for i, line in enumerate(lines) if line.startswith("scn ")]
    where = scn[at] if at >= 0 else scn[-1] + 1
    return "".join(lines[:where] + ["scn \n"] + lines[where:]).encode()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=mutated_input([source for source in SOURCES if source[0] == "replay"]))
# a blank scenario line is kept wherever it comes; it was dropped when it came first or last
@example(case=("replay", _blank_scn(0)))
@example(case=("replay", _blank_scn(3)))
@example(case=("replay", _blank_scn(-1)))
@example(case=("replay", HONEST.replace("scn level", "scn  level").encode()))
# an empty detail was accepted and rendered back without it; it is rejected
@example(case=("replay", HONEST.replace("spec=inv holds=true", 'spec=inv holds=true detail=""').encode()))
def test_an_accepted_trace_renders_back_to_its_lines(case):
    _, data = case
    text = data.decode()
    try:
        doc = parse_trace(text)
    except TraceError:
        return
    assert render_trace(doc).splitlines() == [line for line in text.splitlines() if line.strip()]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=mutated_input([source for source in SOURCES if source[0] != "replay"]))
def test_an_accepted_scenario_renders_to_a_fixed_point(case):
    _, data = case
    try:
        scenario = parse_scenario(data.decode())
    except ScenarioError:
        return
    rendered = render_scenario(scenario)
    assert parse_scenario(rendered) == scenario
    assert render_scenario(parse_scenario(rendered)) == rendered
