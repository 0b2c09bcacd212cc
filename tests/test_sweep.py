"""The behaviour sweep (`tools/sweep.py`): a few of its commands run and
print their lines, its list reaches every input and flag it names, and the
whole sweep prints the lines checked in as `tests/sweep.txt`."""

import difflib
import hashlib
import importlib.util
import os
import re

from protolab.specs import SPEC_CHOICES

from conftest import GOLDEN, ROOT, SCENARIOS

# `python tools/sweep.py > tests/sweep.txt`: a change of behaviour made on
# purpose regenerates it, and its diff shows what changed
SWEEP_GOLDEN = ROOT / "tests" / "sweep.txt"

_SPEC = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
SWEEP = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(SWEEP)

LINE = re.compile(r"(.+) exit=([0-3]) out=([0-9a-f]{64}) err=([0-9a-f]{64}) trace=([0-9a-f]{64}|-)")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_a_few_commands_print_their_lines():
    golden = (GOLDEN / "honest-ns.trc").read_text()
    events = golden.count("\nevent ")
    picked = [
        ["replay", "golden/honest-ns.trc"],
        ["run", "scenarios/honest-ns.scn", "--spec", "all", "--level", "abstract"],
        ["explore", "scenarios/ns-search.scn", "--spec", "post-ns",
         "--trace-out", "traces/explore-ns-search-post-ns.trc"],
    ]
    here = os.getcwd()
    lines = [LINE.fullmatch(line) for line in SWEEP.sweep(select=lambda argv: argv in picked)]
    assert os.getcwd() == here
    assert all(lines)
    argvs = [match[1] for match in lines]
    # the trace the explore writes is replayed after it
    assert argvs == [" ".join(argv) for argv in picked] + [
        "replay traces/explore-ns-search-post-ns.trc"
    ]
    replay, run, explore, replayed = (match.groups()[1:] for match in lines)
    assert replay == ("0", sha256(f"replay ok: {events} events verified\n"), sha256(""), "-")
    assert run == ("0", sha256(golden), sha256(""), "-")
    assert explore[0] == "1" and explore[3] != "-"
    assert replayed[0] == "0"


def test_the_commands_reach_every_input_and_flag(tmp_path):
    scenarios = SWEEP.prepare(tmp_path)
    inputs = ["golden/x.trc"]
    argvs = SWEEP.commands(scenarios, inputs)
    words = {word for argv in argvs for word in argv}
    shipped = {f"scenarios/{path.name}" for path in SCENARIOS.glob("*.scn")}
    assert shipped | set(inputs) | set(scenarios["derived"]) <= words
    assert {*SPEC_CHOICES, "abstract", "concrete", "--no-ghost", "--max-steps"} <= words
    assert {"run", "explore", "replay"} == {argv[0] for argv in argvs}
    assert all((tmp_path / path).is_file() for path in scenarios["derived"])
    assert any("max_content_len=3 " in (tmp_path / path).read_text() for path in scenarios["derived"])
    assert any(
        "max_steps=16 max_content_len=2 max_intruder_invents=1 " in (tmp_path / path).read_text()
        for path in scenarios["derived"]
    )


def test_the_sweep_prints_the_checked_in_lines():
    # every verdict, state count, counterexample and trace byte of the sweep
    want = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
    got = list(SWEEP.sweep())
    print("\n".join(difflib.unified_diff(want, got, "sweep.txt", "sweep", n=0, lineterm="")))
    assert got == want
