"""Command-line driver: exit codes, golden traces, replay, determinism."""

import argparse
import io
import re
import subprocess
import sys
import textwrap

import pytest

from protolab.cli import build_parser, main

from conftest import GOLDEN, SCENARIOS, TAMPERED


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ── one parser per process ──────────────────────────────────────────────────

# argv that argparse itself answers: usage errors (exit 2) and help (exit 0)
PARSER_ANSWERS = [
    [], ["--help"], ["bogus"], ["run"], ["explore", "x.scn", "--max-steps", "many"],
    ["explore", "x.scn", "--spec", "none"], ["replay", "--help"], ["replay", "a", "b"],
]


@pytest.mark.parametrize("argv", PARSER_ANSWERS, ids=[" ".join(a) or "-" for a in PARSER_ANSWERS])
def test_the_shared_parser_answers_as_a_fresh_one(capsys, argv):
    # `main` parses with the one parser of the process: every call answers
    # with the bytes and the exit code of a parser built afresh
    def answer(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    fresh = answer(build_parser.__wrapped__().parse_args)
    assert fresh[0] in (0, 2)
    assert answer(main) == answer(main) == fresh


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    main(["replay", str(GOLDEN / "honest-ns.trc")], out=io.StringIO(), err=io.StringIO())
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: built.append(a))
    for _ in range(3):
        assert run_cli("replay", str(GOLDEN / "honest-ns.trc"))[0] == 0
    assert built == []


# ── exit codes ───────────────────────────────────────────────────────────────


def test_honest_run_exits_zero(tmp_path):
    code, out, _ = run_cli("run", str(SCENARIOS / "honest-ns.scn"))
    assert code == 0
    assert "verdict spec=post-ns holds=true" in out


def test_spec_violation_exits_one(tmp_path):
    code, out, _ = run_cli("run", str(SCENARIOS / "lowe-on-ns.scn"), "--spec", "post-ns")
    assert code == 1
    assert "holds=false" in out


def test_fixed_variant_attack_exits_zero():
    code, out, _ = run_cli("run", str(SCENARIOS / "lowe-on-nsl.scn"), "--spec", "nsl-ft")
    assert code == 0
    assert "recv-abort" in out  # the run ends in the initiator's abort


def test_malformed_scenario_exits_two(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("protolab-scenario v1\nuser A conforms=true\nfrobnicate x\n")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "frobnicate" in err


def test_missing_intruder_record_is_named(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("protolab-scenario v1\nuser A conforms=true\n")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "intruder" in err


def test_undeclared_peer_is_named(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "protolab-scenario v1\nuser A conforms=true\n"
        "role sender user=A peer=Z variant=ns\nintruder none\n"
    )
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "Z" in err


def test_run_rejects_search_scenarios():
    code, _, err = run_cli("run", str(SCENARIOS / "ns-search.scn"))
    assert code == 2
    assert "explore" in err


def test_explore_rejects_scripted_scenarios():
    code, _, err = run_cli("explore", str(SCENARIOS / "lowe-on-ns.scn"))
    assert code == 2


def test_explore_inconclusive_exits_three():
    code, out, _ = run_cli(
        "explore", str(SCENARIOS / "ns-search.scn"), "--max-steps", "5", "--spec", "post-ns"
    )
    assert code == 3


def test_explore_zero_steps_with_a_move_left_exits_three():
    code, out, _ = run_cli("explore", str(SCENARIOS / "ns-search.scn"), "--max-steps", "0")
    assert code == 3
    assert out == (
        "states explored: 1\nverdict spec=all holds=false"
        ' detail="step bound cut branches that still had enabled moves"\n'
    )


def test_explore_zero_steps_with_no_move_left_exits_zero(tmp_path):
    role_free = tmp_path / "role-free.scn"
    role_free.write_text("protolab-scenario v1\nuser A conforms=true\nintruder none\n")
    code, out, _ = run_cli("explore", str(role_free), "--max-steps", "0")
    assert code == 0
    assert out == "states explored: 1\nverdict spec=all holds=true\n"


# (scenario, bounds it must agree with): NS's longest receive pattern,
# message 2 `[n,n]`, has length 2, and NSL's, message 2 `[u,n,n]`, length 3
FAR_BOUNDS = [("ns-search", (2, 3)), ("nsl-search", (3,))]


@pytest.mark.parametrize("name,agrees", FAR_BOUNDS, ids=[n for n, _ in FAR_BOUNDS])
def test_a_content_bound_past_every_pattern_explores_as_the_longest(tmp_path, name, agrees):
    # the content bound only filters the waiting patterns, so a bound past
    # the longest writes the bytes the longest does (but for the bound's
    # own field) and costs no more; the timeout turns a bound that is
    # counted up to into a failure, not a hang
    def explore_at(bound):
        path, trace = tmp_path / f"{bound}.scn", tmp_path / f"{bound}.trc"
        text = (SCENARIOS / f"{name}.scn").read_text()
        path.write_text(text.replace("max_content_len=2", f"max_content_len={bound}"))
        result = subprocess.run(
            [sys.executable, "-m", "protolab", "explore", str(path), "--trace-out", str(trace)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        written = trace.read_text().replace(f" max_content_len={bound} ", " max_content_len=N ")
        return result.returncode, result.stdout, result.stderr, written

    far = explore_at(99999999999)
    assert far[0] == 1 and "max_content_len=N" in far[3]
    for bound in agrees:
        assert explore_at(bound) == far


def test_explore_has_no_workers_flag():
    # neither --workers nor --level exists for explore, which searches the
    # abstract level only
    for flag in (["--workers", "2"], ["--level", "abstract"]):
        with pytest.raises(SystemExit) as exc:
            run_cli("explore", str(SCENARIOS / "nsl-search.scn"), *flag)
        assert exc.value.code == 2, flag


@pytest.mark.parametrize(
    "value,echoed",
    [
        ("+14", "'+14'"),
        ("١٤", "'١٤'"),
        ("-1", "'-1'"),
        ("1_4", "'1_4'"),
        ("014", "'014'"),
        ("1" * 4400, "'11111111111111111111'... (4400 characters)"),
    ],
    ids=["signed", "arabic-indic", "negative", "underscored", "leading-zero", "oversized"],
)
def test_max_steps_takes_a_count_only(capsys, value, echoed):
    # the flag reads a count as a scenario's bounds do, and argparse names
    # the flag, not a bounds record the user never wrote; an oversized value
    # is echoed as its first 20 characters and its length
    with pytest.raises(SystemExit) as exc:
        run_cli("explore", str(SCENARIOS / "nsl-search.scn"), "--max-steps", value)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --max-steps: must be a count, got {echoed}\n")


LOWE_SCRIPT = """protolab-scenario v1
user A conforms=true
user B conforms=true
user I conforms=false
role sender user=A peer=I variant=ns
role receiver user=B variant=ns
intruder lowe_script {fields}
level abstract
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize(
    "fields,named",
    [
        ("user=I a=I b=B", "field 'a' must differ from 'user', both are 'I'"),
        ("user=I a=A b=I", "field 'b' must differ from 'user', both are 'I'"),
        ("user=I a=A b=A", "field 'b' must differ from 'a', both are 'A'"),
    ],
    ids=["a-equals-user", "b-equals-user", "b-equals-a"],
)
def test_lowe_script_principals_must_differ(tmp_path, flags, fields, named):
    # the scripted interceptor sits between two distinct victims; the check
    # is made on the scenario, not by an assert that -O strips
    bad = tmp_path / "bad.scn"
    bad.write_text(LOWE_SCRIPT.format(fields=fields))
    result = subprocess.run(
        [sys.executable, *flags, "-m", "protolab", "run", str(bad)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: intruder: {named}\n"


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes((GOLDEN / "honest-ns.trc").read_bytes().replace(b"user A", b"user \xc4", 1))
    return bad


@pytest.mark.parametrize("command", ["run", "explore", "replay"])
@pytest.mark.parametrize("make_input", [_directory, _not_utf8], ids=["directory", "not-utf8"])
def test_unreadable_input_is_a_clean_error(tmp_path, command, make_input):
    code, out, err = run_cli(command, str(make_input(tmp_path)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _scenario(*records):
    return "\n".join(["protolab-scenario v1", "user A conforms=true", *records]) + "\n"


def _bounds(invents=0, sessions=4, steps=9):
    return (
        f"bounds max_steps={steps} max_content_len=2 max_intruder_invents={invents} "
        f"max_sessions_per_user={sessions}"
    )


LOWE_TRACE = (GOLDEN / "lowe-on-ns.trc").read_text(encoding="utf-8")
INTRUDER_COMPOSE = "i=4 actor=intruder@I#1 stmt=compose"
LOWE_VERDICT = next(line for line in LOWE_TRACE.splitlines() if line.startswith("verdict "))


def _trace(old, new):
    assert old in LOWE_TRACE
    return LOWE_TRACE.replace(old, new, 1)


def _miscounted(old, new, record, field, value):
    """(command, trace, message) for the attack trace with `old` replaced by
    `new`, which misspells the count `value` of `record`'s `field`."""
    return "replay", _trace(old, new), f"{record}: field {field!r} must be a count, got {value!r}"


def _misnamed(name):
    """(command, trace, message) for the attack trace with event 4 composing
    `name` where the golden composes the nonce `n1`."""
    return (
        "replay",
        _trace(f"{INTRUDER_COMPOSE} act=msg(rec=B,ghost:sender=I,[A,n1])",
               f"{INTRUDER_COMPOSE} act=msg(rec=B,ghost:sender=I,[A,{name}])"),
        f"event 4: field 'act': malformed nonce item {name!r}",
    )


# a numeral longer than Python converts to an int (4,300 digits by default)
OVERSIZED = "1" * 4400
# a value far past the 40 characters a diagnostic echoes whole
LONG = "x" * 5000


# (command, input text, the whole error line's message): every message names
# its record and, where the record has one, the field
MALFORMED_INPUTS = {
    "negative-bound": (
        "run",
        _scenario("intruder none", _bounds(invents=-1)),
        "bounds: field 'max_intruder_invents' must be a count, got '-1'",
    ),
    # a count is spelled as `str` writes it, though `int` reads all of these
    **{
        f"bound-{case}": (
            "run",
            _scenario("intruder none", _bounds(steps=steps)),
            f"bounds: field 'max_steps' must be a count, got {steps!r}",
        )
        for case, steps in [
            ("signed", "+14"), ("underscored", "1_4"), ("leading-zero", "014"),
            ("arabic-indic", "١٤"),
        ]
    },
    "conforms-not-a-bool": (
        "run",
        _scenario("user B conforms=yes", "intruder none"),
        "user: field 'conforms' must be true or false, got 'yes'",
    ),
    "receiver-peer": (
        "run",
        _scenario("user B conforms=true", "role receiver user=B peer=A variant=ns", "intruder none"),
        "role: peer= is only meaningful on a sender",
    ),
    "unknown-variant": (
        "run",
        _scenario("user B conforms=true", "role sender user=A peer=B variant=tls", "intruder none"),
        "role: field 'variant' must be ns or nsl, got 'tls'",
    ),
    "none-with-fields": (
        "run",
        _scenario("intruder none user=A"),
        "intruder: 'none' takes no fields",
    ),
    "lowe-script-fields": (
        "run",
        _scenario("user B conforms=true", "user I conforms=false", "intruder lowe_script user=I a=A"),
        "intruder: lowe_script needs user=, a= and b=",
    ),
    "search-fields": (
        "run",
        _scenario("user I conforms=false", "intruder search user=I a=A"),
        "intruder: search needs exactly user=",
    ),
    "no-principal": (
        "run",
        "protolab-scenario v1\nintruder none\n",
        "user: at least one principal is required",
    ),
    "sender-without-peer": (
        "run",
        _scenario("role sender user=A variant=ns", "intruder none"),
        "role: a sender may omit peer= only in search scenarios",
    ),
    "conforming-intruder": (
        "run",
        _scenario("user I conforms=true", "intruder search user=I"),
        "intruder: user 'I' must be declared conforms=false",
    ),
    "intruder-with-role": (
        "run",
        _scenario("user I conforms=false", "role receiver user=I variant=ns", "intruder search user=I"),
        "intruder: user 'I' cannot also hold a role",
    ),
    "too-many-sessions": (
        "run",
        _scenario(
            "user B conforms=true",
            "role sender user=A peer=B variant=ns",
            "role sender user=A peer=B variant=nsl",
            "intruder none",
            _bounds(sessions=1),
        ),
        "role: user 'A' has 2 sessions, above max_sessions_per_user",
    ),
    "undeclared-set-partner-peer": (
        "replay",
        _trace("stmt=set-partner arg=I", "stmt=set-partner arg=Z"),
        "event 1: field 'arg': set-partner peer must be a declared user, got 'Z'",
    ),
    "replay-without-index": (
        "replay",
        _trace(INTRUDER_COMPOSE, "i=4 actor=intruder@I#1 stmt=replay"),
        "event 4: replay needs a history index",
    ),
    # a numeric field takes ASCII digits only, though `int` and a regex's
    # `\d` read other Unicode decimal digits too
    "replay-index-superscript": (
        "replay",
        _trace(INTRUDER_COMPOSE, "i=4 actor=intruder@I#1 stmt=replay arg=²"),
        "event 4: replay needs a history index",
    ),
    "replay-index-arabic-indic": (
        "replay",
        _trace(INTRUDER_COMPOSE, "i=4 actor=intruder@I#1 stmt=replay arg=٣"),
        "event 4: replay needs a history index",
    ),
    "event-index-arabic-indic": _miscounted("event i=3 ", "event i=٣ ", "event", "i", "٣"),
    "end-count-arabic-indic": _miscounted("end events=13", "end events=١٣", "end", "events", "١٣"),
    "event-index-leading-zero": _miscounted("event i=1 ", "event i=01 ", "event", "i", "01"),
    "end-count-leading-zero": _miscounted("end events=13", "end events=013", "end", "events", "013"),
    # an oversized value is echoed as its first 20 characters and its length
    "end-count-oversized": (
        "replay",
        _trace("end events=13", f"end events={OVERSIZED}"),
        f"end: field 'events' must be a count, got {'1' * 20!r}... (4400 characters)",
    ),
    "bound-oversized": (
        "run",
        _scenario("intruder none", _bounds(steps=OVERSIZED)),
        f"bounds: field 'max_steps' must be a count, got {'1' * 20!r}... (4400 characters)",
    ),
    "replay-index-oversized": (
        "replay",
        _trace(INTRUDER_COMPOSE, f"i=4 actor=intruder@I#1 stmt=replay arg={OVERSIZED}"),
        "event 4: replay needs a history index",
    ),
    "compose-arabic-indic-nonce": _misnamed("n١"),
    "compose-leading-zero-nonce": _misnamed("n01"),
    # a machine event's action is read as a compose's is
    "send-leading-zero-nonce": (
        "replay",
        _trace("act=msg(rec=I,ghost:sender=A,[A,n1])", "act=msg(rec=I,ghost:sender=A,[A,n01])"),
        "event 3: field 'act': malformed nonce item 'n01'",
    ),
    "send-arabic-indic-nonce": (
        "replay",
        _trace("act=msg(rec=I,ghost:sender=A,[A,n1])", "act=msg(rec=I,ghost:sender=A,[A,n١])"),
        "event 3: field 'act': malformed nonce item 'n١'",
    ),
    "invent-leading-zero-nonce": (
        "replay",
        _trace("act=invent(A,n1)", "act=invent(A,n01)"),
        "event 2: field 'act': malformed nonce item 'n01'",
    ),
    # a trace holds one level, init and end record; the last one used to win
    "level-repeated": (
        "replay",
        _trace("level abstract\n", "level abstract\nlevel abstract\n"),
        "level: duplicate record",
    ),
    "init-repeated": (
        "replay",
        _trace("init digest=", "init digest=000000000000\ninit digest="),
        "init: duplicate record",
    ),
    "end-repeated": (
        "replay",
        _trace("end events=13", "end events=99\nend events=13"),
        "end: duplicate record",
    ),
    **{
        f"verdict-spec-{spec}": (
            "replay",
            _trace("verdict spec=post-ns", f"verdict spec={spec}"),
            f"verdict: field 'spec' must be post-ns, nsl-ft or inv, got {spec!r}",
        )
        for spec in ("bogus", "all")
    },
    # a trace holds one verdict per spec; a repeat used to replay ok, and a
    # repeat that disagrees gave a verdict mismatch
    "verdict-repeated": (
        "replay",
        _trace("verdict spec=post-ns", f"{LOWE_VERDICT}\nverdict spec=post-ns"),
        "verdict: duplicate record for spec 'post-ns'",
    ),
    "verdict-repeated-disagreeing": (
        "replay",
        _trace("verdict spec=post-ns", "verdict spec=post-ns holds=true\nverdict spec=post-ns"),
        "verdict: duplicate record for spec 'post-ns'",
    ),
    # an empty detail was accepted, and rendered back without it
    "verdict-empty-detail": (
        "replay",
        _trace(LOWE_VERDICT, 'verdict spec=post-ns holds=false detail=""'),
        "verdict: field 'detail' must not be empty; omit it instead",
    ),
    # the records come in one order; any other was accepted, and rendered
    # back in that order
    "verdict-after-end": (
        "replay",
        _trace(f"{LOWE_VERDICT}\nend events=13", f"end events=13\n{LOWE_VERDICT}"),
        "verdict: record out of order, after 'end'",
    ),
    "scn-after-init": (
        "replay",
        _trace("init digest=", "init digest=000000000000\nscn level abstract\ninit digest="),
        "scn: record out of order, after 'init'",
    ),
    "unrecognised-key-atom": (
        "replay",
        _trace(
            "act=msg(rec=B,ghost:sender=I,[A,n1])",
            "act=wire(enc(xk:B),ghost:sender=I,ghost:payload=[A,n1])",
        ),
        "event 4: unrecognised key atom 'xk:B'",
    ),
    "unknown-intruder-statement": (
        "replay",
        _trace(INTRUDER_COMPOSE, "i=4 actor=intruder@I#1 stmt=dance"),
        "event 4: unknown intruder statement 'dance'",
    ),
    "embedded-scenario-missing": (
        "replay",
        "".join(line for line in LOWE_TRACE.splitlines(True) if not line.startswith("scn ")),
        "scn: embedded scenario missing",
    ),
    # a bare record keyword was an unknown record; a bare `scn` is what an
    # editor that strips trailing spaces makes of a blank scenario line
    **{
        f"bare-{record}": (
            "replay",
            _trace(before, f"{record}\n{before}"),
            f"{record}: malformed record {record!r}",
        )
        for record, before in [
            ("level", "level abstract"), ("scn", "scn protolab-scenario"),
            ("init", "init digest="), ("event", "event i=1 "),
            ("verdict", "verdict spec=post-ns"), ("end", "end events=13"),
        ]
    },
    # a value past 40 characters is echoed as its first 20 and its length,
    # by each reader
    "trace-unknown-record-oversized": (
        "replay",
        _trace("init digest=", f"{LONG}\ninit digest="),
        f"unknown record {LONG[:20]!r}... (5000 characters)",
    ),
    "init-oversized": (
        "replay",
        _trace("init digest=", f"init digest={LONG}\ninit digest="),
        "init: malformed record 'init digest=xxxxxxxx'... (5012 characters)",
    ),
    "event-oversized": (
        "replay",
        _trace("event i=1 ", f"event i=1 {LONG} "),
        "event: malformed record 'event i=1 xxxxxxxxxx'... (5076 characters)",
    ),
    "end-oversized": (
        "replay",
        _trace("end events=13", f"end events=13 {LONG}"),
        "end: malformed record 'end events=13 xxxxxx'... (5014 characters)",
    ),
    "scenario-bool-oversized": (
        "run",
        _scenario(f"user B conforms={LONG}", "intruder none"),
        f"user: field 'conforms' must be true or false, got {LONG[:20]!r}... (5000 characters)",
    ),
    "scenario-unknown-record-oversized": (
        "run",
        _scenario(LONG, "intruder none"),
        f"unknown record kind {LONG[:20]!r}... (5000 characters)",
    ),
    "intruder-statement-oversized": (
        "replay",
        _trace(INTRUDER_COMPOSE, f"i=4 actor=intruder@I#1 stmt={LONG}"),
        f"event 4: unknown intruder statement {LONG[:20]!r}... (5000 characters)",
    ),
    "compose-recipient-oversized": (
        "replay",
        _trace("act=msg(rec=B,ghost:sender=I,[A,n1])", f"act=msg(rec={LONG},ghost:sender=I,[A,n1])"),
        f"event 4: field 'act': compose recipient {LONG[:20]!r}... (5000 characters) "
        "is not a declared user",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_named_on_stderr(tmp_path, case):
    command, text, message = MALFORMED_INPUTS[case]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert run_cli(command, str(path)) == (2, "", f"error: {message}\n")


# ── golden traces ────────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "scenario,spec,golden",
    [
        ("honest-ns", "all", "honest-ns.trc"),
        ("lowe-on-ns", "post-ns", "lowe-on-ns.trc"),
        ("lowe-on-nsl", "nsl-ft", "lowe-on-nsl.trc"),
    ],
)
def test_golden_traces_byte_for_byte(tmp_path, scenario, spec, golden):
    out_path = tmp_path / "got.trc"
    run_cli(
        "run", str(SCENARIOS / f"{scenario}.scn"), "--spec", spec, "--trace-out", str(out_path)
    )
    assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a.trc", tmp_path / "b.trc"
    run_cli("run", str(SCENARIOS / "lowe-on-ns.scn"), "--trace-out", str(first))
    run_cli("run", str(SCENARIOS / "lowe-on-ns.scn"), "--trace-out", str(second))
    assert first.read_bytes() == second.read_bytes()


# ── replay ───────────────────────────────────────────────────────────────────


def test_replay_of_golden_traces_exits_zero():
    for golden in ("honest-ns.trc", "lowe-on-ns.trc", "lowe-on-nsl.trc"):
        code, out, _ = run_cli("replay", str(GOLDEN / golden))
        assert code == 0, (golden, out)


def test_trace_parser_total_over_garbage(tmp_path):
    import random

    from protolab.trace import TraceError, parse_trace

    base = (GOLDEN / "honest-ns.trc").read_text().splitlines()
    rng = random.Random(29)
    for _ in range(200):
        lines = list(base)
        op = rng.randrange(4)
        if op == 0 and lines:
            lines.pop(rng.randrange(len(lines)))
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(
                ["event i=x", "verdict", "junk record", "init digest=short", ""]))
        elif op == 2 and lines:
            pos = rng.randrange(len(lines))
            lines[pos] = lines[pos][: rng.randrange(len(lines[pos]) + 1)]
        else:
            rng.shuffle(lines)
        try:
            parse_trace("\n".join(lines))
        except TraceError:
            pass


def test_replay_detects_hand_edited_trace(tmp_path):
    lines = (GOLDEN / "honest-ns.trc").read_text().splitlines()
    first_event = next(i for i, l in enumerate(lines) if l.startswith("event i=1 "))
    # swap the first two events, renumbering so the file still parses
    a = lines[first_event].replace("event i=1 ", "event i=2 ")
    b = lines[first_event + 1].replace("event i=2 ", "event i=1 ")
    lines[first_event], lines[first_event + 1] = b, a
    edited = tmp_path / "edited.trc"
    edited.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli("replay", str(edited))
    assert code == 1
    assert "diverged at event 1" in out


def test_replay_rejects_ghost_stripped_traces(tmp_path):
    stripped = tmp_path / "stripped.trc"
    code, _, _ = run_cli(
        "run",
        str(SCENARIOS / "honest-ns.scn"),
        "--no-ghost",
        "--trace-out",
        str(stripped),
    )
    assert code == 0
    assert "ghost:" not in stripped.read_text()
    code, _, err = run_cli("replay", str(stripped))
    assert code == 2
    assert "ghost" in err


def test_concrete_run_and_replay(tmp_path):
    out_path = tmp_path / "concrete.trc"
    code, _, _ = run_cli(
        "run",
        str(SCENARIOS / "lowe-on-nsl.scn"),
        "--level",
        "concrete",
        "--trace-out",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert "level concrete" in text and "wire(enc(pk:" in text
    code, out, _ = run_cli("replay", str(out_path))
    assert code == 0, out


@pytest.fixture(scope="module")
def ns_cex_trace(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("explore") / "cex.trc"
    code, out, _ = run_cli(
        "explore",
        str(SCENARIOS / "ns-search.scn"),
        "--spec",
        "post-ns",
        "--trace-out",
        str(out_path),
    )
    assert code == 1
    assert "states explored: " in out
    return out_path


def test_explore_counterexample_trace_replays(ns_cex_trace):
    code, _, _ = run_cli("replay", str(ns_cex_trace))
    assert code == 0


@pytest.mark.parametrize("spec", ["inv", "post-ns"])
def test_replay_reports_a_recorded_verdict_mismatch(tmp_path, spec):
    text = (GOLDEN / "honest-ns.trc").read_text()
    recorded = f"verdict spec={spec} holds=true"
    assert text.count(recorded) == 1
    edited = tmp_path / "edited.trc"
    edited.write_text(text.replace(recorded, f"verdict spec={spec} holds=false"))
    code, out, _ = run_cli("replay", str(edited))
    assert code == 1
    assert out == f"replay verdict mismatch for {spec}\n"


def test_replay_rejects_a_verdict_for_an_unknown_spec(tmp_path):
    # a verdict record replay cannot recompute is malformed, not skipped
    text = (GOLDEN / "honest-ns.trc").read_text()
    edited = tmp_path / "edited.trc"
    edited.write_text(text.replace("verdict spec=nsl-ft ", "verdict spec=frob "))
    code, out, err = run_cli("replay", str(edited))
    message = "verdict: field 'spec' must be post-ns, nsl-ft or inv, got 'frob'"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_replay_reports_the_first_failed_obligation(monkeypatch):
    import protolab.invariants as invariants
    from protolab.invariants import PredicateReport

    def planted_dyn_inv(before, after, changed):
        if len(after.history) == 3:
            return PredicateReport("dyn-inv", False, "planted at history length 3")
        return PredicateReport("dyn-inv", True)

    monkeypatch.setattr(invariants, "dyn_inv", planted_dyn_inv)
    code, out, _ = run_cli("replay", str(GOLDEN / "honest-ns.trc"))
    assert code == 1
    assert out == "replay obligation failed: dyn-inv: planted at history length 3\n"


@pytest.mark.parametrize("level", ["abstract", "concrete"])
@pytest.mark.parametrize("name", ["honest-ns", "honest-nsl", "lowe-on-ns", "lowe-on-nsl"])
def test_trace_events_round_trip(name, level):
    # replay compares whole events, so the file holds exactly the run's events
    from protolab.runner import execute_scripted
    from protolab.scenario import load_scenario
    from protolab.trace import parse_trace, render_trace

    run = execute_scripted(load_scenario(SCENARIOS / f"{name}.scn").with_level(level))
    assert run.events
    assert parse_trace(render_trace(run.to_doc())).events == run.events


def test_replay_reports_a_refinement_mismatch(tmp_path, monkeypatch):
    import protolab.runner as runner

    trace = tmp_path / "concrete.trc"
    code, _, _ = run_cli(
        "run", str(SCENARIOS / "honest-ns.scn"), "--level", "concrete", "--trace-out", str(trace)
    )
    assert code == 0
    # the run projects its wire history through runner's binding; dropping
    # the last projected action leaves every checked obligation holding and
    # breaks only the comparison with the recipient-field twin
    real_abstract_of = runner.abstract_of
    monkeypatch.setattr(
        runner, "abstract_of", lambda history, registry: real_abstract_of(history, registry)[:-1]
    )
    code, out, _ = run_cli("replay", str(trace))
    assert code == 1
    assert out == (
        "replay refinement mismatch between levels: "
        "projected wire history differs from the recipient-field history\n"
    )


def test_replay_rejects_inexecutable_schedule(tmp_path):
    # valid grammar, impossible schedule: replay of a history index that
    # does not exist at that point
    lines = (GOLDEN / "lowe-on-ns.trc").read_text().splitlines()
    target = next(i for i, l in enumerate(lines) if "stmt=compose" in l)
    lines[target] = lines[target].replace("stmt=compose", "stmt=replay arg=99")
    bad = tmp_path / "bad.trc"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli("replay", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_replay_of_an_invention_is_a_clean_error(tmp_path, flags):
    # history[0] of this trace is A's invention, not a message; the check
    # must not be an assert, which -O strips
    lines = (GOLDEN / "lowe-on-ns.trc").read_text().splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("event i=4 "))
    lines[target] = lines[target].replace("stmt=compose", "stmt=replay arg=0")
    bad = tmp_path / "bad.trc"
    bad.write_text("\n".join(lines) + "\n")
    result = subprocess.run(
        [sys.executable, *flags, "-m", "protolab", "replay", str(bad)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "event 4" in result.stderr and "index 0" in result.stderr


def test_replay_checks_each_events_argument(tmp_path):
    # the sender's partner is fixed by the scenario, so a recorded argument
    # naming another declared user is a divergence, not a different run
    text = (GOLDEN / "lowe-on-ns.trc").read_text()
    assert "stmt=set-partner arg=I " in text
    edited = tmp_path / "edited.trc"
    edited.write_text(text.replace("stmt=set-partner arg=I ", "stmt=set-partner arg=B "))
    code, out, _ = run_cli("replay", str(edited))
    assert code == 1
    assert out == "replay diverged at event 1\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize(
    "old,new,named",
    [
        ("stmt=set-partner arg=I ", "stmt=set-partner ",
         "event 1: field 'arg': set-partner needs a peer"),
        ("stmt=set-partner arg=I ", "stmt=set-partner arg=Q ",
         "event 1: field 'arg': set-partner peer must be a declared user, got 'Q'"),
        ("act=msg(rec=B,ghost:sender=I,[A,n1])", "act=msg(rec=Q,ghost:sender=I,[A,n1])",
         "event 4: field 'act': compose recipient 'Q' is not a declared user"),
    ],
    ids=["set-partner-without-peer", "set-partner-undeclared", "compose-undeclared"],
)
def test_undeclared_schedule_targets_are_malformed(tmp_path, ns_cex_trace, flags, old, new, named):
    # the explored sender chooses its partner, so the recorded peer is what
    # replay executes; an assert on it would vanish under -O
    text = ns_cex_trace.read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.trc"
    bad.write_text(text.replace(old, new))
    result = subprocess.run(
        [sys.executable, *flags, "-m", "protolab", "replay", str(bad)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {named}\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize(
    "name,named",
    [
        # lowe-on-nsl.trc with its final recv-abort copied as events 9 and 10
        ("repeated-abort", "event 9: sender@A#1 is aborted"),
        # honest-ns.trc behind a first receive with nothing sent yet, digests
        # recomputed as if that receive were a no-op
        ("empty-recv", "event 1: receiver@B#1 has nothing to receive"),
        # honest-ns.trc with the sender's finish copied as event 12
        ("after-finish", "event 12: sender@A#1 is completed"),
    ],
    ids=["repeated-abort", "empty-recv", "after-finish"],
)
def test_steps_that_make_no_progress_are_malformed(flags, name, named):
    # a replayed event is a step that happened; a step of a finished machine
    # or a receive with nothing to consume never happens
    result = subprocess.run(
        [sys.executable, *flags, "-m", "protolab", "replay", str(TAMPERED / f"{name}.trc")],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"error: trace is not executable: {named}\n"
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_a_compose_of_an_underivable_item_is_malformed(flags):
    # ns-search: A sends [A,n1] to B, and the intruder, which never learned
    # n1, composes the same message to B, which B then receives
    result = subprocess.run(
        [sys.executable, *flags, "-m", "protolab", "replay", str(TAMPERED / "guessed-nonce.trc")],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: trace is not executable: event 4: intruder@I#1 cannot derive n1\n"
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_an_empty_wire_compose_is_malformed(tmp_path, flags):
    trace = tmp_path / "concrete.trc"
    code, _, _ = run_cli(
        "run", str(SCENARIOS / "lowe-on-ns.scn"), "--level", "concrete", "--trace-out", str(trace)
    )
    assert code == 1
    lines = trace.read_text().splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("event i=4 "))
    assert "stmt=compose" in lines[target] and "ghost:payload=[A,n1])" in lines[target]
    # an undeclared principal in the content would reach a key lookup of the
    # receiver's reply, so it is rejected with the empty content
    for payload, named in [
        ("[]", "compose content is empty"),
        ("[Z,n1]", "compose item 'Z' is not a declared user"),
    ]:
        edited = list(lines)
        edited[target] = lines[target].replace("ghost:payload=[A,n1])", f"ghost:payload={payload})")
        bad = tmp_path / "bad.trc"
        bad.write_text("\n".join(edited) + "\n")
        result = subprocess.run(
            [sys.executable, *flags, "-m", "protolab", "replay", str(bad)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"error: event 4: field 'act': {named}\n"
        )


def edited_traces(text, drop=False):
    """The traces made from `text` by duplicating (or dropping) one event
    line, one per event, with the events renumbered and `end` fixed."""
    lines = text.splitlines()
    for pos, line in enumerate(lines):
        if not line.startswith("event "):
            continue
        edited, count = [], 0
        for other in lines[:pos] + ([] if drop else [line]) + lines[pos:]:
            if other.startswith("event "):
                count += 1
                other = re.sub(r"^event i=\d+ ", f"event i={count} ", other)
            elif other.startswith("end "):
                other = f"end events={count}"
            edited.append(other)
        yield "\n".join(edited) + "\n"


@pytest.fixture(scope="module")
def duplicated_event_traces(ns_cex_trace):
    sources = [GOLDEN / name for name in ("honest-ns.trc", "lowe-on-ns.trc", "lowe-on-nsl.trc")]
    return [
        (f"{path.stem}-dup{k}", text)
        for path in [*sources, ns_cex_trace]
        for k, text in enumerate(edited_traces(path.read_text()), start=1)
    ]


def test_no_trace_with_a_duplicated_event_replays_ok(tmp_path, duplicated_event_traces):
    # every event of the three goldens and of the attack counterexample
    assert len(duplicated_event_traces) == 11 + 13 + 8 + 13
    wrong = []
    for name, text in duplicated_event_traces:
        path = tmp_path / f"{name}.trc"
        path.write_text(text)
        code, out, err = run_cli("replay", str(path))
        diverged = code == 1 and out.startswith("replay diverged at event ")
        illegal = code == 2 and err.startswith("error: trace is not executable: event ")
        if not (diverged or illegal):
            wrong.append((name, code, out, err))
    assert wrong == []


# run under -O: explicit checks only, since -O strips asserts
_NO_ESCAPE = textwrap.dedent('''
    import io, pathlib, sys
    from protolab.cli import main
    for path in sorted(pathlib.Path(sys.argv[1]).glob("*.trc")):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = main(["replay", str(path)], out=out, err=err)
        except BaseException as exc:
            print(f"{path.name}: escaped {exc!r}")
            continue
        if code not in (0, 1, 2, 3):
            print(f"{path.name}: exit {code}")
        elif code == 2 and not err.getvalue().startswith("error: "):
            print(f"{path.name}: exit 2 without a diagnostic")
''')


def test_edited_traces_map_to_exit_codes_under_optimisation(tmp_path, duplicated_event_traces):
    # the duplicated-event traces, and each golden with one event dropped
    cases = list(duplicated_event_traces)
    for path in sorted(GOLDEN.glob("*.trc")):
        cases += [
            (f"{path.stem}-drop{k}", text)
            for k, text in enumerate(edited_traces(path.read_text(), drop=True), start=1)
        ]
    for name, text in cases:
        (tmp_path / f"{name}.trc").write_text(text)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _NO_ESCAPE, str(tmp_path)], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_unwritable_trace_out_is_a_clean_error(tmp_path):
    code, _, err = run_cli(
        "run",
        str(SCENARIOS / "honest-ns.scn"),
        "--trace-out",
        str(tmp_path / "missing-dir" / "x.trc"),
    )
    assert code == 2
    assert "error:" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "protolab", "run", str(SCENARIOS / "honest-ns.scn")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "end events=11" in result.stdout


def test_output_is_independent_of_hash_randomization():
    """Frozenset iteration order varies with the interpreter hash seed;
    nothing of that may reach the outputs."""
    import os

    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "protolab", "run", str(SCENARIOS / "lowe-on-ns.scn")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 1
        outputs.append(result.stdout)
        explored = subprocess.run(
            [
                sys.executable, "-m", "protolab", "explore",
                str(SCENARIOS / "ns-search.scn"), "--max-steps", "5", "--spec", "post-ns",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert explored.returncode == 3
        outputs.append(explored.stdout)
    assert outputs[0] == outputs[2]  # run traces identical across seeds
    assert outputs[1] == outputs[3]  # explored state counts identical across seeds
    assert outputs[0].rstrip("\n").endswith("end events=13")
