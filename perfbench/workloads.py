"""The benchmark's workloads: inputs, operations and hand-written known answers.

Every operation is one call of `protolab.cli.main`.  Its expectation is
written here from the protocol's known behaviour, never copied from the
program's output.  State counts are deliberately not part of any known
answer: a different search strategy legitimately changes them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    seconds: float  # wall time
    problems: list[str] = field(default_factory=list)  # raised, timed out, ...
    ref_seconds: float | None = None  # wall time at reference speed, when sampled


@dataclass
class Op:
    argv: list[str]
    expect: Callable[[Outcome], list[str]]  # known answer -> problems found
    timed: str | None = None  # end-to-end timing it feeds: explore, run or replay


@dataclass
class Plan:
    ops: list[Op]  # one cycle, run in order
    stable_files: list[Path]  # bytes must not change between cycles or runs
    self_test: Op  # a passing replay of a trace the negative self-test corrupts
    extra_ops: list[Op] = field(default_factory=list)  # once per run, after the cycles
    input_key: str = ""  # the part of the input the seed decides


@dataclass(frozen=True)
class Workload:
    why: str
    plan: Callable[[Path, Path, int], Plan]  # (checkout root, work dir, seed) -> Plan


_VERDICT_RE = re.compile(r'^verdict spec=(\S+) holds=(true|false)(?: detail="(.*)")?$', re.M)
_MSG_RE = re.compile(r"act=msg\(rec=(\w+),ghost:sender=(\w+),\[([^\]]*)\]\)")

INCONCLUSIVE = "step bound cut branches that still had enabled moves"

# Lowe's interception of NS, as (sender, recipient, content).
LOWE_ATTACK = [
    ("A", "I", ("A", "n1")),
    ("I", "B", ("A", "n1")),
    ("B", "A", ("n1", "n2")),
    ("A", "I", ("n2",)),
    ("I", "B", ("n2",)),
]

# Events in each golden trace: one honest NS handshake, the interception,
# and the interception cut short by NSL's identity check.
GOLDEN_EVENTS = {"honest-ns.trc": 11, "lowe-on-ns.trc": 13, "lowe-on-nsl.trc": 8}

AUDIT_PAIRS = 24
AUDIT_EVENTS = 11 * AUDIT_PAIRS  # 11 events per completed NSL handshake

ALL_HOLD = {"post-ns": (True, ""), "nsl-ft": (True, ""), "inv": (True, "")}


def verdicts(text: str) -> dict[str, tuple[bool, str]]:
    return {spec: (holds == "true", detail) for spec, holds, detail in _VERDICT_RE.findall(text)}


def expect_code(outcome: Outcome, code: int) -> list[str]:
    if outcome.code != code:
        return [f"exit {outcome.code}, expected {code}; stderr: {outcome.err.strip()[:200]}"]
    return []


def expect_verdicts(outcome: Outcome, code: int, expected: dict) -> list[str]:
    problems = expect_code(outcome, code)
    got = verdicts(outcome.out)
    if got != expected:
        problems.append(f"verdicts {got}, expected {expected}")
    return problems


def expect_replay(events: int) -> Callable[[Outcome], list[str]]:
    def check(outcome: Outcome) -> list[str]:
        problems = expect_code(outcome, 0)
        if outcome.out != f"replay ok: {events} events verified\n":
            problems.append(f"replay printed {outcome.out.strip()!r}, expected {events} events ok")
        return problems

    return check


def golden_replays(root: Path) -> list[Op]:
    return [
        Op(["replay", str(root / "tests" / "golden" / name)], expect_replay(events))
        for name, events in GOLDEN_EVENTS.items()
    ]


# ── attack-ns ────────────────────────────────────────────────────────────────


def attack_ns(root: Path, work: Path, seed: int) -> Plan:
    cex = work / "cex.trc"

    def check_attack(outcome: Outcome) -> list[str]:
        problems = expect_code(outcome, 1)
        got = verdicts(outcome.out)
        holds, detail = got.get("post-ns", (True, ""))
        if set(got) != {"post-ns"} or holds:
            problems.append(f"verdicts {got}, expected post-ns holds=false")
        if detail.startswith("environment broke rely"):
            problems.append("violation blamed on the environment")
        if "B session B#1 completed with partner A" not in detail:
            problems.append(f"detail does not show B#1 completing with A: {detail!r}")
        if not cex.exists():
            return problems + ["no counterexample trace written"]
        text = cex.read_text(encoding="utf-8")
        messages = [(s, r, tuple(c.split(","))) for r, s, c in _MSG_RE.findall(text)]
        if messages != LOWE_ATTACK:
            problems.append(f"counterexample messages {messages}, expected Lowe's five")
        if not re.search(r"^event i=\d+ actor=receiver@B#1 stmt=finish ", text, re.M):
            problems.append("B#1 does not finish in the counterexample")
        return problems

    scenario = str(root / "scenarios" / "ns-search.scn")
    return Plan(
        ops=[
            Op(["explore", scenario, "--spec", "post-ns", "--trace-out", str(cex)], check_attack, "explore"),
            Op(["replay", str(cex)], expect_replay(13)),
        ],
        stable_files=[cex],
        self_test=Op(["replay", str(cex)], expect_replay(13)),
    )


# ── certify-nsl ──────────────────────────────────────────────────────────────


def certify_nsl(root: Path, work: Path, seed: int) -> Plan:
    scenario = str(root / "scenarios" / "nsl-search.scn")
    return Plan(
        ops=[
            Op(
                ["explore", scenario, "--spec", "all", "--max-steps", "64"],
                lambda o: expect_verdicts(o, 0, {"all": (True, "")}),
                "explore",
            )
        ],
        stable_files=[],
        self_test=golden_replays(root)[1],
    )


# ── scale-nsl ────────────────────────────────────────────────────────────────

# nsl-search.scn with a second initiator session for A and a lower step bound.
SCALE_SCENARIO = """protolab-scenario v1
user A conforms=true
user B conforms=true
user I conforms=false
role sender user=A variant=nsl
role sender user=A variant=nsl
role receiver user=B variant=nsl
intruder search user=I
bounds max_steps=10 max_content_len=2 max_intruder_invents=0 max_sessions_per_user=4
level abstract
"""


def scale_nsl(root: Path, work: Path, seed: int) -> Plan:
    scenario = work / "scale-nsl.scn"
    scenario.write_text(SCALE_SCENARIO, encoding="utf-8")

    def check_scale(outcome: Outcome) -> list[str]:
        problems = expect_verdicts(outcome, 3, {"all": (False, INCONCLUSIVE)})
        if "protolab-trace" in outcome.out:
            problems.append("an inconclusive search printed a counterexample")
        return problems

    return Plan(
        ops=[Op(["explore", str(scenario), "--spec", "all"], check_scale, "explore")],
        stable_files=[],
        self_test=golden_replays(root)[1],
    )


# ── audit-long ───────────────────────────────────────────────────────────────


def audit_scenario(seed: int) -> str:
    """Intruder-free NSL: 24 disjoint initiator/responder pairs, role
    declarations in an order the seed shuffles."""
    pairs = [(f"P{i:02d}", f"R{i:02d}") for i in range(AUDIT_PAIRS)]
    lines = ["protolab-scenario v1"]
    for a, b in pairs:
        lines += [f"user {a} conforms=true", f"user {b} conforms=true"]
    roles = []
    for a, b in pairs:
        roles += [f"role sender user={a} peer={b} variant=nsl", f"role receiver user={b} variant=nsl"]
    random.Random(seed).shuffle(roles)
    return "\n".join(lines + roles + ["intruder none", "level abstract"]) + "\n"


def audit_long(root: Path, work: Path, seed: int) -> Plan:
    scenario = work / "audit.scn"
    scenario.write_text(audit_scenario(seed), encoding="utf-8")
    traces = {level: work / f"audit-{level}.trc" for level in ("abstract", "concrete")}

    def run(scn: Path, level: str, path: Path) -> list[str]:
        return ["run", str(scn), "--spec", "all", "--level", level, "--trace-out", str(path)]

    # The same known answers from another seed, with a trace of its own.
    other_scn = work / "audit-other.scn"
    other_scn.write_text(audit_scenario(seed + 1), encoding="utf-8")
    other = work / "audit-other.trc"

    def check_other(outcome: Outcome) -> list[str]:
        problems = expect_verdicts(outcome, 0, ALL_HOLD)
        if other.read_bytes() == traces["abstract"].read_bytes():
            problems.append(f"seeds {seed} and {seed + 1} gave identical traces")
        return problems

    return Plan(
        ops=[Op(run(scenario, level, path), lambda o: expect_verdicts(o, 0, ALL_HOLD), "run")
             for level, path in traces.items()]
        + [Op(["replay", str(path)], expect_replay(AUDIT_EVENTS), "replay") for path in traces.values()]
        + golden_replays(root),
        stable_files=list(traces.values()),
        self_test=Op(["replay", str(traces["abstract"])], expect_replay(AUDIT_EVENTS)),
        extra_ops=[Op(run(other_scn, "abstract", other), check_other)],
        input_key=f"seed={seed}",
    )


WORKLOADS = {
    "attack-ns": Workload(
        "finds Lowe's attack on NS; dominated by intruder move generation, exits early at depth 13",
        attack_ns,
    ),
    "certify-nsl": Workload(
        "certifies NSL at a deep bound; 165 distinct nodes re-expanded 57x, so search strategy dominates",
        certify_nsl,
    ),
    "scale-nsl": Workload(
        "exhaustive to the bound with no early exit; the largest visited set, memory and per-node history",
        scale_nsl,
    ),
    "audit-long": Workload(
        "seeded 264-event NSL runs and replays; bypasses search and intruder, stresses specs, trace, crypto",
        audit_long,
    ),
}
