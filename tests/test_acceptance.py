"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report."""

import io
import itertools
import time

import pytest

from protolab.cli import main
from protolab.crypto import abstract_of, dec, enc, match, registry_from_state
from protolab.invariants import no_app_leaks, no_forge, no_read_others, unique_nonces
from protolab.model import Invent, Msg, Nonce, initial_state, state_key, u_hist
from protolab.runner import execute_scripted
from protolab.scenario import load_scenario
from protolab.search import explore
from protolab.specs import (
    check_lemma_suite,
    check_post_ns,
    check_post_ns_all,
    check_post_nsl_ft,
)

from conftest import GOLDEN, SCENARIOS, explore_with_quiescents


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def runs():
    return {
        name: execute_scripted(load_scenario(SCENARIOS / f"{name}.scn"))
        for name in ("honest-ns", "lowe-on-ns", "lowe-on-nsl")
    }


@pytest.fixture(scope="module")
def ns_search_verdict():
    start = time.monotonic()
    verdict = explore(load_scenario(SCENARIOS / "ns-search.scn"), spec="post-ns")
    return verdict, time.monotonic() - start


@pytest.fixture(scope="module")
def nsl_search_result():
    start = time.monotonic()
    scenario = load_scenario(SCENARIOS / "nsl-search.scn")
    verdict, collected = explore_with_quiescents(scenario, "all")
    return verdict, time.monotonic() - start, collected


def message_shapes(history):
    renaming = {}
    shapes = []
    for act in history:
        if not isinstance(act, Msg):
            continue
        content = []
        for item in act.content:
            if isinstance(item, Nonce):
                renaming.setdefault(item, f"x{len(renaming) + 1}")
                content.append(renaming[item])
            else:
                content.append(item)
        shapes.append((act.rec, tuple(content)))
    return shapes


def test_criterion_1_honest_ns(runs, tmp_path):
    start = time.monotonic()
    code, _, _ = run_cli(
        "run", str(SCENARIOS / "honest-ns.scn"), "--trace-out", str(tmp_path / "h.trc")
    )
    elapsed = time.monotonic() - start
    run = runs["honest-ns"]
    final = run.final_state
    invents = [a for a in final.history if isinstance(a, Invent)]
    shapes = message_shapes(final.history)
    pair = check_post_ns(run.initial, final, "A", "B", "A#1", "B#1")
    ok = (
        code == 0
        and len(invents) == 2
        and shapes == [("B", ("A", "x1")), ("A", ("x1", "x2")), ("B", ("x2",))]
        and pair.holds
        and check_post_ns_all(final).holds
        and elapsed < 1.0
    )
    report("1 honest-ns shape + full contract incl. secrecy", ok)


def test_criterion_2_attack_reproduction(runs, tmp_path):
    got = tmp_path / "lowe.trc"
    code, _, _ = run_cli(
        "run", str(SCENARIOS / "lowe-on-ns.scn"), "--spec", "post-ns", "--trace-out", str(got)
    )
    run = runs["lowe-on-ns"]
    final = run.final_state
    shapes = message_shapes(final.history)
    verdict = check_post_ns_all(final)
    ok = (
        code == 1
        and shapes
        == [
            ("I", ("A", "x1")),
            ("B", ("A", "x1")),
            ("A", ("x1", "x2")),
            ("I", ("x2",)),
            ("B", ("x2",)),
        ]
        and final.users["B"].complete["B#1"]
        and final.users["B"].int_partner["B#1"] == "A"
        and final.users["I"].knows["I#1"] == {Nonce(1), Nonce(2)}
        and not verdict.holds
        and "secrecy" in verdict.detail
        and "mutual-partner" in verdict.detail
        and got.read_bytes() == (GOLDEN / "lowe-on-ns.trc").read_bytes()
    )
    report("2 five-message attack trace, golden byte match", ok)


def test_criterion_3_identity_check_aborts(runs, tmp_path):
    got = tmp_path / "nsl.trc"
    code, _, _ = run_cli(
        "run", str(SCENARIOS / "lowe-on-nsl.scn"), "--spec", "nsl-ft", "--trace-out", str(got)
    )
    run = runs["lowe-on-nsl"]
    final = run.final_state
    sender = run.machines[0]
    ok = (
        code == 0
        and run.events[-1].stmt == "recv-abort"
        and sender.status.value == "aborted"
        and final.users["A"].complete["A#1"] is False
        and check_post_nsl_ft(run.initial, final, "A", "I", "A#1").holds
        and got.read_bytes() == (GOLDEN / "lowe-on-nsl.trc").read_bytes()
    )
    report("3 identity check aborts the interception, golden byte match", ok)


def test_criterion_4_rediscovery_and_bounded_absence(ns_search_verdict, nsl_search_result):
    verdict, ns_elapsed = ns_search_verdict
    nsl_verdict, nsl_elapsed, _ = nsl_search_result
    cex = verdict.counterexample
    again = explore(load_scenario(SCENARIOS / "ns-search.scn"), spec="post-ns")
    ok = (
        not verdict.holds
        and not verdict.inconclusive
        and message_shapes(cex.final_state.history)
        == [
            ("I", ("A", "x1")),
            ("B", ("A", "x1")),
            ("A", ("x1", "x2")),
            ("I", ("x2",)),
            ("B", ("x2",)),
        ]
        and nsl_verdict.holds
        and not nsl_verdict.inconclusive
        and ns_elapsed < 60.0
        and nsl_elapsed < 60.0
        and verdict.states > 0
        and again.states == verdict.states
    )
    report("4 search rediscovers the attack; fixed variant holds in bounds", ok)


def test_criterion_5_invariant_suite(runs, ns_search_verdict):
    all_runs = list(runs.values()) + [ns_search_verdict[0].counterexample]
    failures = []
    for run in all_runs:
        for rep in check_lemma_suite(run):
            if not rep.holds:
                failures.append(rep)
        for state in run.checkable_states():
            if not unique_nonces(state.history).holds:
                failures.append("unique-nonces")
            if not no_read_others(state).holds:
                failures.append("no-read-others")
            for uid, user in state.users.items():
                if not user.conforms:
                    continue
                uh = u_hist(state.history, uid)
                if not no_app_leaks(uh).holds or not no_forge(uh, owner=uid).holds:
                    failures.append((uid, "obligations"))
    report("5 invariant suite: zero violations along all produced traces", not failures)


def test_criterion_6_layering(nsl_search_result):
    verdict, _, collected = nsl_search_result
    seen, mutual, violations = set(), 0, 0
    for state in collected:
        key = state_key(state)
        if key in seen:
            continue
        seen.add(key)
        has_pair = any(
            done
            and user.int_partner.get(sid) is not None
            and state.users[user.int_partner[sid]].conforms
            for user in state.users.values()
            if user.conforms
            for sid, done in user.complete.items()
        )
        if has_pair:
            mutual += 1
            if not check_post_ns_all(state).holds:
                violations += 1
    report("6 layered contract holds at every mutually-complete quiescent state",
           verdict.holds and mutual > 0 and violations == 0)


def test_criterion_7_refinement(runs):
    start = time.monotonic()
    ok = True
    for name in ("honest-ns", "lowe-on-ns", "lowe-on-nsl"):
        scenario = load_scenario(SCENARIOS / f"{name}.scn")
        concrete = execute_scripted(scenario.with_level("concrete"))
        abstract = runs[name]
        projected = abstract_of(concrete.final_state.history, concrete.registry)
        ok = ok and projected == abstract.final_state.history
        ok = ok and concrete.final_state.users == abstract.final_state.users
    reg = registry_from_state(initial_state({u: True for u in "ABCD"}))
    for pk_uid, sk_uid in itertools.product("ABCD", repeat=2):
        term = enc((Nonce(1),), reg.pkeys[pk_uid])
        hit = dec(term, reg.skeys[sk_uid], reg) == (Nonce(1),)
        ok = ok and hit == (pk_uid == sk_uid) == match(reg.pkeys[pk_uid], reg.skeys[sk_uid], reg)
    elapsed = time.monotonic() - start
    report("7 wire runs project exactly; key property exhaustive over 16 pairs",
           ok and elapsed < 1.0)


def test_criterion_8_determinism(ns_search_verdict, tmp_path):
    produced = []
    for name, spec in (("honest-ns", "all"), ("lowe-on-ns", "post-ns"), ("lowe-on-nsl", "nsl-ft")):
        for attempt in ("x", "y"):
            path = tmp_path / f"{name}-{attempt}.trc"
            run_cli("run", str(SCENARIOS / f"{name}.scn"), "--spec", spec,
                    "--trace-out", str(path))
            produced.append(path)
    cex_path = tmp_path / "cex.trc"
    run_cli("explore", str(SCENARIOS / "ns-search.scn"), "--spec", "post-ns",
            "--trace-out", str(cex_path))
    produced.append(cex_path)
    concrete = tmp_path / "concrete.trc"
    run_cli("run", str(SCENARIOS / "honest-ns.scn"), "--level", "concrete",
            "--trace-out", str(concrete))
    produced.append(concrete)

    ok = all(run_cli("replay", str(p))[0] == 0 for p in produced)
    for name in ("honest-ns", "lowe-on-ns", "lowe-on-nsl"):
        first = (tmp_path / f"{name}-x.trc").read_bytes()
        second = (tmp_path / f"{name}-y.trc").read_bytes()
        ok = ok and first == second
    report("8 every trace replays clean; reruns byte-identical", ok)
