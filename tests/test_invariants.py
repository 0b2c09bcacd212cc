"""Predicate suite: each predicate against hand-evaluated cases plus the
states produced by real runs."""

from dataclasses import replace

import pytest

from protolab.invariants import (
    dyn_inv,
    inv_sigma,
    no_app_leaks,
    no_forge,
    no_leaks,
    no_read_others,
    unique_nonces,
)
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    add_knows,
    append_action,
    initial_state,
    open_session,
    u_hist,
)
from protolab.roles import Variant
from protolab.runner import execute_scripted, run_honest_pair
from protolab.scenario import load_scenario

from conftest import scenario

N1, N2, N3 = Nonce(1), Nonce(2), Nonce(3)


@pytest.fixture(scope="module")
def lowe_run():
    return execute_scripted(load_scenario(scenario('lowe-on-ns')))


# ── unique_nonces ────────────────────────────────────────────────────────────


def test_unique_nonces_empty():
    assert unique_nonces(()).holds


def test_unique_nonces_duplicate_inventions():
    report = unique_nonces((Invent("A", N1), Invent("B", N1)))
    assert not report.holds
    assert "(1,2)" in report.witness


def test_unique_nonces_message_reuse_is_fine():
    hist = (Invent("A", N1), Msg(rec="B", sender="A", content=(N1,)))
    assert unique_nonces(hist).holds


# ── no_read_others ───────────────────────────────────────────────────────────


def _bare(*uids, conforms=None):
    flags = {u: True for u in uids} if conforms is None else conforms
    state = initial_state(flags)
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


def test_no_read_others_initial():
    assert no_read_others(_bare("A", "B", "C")).holds


def test_no_read_others_detects_unjustified_knowledge():
    state = _bare("A", "B", "C")
    state = append_action(state, Invent("A", N1))
    state = append_action(state, Msg(rec="B", sender="A", content=(N1,)))
    state = add_knows(state, "C", "C#1", [N1])
    report = no_read_others(state)
    assert not report.holds
    assert "C" in report.witness and "n1" in report.witness


def test_no_read_others_holds_after_interception_attack(lowe_run):
    # the intruder got every nonce from mail addressed to it
    assert no_read_others(lowe_run.final_state).holds


# ── no_leaks / no_app_leaks ──────────────────────────────────────────────────


def intruder_forward_pair():
    return (
        Msg(rec="I", sender="A", content=("A", N1)),
        Msg(rec="B", sender="I", content=("A", N1)),
    )


def test_no_leaks_honest_receiver(lowe_run):
    # B replied to the claimed originator and to nobody else; the ghost pair
    # rule still holds on B's history prefix before the forged mail arrives
    state, _ = run_honest_pair("A", "B", Variant.NS)
    assert no_leaks(u_hist(state.history, "B")).holds


def test_no_leaks_flags_intruder_forward():
    report = no_leaks(intruder_forward_pair())
    assert not report.holds
    assert "n1" in report.witness


def test_no_leaks_disjoint_nonces():
    hist = (
        Msg(rec="I", sender="A", content=(N1,)),
        Msg(rec="B", sender="I", content=(N2,)),
    )
    assert no_leaks(hist).holds


def test_no_app_leaks_forward_to_wrong_principal():
    report = no_app_leaks(intruder_forward_pair())
    assert not report.holds
    assert "A" in report.witness


def test_no_app_leaks_vacuous_without_claimed_identity():
    hist = (
        Msg(rec="I", sender="A", content=(N1,)),
        Msg(rec="B", sender="I", content=(N1,)),
    )
    assert no_app_leaks(hist).holds


def test_no_app_leaks_return_to_claimed_originator():
    hist = (
        Msg(rec="I", sender="A", content=("A", N1)),
        Msg(rec="A", sender="I", content=(N1, N2)),
    )
    assert no_app_leaks(hist).holds


# ── no_forge ─────────────────────────────────────────────────────────────────


def test_no_forge_own_identity():
    assert no_forge((Msg(rec="B", sender="A", content=("A", N1)),)).holds


def test_no_forge_flags_forged_claim():
    report = no_forge((Msg(rec="B", sender="I", content=("A", N1)),))
    assert not report.holds
    assert "A" in report.witness


def test_no_forge_vacuous_for_nonce_only_content():
    assert no_forge((Msg(rec="B", sender="I", content=(N1, N2)),)).holds


def test_no_forge_owner_scoping_ignores_received_forgeries():
    # B's history contains somebody else's forgery; B's own obligation holds
    hist = (
        Msg(rec="B", sender="I", content=("A", N1)),
        Msg(rec="A", sender="B", content=(N1, N2)),
    )
    assert no_forge(hist, owner="B").holds
    assert not no_forge(hist, owner="I").holds


# ── inv_sigma ────────────────────────────────────────────────────────────────


def test_inv_sigma_along_honest_run():
    _, run = run_honest_pair("A", "B", Variant.NS)
    for state in run.checkable_states():
        assert inv_sigma(state).holds


def test_inv_sigma_attack_state_with_nonconforming_intruder(lowe_run):
    assert inv_sigma(lowe_run.final_state).holds


def test_inv_sigma_fails_if_intruder_were_conforming(lowe_run):
    final = lowe_run.final_state
    users = dict(final.users)
    users["I"] = replace(users["I"], conforms=True)
    flipped = replace(final, users=users)
    report = inv_sigma(flipped)
    assert not report.holds
    assert "I" in report.witness


# ── dyn_inv ──────────────────────────────────────────────────────────────────


def test_dyn_inv_reflexive():
    state = _bare("A")
    assert dyn_inv(state, state).holds


def test_dyn_inv_append_only():
    state = _bare("A", "B")
    state2 = append_action(state, Invent("A", N1))
    assert dyn_inv(state, state2).holds
    assert not dyn_inv(state2, state).holds


def test_dyn_inv_detects_shrinking_knowledge():
    state = add_knows(_bare("A"), "A", "A#1", [N1, N2])
    users = dict(state.users)
    users["A"] = replace(users["A"], knows={"A#1": frozenset({N1})})
    shrunk = replace(state, users=users)
    report = dyn_inv(state, shrunk)
    assert not report.holds
    assert "A#1" in report.witness


def test_dyn_inv_detects_conformity_flip():
    state = _bare("A")
    users = dict(state.users)
    users["A"] = replace(users["A"], conforms=False)
    report = dyn_inv(state, replace(state, users=users))
    assert not report.holds


def test_dyn_inv_holds_on_every_attack_transition(lowe_run):
    for _, _, before, after in lowe_run.transitions():
        assert dyn_inv(before, after).holds
