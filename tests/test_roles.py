"""Role machines: statement semantics, receive discipline, honest pairs."""

from dataclasses import replace as dc_replace

import pytest

from protolab.model import Invent, Msg, Nonce, append_action, initial_state, open_session
from protolab.roles import (
    ABSTRACT,
    IllegalMove,
    Inbox,
    RoleKind,
    Status,
    Variant,
    can_fire,
    find_match,
    make_machine,
    run_honest_pair,
    step,
)

N1, N2 = Nonce(1), Nonce(2)


def fresh(*uids):
    state = initial_state({u: True for u in uids})
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


def drive(machine, state, inbox=Inbox(), steps=1):
    for _ in range(steps):
        machine, state, inbox = step(machine, state, inbox, ABSTRACT)
    return machine, state, inbox


def test_sender_first_three_steps():
    state = fresh("A", "B")
    machine = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1", peer="B")
    machine, state, _ = drive(machine, state, steps=3)
    assert state.history == (
        Invent("A", N1),
        Msg(rec="B", sender="A", content=("A", N1)),
    )
    assert machine.local("NA") == N1
    assert state.users["A"].int_partner["A#1"] == "B"
    assert N1 in state.users["A"].knows["A#1"]


def test_sender_blocks_when_nothing_addressed_to_it():
    state = fresh("A", "B")
    machine = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1", peer="B")
    machine, state, inbox = drive(machine, state, steps=3)
    assert not can_fire(machine, state, inbox, ABSTRACT)
    with pytest.raises(IllegalMove, match="sender@A#1 has nothing to receive"):
        step(machine, state, inbox, ABSTRACT)


def test_nsl_sender_aborts_on_identity_mismatch():
    # reply claims B while the machine intended to talk to I
    state = fresh("A", "B", "I")
    machine = make_machine("A", RoleKind.SENDER, Variant.NSL, "A#1", peer="I")
    machine, state, inbox = drive(machine, state, Inbox(), steps=3)
    state = append_action(state, Msg(rec="A", sender="B", content=("B", N1, N2)))
    machine, state, inbox = step(machine, state, inbox, ABSTRACT)
    assert machine.status is Status.ABORTED
    assert state.users["A"].complete["A#1"] is False
    # a later wrong-nonce reply of the same shape also aborts the NS variant
    state2 = fresh("A", "B")
    m2 = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1", peer="B")
    m2, state2, i2 = drive(m2, state2, Inbox(), steps=3)
    state2 = append_action(state2, Msg(rec="A", sender="B", content=(N2, N2)))
    m2, state2, i2 = step(m2, state2, i2, ABSTRACT)
    assert m2.status is Status.ABORTED


def test_step_is_illegal_after_completion_or_abort():
    state, run = run_honest_pair("A", "B", Variant.NS)
    done = run.machines[0]
    assert done.status is Status.COMPLETED
    assert not can_fire(done, state, run.inbox, ABSTRACT)
    with pytest.raises(IllegalMove, match="sender@A#1 is completed"):
        step(done, state, run.inbox, ABSTRACT)
    aborted = dc_replace(done, status=Status.ABORTED)
    assert not can_fire(aborted, state, run.inbox, ABSTRACT)
    with pytest.raises(IllegalMove, match="sender@A#1 is aborted"):
        step(aborted, state, run.inbox, ABSTRACT)


def test_set_partner_without_a_partner_is_illegal():
    state = fresh("A", "B")
    machine = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1")
    assert not can_fire(machine, state, Inbox(), ABSTRACT)
    with pytest.raises(IllegalMove, match="sender@A#1 has no partner to set"):
        step(machine, state, Inbox(), ABSTRACT)


def test_honest_pair_ns_shape():
    state, run = run_honest_pair("A", "B", Variant.NS)
    invents = [a for a in state.history if isinstance(a, Invent)]
    msgs = [a for a in state.history if isinstance(a, Msg)]
    assert len(invents) == 2 and len(msgs) == 3
    assert state.users["A"].knows["A#1"] == state.users["B"].knows["B#1"] == {N1, N2}
    assert state.users["A"].complete["A#1"] and state.users["B"].complete["B#1"]
    assert state.users["A"].int_partner["A#1"] == "B"
    assert state.users["B"].int_partner["B#1"] == "A"


def test_honest_pair_nsl_reply_carries_identity():
    state, _ = run_honest_pair("A", "B", Variant.NSL)
    msgs = [a for a in state.history if isinstance(a, Msg)]
    assert [len(m.content) for m in msgs] == [2, 3, 1]
    assert msgs[1].content == ("B", N1, N2)


def test_self_session_completes_with_two_sessions():
    state, _ = run_honest_pair("A", "A", Variant.NS)
    assert state.users["A"].complete == {"A#1": True, "A#2": True}


def test_receive_takes_most_recent_matching_unread():
    state = fresh("A", "B")
    first = Msg(rec="B", sender="A", content=("A", N1))
    second = Msg(rec="B", sender="A", content=("A", N2))
    state = append_action(append_action(state, first), second)
    machine = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#1")
    machine, state, inbox = step(machine, state, Inbox(), ABSTRACT)
    assert machine.local("Nf") == N2  # newest first
    assert inbox.consumed_for("B") == {1}


def test_non_matching_message_left_for_other_machines():
    # a single-nonce message does not fit the opener pattern; the receiver
    # must leave it unread, and a machine expecting that shape can still take it
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=(N1,)))
    receiver = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#1")
    assert find_match(receiver, state, Inbox(), ABSTRACT) is None
    assert not can_fire(receiver, state, Inbox(), ABSTRACT)
    with pytest.raises(IllegalMove, match="receiver@B#1 has nothing to receive"):
        step(receiver, state, Inbox(), ABSTRACT)


def test_consumed_message_is_gone_for_everyone():
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=("A", N1)))
    first = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#1")
    second = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#2")
    first, state, inbox = step(first, state, Inbox(), ABSTRACT)
    assert find_match(second, state, inbox, ABSTRACT) is None


def test_mismatched_variants_stall_without_completing():
    # an initiator expecting the identity-carrying reply never accepts the
    # two-item one, so the pair quiesces incomplete instead of mis-binding
    from protolab.runner import execute_scripted
    from protolab.scenario import parse_scenario

    run = execute_scripted(
        parse_scenario(
            "protolab-scenario v1\n"
            "user A conforms=true\nuser B conforms=true\n"
            "role sender user=A peer=B variant=nsl\n"
            "role receiver user=B variant=ns\n"
            "intruder none\n"
        )
    )
    assert run.machines[0].status is not Status.COMPLETED
    assert run.final_state.users["A"].complete["A#1"] is False


def test_run_honest_pair_raises_on_non_completion(monkeypatch):
    import protolab.runner as runner_mod
    from protolab.roles import DeadlockError

    real = runner_mod.execute_scripted

    def sabotaged(scenario):
        run = real(scenario)
        machines = (dc_replace(run.machines[0], status=Status.RUNNING),) + run.machines[1:]
        run.config = dc_replace(run.config, machines=machines)
        return run

    monkeypatch.setattr(runner_mod, "execute_scripted", sabotaged)
    with pytest.raises(DeadlockError):
        run_honest_pair("A", "B", Variant.NS)
