"""Role machines: statement semantics, receive discipline, honest pairs."""

import io
from collections import Counter
from dataclasses import replace as dc_replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protolab.crypto import ConcreteMedium, KeyRegistry, WireMsg, enc
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    PKey,
    SKey,
    append_action,
    initial_state,
    open_session,
)
from protolab.roles import (
    ABSTRACT,
    IllegalMove,
    Inbox,
    RoleKind,
    Status,
    Variant,
    can_fire,
    make_machine,
    step,
)
from protolab.runner import DeadlockError, run_honest_pair

from conftest import reads, reference_find_match

N1, N2 = Nonce(1), Nonce(2)


def fresh(*uids):
    state = initial_state({u: True for u in uids})
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


def drive(machine, state, inbox=Inbox(), steps=1):
    """`steps` steps of `machine`, each receive taking the message the
    receive rule finds."""
    for _ in range(steps):
        found = reference_find_match(machine, state, inbox, ABSTRACT)
        machine, state, inbox = step(machine, state, inbox, ABSTRACT, found=found)
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
    assert reference_find_match(machine, state, inbox, ABSTRACT) is None
    assert not can_fire(machine, None)
    with pytest.raises(IllegalMove, match="sender@A#1 has nothing to receive"):
        step(machine, state, inbox, ABSTRACT, found=None)


def test_nsl_sender_aborts_on_identity_mismatch():
    # reply claims B while the machine intended to talk to I
    state = fresh("A", "B", "I")
    machine = make_machine("A", RoleKind.SENDER, Variant.NSL, "A#1", peer="I")
    machine, state, inbox = drive(machine, state, Inbox(), steps=3)
    state = append_action(state, Msg(rec="A", sender="B", content=("B", N1, N2)))
    machine, state, inbox = drive(machine, state, inbox)
    assert machine.status is Status.ABORTED
    assert state.users["A"].complete["A#1"] is False
    # a later wrong-nonce reply of the same shape also aborts the NS variant
    state2 = fresh("A", "B")
    m2 = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1", peer="B")
    m2, state2, i2 = drive(m2, state2, Inbox(), steps=3)
    state2 = append_action(state2, Msg(rec="A", sender="B", content=(N2, N2)))
    m2, state2, i2 = drive(m2, state2, i2)
    assert m2.status is Status.ABORTED


def test_step_is_illegal_after_completion_or_abort():
    state, run = run_honest_pair("A", "B", Variant.NS)
    done = run.machines[0]
    assert done.status is Status.COMPLETED
    assert not can_fire(done, reference_find_match(done, state, run.inbox, ABSTRACT))
    with pytest.raises(IllegalMove, match="sender@A#1 is completed"):
        step(done, state, run.inbox, ABSTRACT)
    aborted = dc_replace(done, status=Status.ABORTED)
    assert not can_fire(aborted, reference_find_match(aborted, state, run.inbox, ABSTRACT))
    with pytest.raises(IllegalMove, match="sender@A#1 is aborted"):
        step(aborted, state, run.inbox, ABSTRACT)


def test_set_partner_without_a_partner_is_illegal():
    state = fresh("A", "B")
    machine = make_machine("A", RoleKind.SENDER, Variant.NS, "A#1")
    assert not can_fire(machine, None)
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
    machine, state, inbox = drive(machine, state)
    assert machine.local("Nf") == N2  # newest first
    assert inbox.consumed == (("B", {1}),)


def test_non_matching_message_left_for_other_machines():
    # a single-nonce message does not fit the opener pattern; the receiver
    # must leave it unread, and a machine expecting that shape can still take it
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=(N1,)))
    receiver = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#1")
    assert reference_find_match(receiver, state, Inbox(), ABSTRACT) is None
    assert not can_fire(receiver, None)
    with pytest.raises(IllegalMove, match="receiver@B#1 has nothing to receive"):
        step(receiver, state, Inbox(), ABSTRACT, found=None)


def test_consumed_message_is_gone_for_everyone():
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=("A", N1)))
    first = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#1")
    second = make_machine("B", RoleKind.RECEIVER, Variant.NS, "B#2")
    first, state, inbox = drive(first, state)
    assert reference_find_match(second, state, inbox, ABSTRACT) is None


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

    real = runner_mod.execute_scripted

    def sabotaged(scenario):
        run = real(scenario)
        machines = (dc_replace(run.machines[0], status=Status.RUNNING),) + run.machines[1:]
        run.config = dc_replace(run.config, machines=machines)
        return run

    monkeypatch.setattr(runner_mod, "execute_scripted", sabotaged)
    with pytest.raises(DeadlockError):
        run_honest_pair("A", "B", Variant.NS)


# ── receive matching against a scan of the whole history ────────────────────


MATCH_USERS = ("A", "B", "C")
# A and B share a public key, so a wire message under it is mail for both;
# nobody holds pk:B, and Z is no user at all
SHARED_KEY = KeyRegistry(
    pkeys={"A": PKey("pk:A"), "B": PKey("pk:A"), "C": PKey("pk:C")},
    skeys={uid: SKey(f"sk:{uid}") for uid in MATCH_USERS},
)
MEDIA = {"abstract": ABSTRACT, "concrete": ConcreteMedium(SHARED_KEY)}
MATCH_ITEMS = st.sampled_from(["A", "B", "C", N1, N2, Nonce(3)])
MATCH_ACTIONS = st.one_of(
    st.tuples(
        st.just("msg"),
        st.sampled_from(["A", "B", "C", "Z"]),  # the recipient, or the key's name
        st.sampled_from(MATCH_USERS),
        st.lists(MATCH_ITEMS, min_size=1, max_size=3).map(tuple),
    ),
    st.tuples(st.just("invent"), st.sampled_from(MATCH_USERS), st.integers(1, 3)),
)


def planted(action, level):
    if action[0] == "invent":
        _, user, ix = action
        return Invent(user, Nonce(ix))
    _, who, sender, content = action
    if level == "abstract":
        return Msg(rec=who, sender=sender, content=content)
    return WireMsg(body=enc(content, PKey(f"pk:{who}")), ghost_sender=sender)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level=st.sampled_from(["abstract", "concrete"]), action=MATCH_ACTIONS)
@example(level="concrete", action=("msg", "A", "C", ("C", N1)))  # B reads it too
def test_readers_are_exactly_the_users_that_can_read(level, action):
    # a run files each appended action with its `readers`: they must be the
    # users that read the content (the reference `reads`, built on the
    # message record and on decryption), each named once, at both levels and
    # under a key several users share or nobody holds (at the abstract level
    # a message to Z is read by Z, who is no user)
    medium, act = MEDIA[level], planted(action, level)
    users, content = medium.readers(act)
    assert len(set(users)) == len(users)
    readable = {uid: reads(medium, act, uid) for uid in MATCH_USERS}
    if level == "abstract":
        readable["Z"] = reads(medium, act, "Z")
    assert sorted(users) == [uid for uid, items in readable.items() if items is not None]
    assert all(readable[uid] == content for uid in users)


# Two NS initiators at A and two responders at B: each receive chooses
# among several messages of its kind, and consumed ones stay in the history.
TWO_BY_TWO = """protolab-scenario v1
user A conforms=true
user B conforms=true
role sender user=A peer=B variant=ns
role sender user=A peer=B variant=ns
role receiver user=B variant=ns
role receiver user=B variant=ns
intruder none
"""


def test_receive_matching_equals_a_scan_of_the_history(monkeypatch, tmp_path):
    # before every step of scripted runs and their re-executions at both
    # levels, a search counterexample's re-execution, and the replays of the
    # goldens and of a wire trace (with its recipient-field twin), the run's
    # mail gives each machine the index a scan of the whole history finds
    from protolab.cli import main
    from protolab.runner import TraceRun, execute_schedule, execute_scripted, schedule_from_doc
    from protolab.scenario import load_scenario, parse_scenario
    from protolab.search import explore

    from conftest import GOLDEN, scenario

    advance, checked = TraceRun.advance, Counter()

    def checking(run, entry):
        config = run.config
        for index, machine in enumerate(config.machines):
            found = run.found(index)
            assert found == reference_find_match(machine, config.state, config.inbox, run.medium)
            checked[found is not None] += 1
        return advance(run, entry)

    monkeypatch.setattr(TraceRun, "advance", checking)
    inputs = [load_scenario(scenario(name)) for name in ("honest-ns", "lowe-on-ns", "lowe-on-nsl")]
    for sc in [*inputs, parse_scenario(TWO_BY_TWO)]:
        for level in ("abstract", "concrete"):
            sc = sc.with_level(level)
            run = execute_scripted(sc)
            execute_schedule(sc, schedule_from_doc(run.to_doc(), sc))
    verdict = explore(load_scenario(scenario("ns-search")), spec="post-ns")
    assert verdict.counterexample is not None
    wire = tmp_path / "wire.trc"
    out = io.StringIO()
    assert main(["run", scenario("lowe-on-ns"), "--level", "concrete", "--trace-out", str(wire)], out) == 1
    for trace in [*sorted(GOLDEN.glob("*.trc")), wire]:
        assert main(["replay", str(trace)], out) == 0, out.getvalue()
    assert checked[True] > 100 and checked[False] > 100
