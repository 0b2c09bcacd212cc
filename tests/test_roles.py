"""Role machines: statement semantics, receive discipline, honest pairs."""

import io
from collections import Counter
from types import SimpleNamespace

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
    InventStmt,
    RecvStmt,
    RoleKind,
    RoleMachine,
    SendStmt,
    Status,
    Variant,
    can_fire,
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
    machine = RoleMachine("A", Variant.NS, RoleKind.SENDER, "A#1", peer="B")
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
    machine = RoleMachine("A", Variant.NS, RoleKind.SENDER, "A#1", peer="B")
    machine, state, inbox = drive(machine, state, steps=3)
    assert reference_find_match(machine, state, inbox, ABSTRACT) is None
    assert not can_fire(machine, None)
    with pytest.raises(IllegalMove, match="sender@A#1 has nothing to receive"):
        step(machine, state, inbox, ABSTRACT, found=None)


def test_nsl_sender_aborts_on_identity_mismatch():
    # reply claims B while the machine intended to talk to I
    state = fresh("A", "B", "I")
    machine = RoleMachine("A", Variant.NSL, RoleKind.SENDER, "A#1", peer="I")
    machine, state, inbox = drive(machine, state, Inbox(), steps=3)
    state = append_action(state, Msg(rec="A", sender="B", content=("B", N1, N2)))
    machine, state, inbox = drive(machine, state, inbox)
    assert machine.status is Status.ABORTED
    assert state.users["A"].complete["A#1"] is False
    # a later wrong-nonce reply of the same shape also aborts the NS variant
    state2 = fresh("A", "B")
    m2 = RoleMachine("A", Variant.NS, RoleKind.SENDER, "A#1", peer="B")
    m2, state2, i2 = drive(m2, state2, Inbox(), steps=3)
    state2 = append_action(state2, Msg(rec="A", sender="B", content=(N2, N2)))
    m2, state2, i2 = drive(m2, state2, i2)
    assert m2.status is Status.ABORTED


def test_step_is_illegal_after_completion_or_abort():
    state, run = run_honest_pair("A", "B", Variant.NS)
    done = run.machines[0]
    assert done.status is Status.COMPLETED
    assert not can_fire(done, reference_find_match(done, state, run.config.inbox, ABSTRACT))
    with pytest.raises(IllegalMove, match="sender@A#1 is completed"):
        step(done, state, run.config.inbox, ABSTRACT)
    aborted = done._replace(status=Status.ABORTED)
    assert not can_fire(aborted, reference_find_match(aborted, state, run.config.inbox, ABSTRACT))
    with pytest.raises(IllegalMove, match="sender@A#1 is aborted"):
        step(aborted, state, run.config.inbox, ABSTRACT)


def test_set_partner_without_a_partner_is_illegal():
    state = fresh("A", "B")
    machine = RoleMachine("A", Variant.NS, RoleKind.SENDER, "A#1")
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
    machine = RoleMachine("B", Variant.NS, RoleKind.RECEIVER, "B#1")
    machine, state, inbox = drive(machine, state)
    assert machine.local("Nf") == N2  # newest first
    assert inbox.consumed == (("B", {1}),)


def test_non_matching_message_left_for_other_machines():
    # a single-nonce message does not fit the opener pattern; the receiver
    # must leave it unread, and a machine expecting that shape can still take it
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=(N1,)))
    receiver = RoleMachine("B", Variant.NS, RoleKind.RECEIVER, "B#1")
    assert reference_find_match(receiver, state, Inbox(), ABSTRACT) is None
    assert not can_fire(receiver, None)
    with pytest.raises(IllegalMove, match="receiver@B#1 has nothing to receive"):
        step(receiver, state, Inbox(), ABSTRACT, found=None)


def test_consumed_message_is_gone_for_everyone():
    state = fresh("A", "B")
    state = append_action(state, Msg(rec="B", sender="A", content=("A", N1)))
    first = RoleMachine("B", Variant.NS, RoleKind.RECEIVER, "B#1")
    second = RoleMachine("B", Variant.NS, RoleKind.RECEIVER, "B#2")
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
        machines = (run.machines[0]._replace(status=Status.RUNNING),) + run.machines[1:]
        run.config = run.config._replace(machines=machines)
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


# ── a receive's checks against the guard code they replaced ──────────────────


def reference_guard_passes(machine, stmt, bound) -> bool:
    """Whether a receive's guard passes, as code that names each guard and
    reads the variant: the receive guard before a receive's checks were
    data, kept as the reference for them.  `stmt.guard` names the guard."""
    if stmt.guard == "sender-check":
        if bound["ret"] != machine.local("NA"):
            return False
        if machine.variant is Variant.NSL and bound["claim"] != machine.peer:
            return False
        return True
    if stmt.guard == "ret-eq-nb":
        return bound["ret"] == machine.local("NB")
    assert stmt.guard is None
    return True


def program(kind, variant):
    return RoleMachine("A", variant, kind, "A#1").statements()


KINDS = (RoleKind.SENDER, RoleKind.RECEIVER)
VARIANTS = (Variant.NS, Variant.NSL)
# the guard each receive had, by role and program counter, in both variants
REFERENCE_GUARDS = {
    (RoleKind.SENDER, 3): "sender-check",
    (RoleKind.RECEIVER, 0): None,
    (RoleKind.RECEIVER, 3): "ret-eq-nb",
}
RECEIVES = [
    (kind, variant, pc)
    for kind in KINDS
    for variant in VARIANTS
    for pc, stmt in enumerate(program(kind, variant))
    if isinstance(stmt, RecvStmt)
]
PRINCIPALS = ("A", "B", "I")
NONCES = (N1, N2, Nonce(3))
KIND_ITEMS = {"u": st.sampled_from(PRINCIPALS), "n": st.sampled_from(NONCES)}


@st.composite
def waiting_receives(draw):
    """(machine, content): a machine of either role and variant at one of
    its receives, with drawn locals and peer, and a content of the pattern
    it waits for.  Items come from A, B, I and n1-n3."""
    kind, variant, pc = draw(st.sampled_from(RECEIVES))
    owner = draw(st.sampled_from(PRINCIPALS))
    statements = program(kind, variant)
    bound_before = dict.fromkeys(
        name
        for stmt in statements[:pc]
        for name in (
            stmt.binds if isinstance(stmt, RecvStmt)
            else (stmt.bind,) if isinstance(stmt, InventStmt)
            else ()
        )
    )
    locals = tuple(
        sorted((name, draw(st.sampled_from(PRINCIPALS + NONCES))) for name in bound_before)
    )
    peer = draw(st.sampled_from((None,) + PRINCIPALS))
    machine = RoleMachine(owner, variant, kind, f"{owner}#1")._replace(
        pc=pc, locals=locals, peer=peer
    )
    return machine, tuple(draw(KIND_ITEMS[k]) for k in statements[pc].pattern)


NSL_INITIATOR_AT_MESSAGE_2 = RoleMachine("A", Variant.NSL, RoleKind.SENDER, "A#1", "B")._replace(
    pc=3, locals=(("NA", N1),)
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=waiting_receives())
@example(case=(NSL_INITIATOR_AT_MESSAGE_2, ("B", N1, N2)))  # its partner's reply
@example(case=(NSL_INITIATOR_AT_MESSAGE_2._replace(peer="I"), ("B", N1, N2)))  # another's
def test_a_receive_aborts_exactly_when_the_reference_guard_fails(case):
    # every receive of the four programs, with any bound items, locals and
    # partner: `step` aborts the machine exactly when the guard code the
    # checks replaced fails, and takes the message either way
    machine, content = case
    state = append_action(fresh(*PRINCIPALS), Msg(rec=machine.owner, sender="I", content=content))
    found = len(state.history) - 1
    after, _, inbox = step(machine, state, Inbox(), ABSTRACT, found=found)
    stmt = machine.current()
    guard = SimpleNamespace(guard=REFERENCE_GUARDS[machine.kind, machine.pc])
    passes = reference_guard_passes(machine, guard, dict(zip(stmt.binds, content)))
    assert after.status is (Status.RUNNING if passes else Status.ABORTED)
    assert after.pc == machine.pc + passes
    assert inbox.consumed == ((machine.owner, {found}),)


def test_nsl_is_ns_with_message_two_changed():
    # Lowe's fix changes message 2 alone: the responder names itself in its
    # reply, and the initiator's receive of the reply binds that name first
    # and checks it against its intended partner; every other statement is
    # the same
    for kind, changed in ((RoleKind.SENDER, 3), (RoleKind.RECEIVER, 2)):
        ns, nsl = program(kind, Variant.NS), program(kind, Variant.NSL)
        assert len(ns) == len(nsl)
        assert [pc for pc, pair in enumerate(zip(ns, nsl)) if pair[0] != pair[1]] == [changed]
    ns_recv, nsl_recv = (program(RoleKind.SENDER, variant)[3] for variant in VARIANTS)
    assert isinstance(ns_recv, RecvStmt) and isinstance(nsl_recv, RecvStmt)
    assert nsl_recv.pattern == ("u", *ns_recv.pattern)
    assert nsl_recv.binds == ("claim", *ns_recv.binds)
    assert nsl_recv.checks == (("claim", "peer"), *ns_recv.checks)
    assert nsl_recv.learn == ns_recv.learn
    ns_reply, nsl_reply = (program(RoleKind.RECEIVER, variant)[2] for variant in VARIANTS)
    assert isinstance(ns_reply, SendStmt) and isinstance(nsl_reply, SendStmt)
    assert nsl_reply == ns_reply._replace(template=("this", *ns_reply.template))
