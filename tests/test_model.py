"""Core model: history functions, sequence helpers, ghost-field discipline."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protolab.crypto import WireMsg, enc
from protolab.model import (
    FreshnessViolation,
    Invent,
    LengthMismatch,
    Msg,
    Nonce,
    _nonces_in_history,
    add_knows,
    append_action,
    append_invention,
    count,
    initial_state,
    nonce_like,
    open_session,
    select,
    set_complete,
    set_partner,
    state_key,
    subseq,
    u_hist,
)
from protolab.invariants import dyn_inv
from protolab.roles import ABSTRACT, Inbox, RoleKind, RoleMachine, Variant, step

from conftest import reads, reference_find_match

N1, N2, N3 = Nonce(1), Nonce(2), Nonce(3)


def subseq_oracle(s1, s2):
    """Independent definition: some boolean mask over s2 selects exactly s1."""
    return any(
        select(mask, s2) == tuple(s1)
        for mask in itertools.product([False, True], repeat=len(s2))
    )


# ── select ───────────────────────────────────────────────────────────────────


def test_select_hand_evaluated():
    assert select([True, False, True], ["x", "y", "z"]) == ("x", "z")
    assert select([], []) == ()
    assert select([False, False], ["x", "y"]) == ()
    assert select([True, True], ["x", "y"]) == ("x", "y")


def test_select_length_mismatch():
    with pytest.raises(LengthMismatch):
        select([True], ["x", "y"])


# ── subseq ───────────────────────────────────────────────────────────────────


def test_subseq_empty_is_subsequence_of_anything():
    assert subseq([], [])
    assert subseq([], ["x", "y", "z"])


def test_subseq_order_matters():
    # exhaustive over the 4 masks of a length-2 list: ("y","x") is never selected
    assert not subseq_oracle(["y", "x"], ["x", "y"])
    assert not subseq(["y", "x"], ["x", "y"])
    assert subseq(["x", "y"], ["x", "y"])


def test_subseq_agrees_with_mask_oracle_exhaustively():
    universe = ["a", "b"]
    for n2 in range(0, 5):
        for s2 in itertools.product(universe, repeat=n2):
            for n1 in range(0, 3):
                for s1 in itertools.product(universe, repeat=n1):
                    assert subseq(s1, s2) == subseq_oracle(s1, s2), (s1, s2)


# ── u_hist ───────────────────────────────────────────────────────────────────

HIST = (
    Invent("A", N1),
    Msg(rec="B", sender="A", content=("A", N1)),
    Invent("C", N2),
)


def test_u_hist_empty():
    assert u_hist((), "A") == ()


def test_u_hist_keeps_own_actions_in_order():
    # hand evaluation: A invented N1 and sent the message; C's invention drops
    assert u_hist(HIST, "A") == (HIST[0], HIST[1])
    # B is the recipient of the message only
    assert u_hist(HIST, "B") == (HIST[1],)


def test_u_hist_absent_user():
    assert u_hist(HIST, "D") == ()


def test_u_hist_is_subsequence_of_history():
    rng = random.Random(7)
    users = ["A", "B", "C"]
    for _ in range(50):
        hist = []
        nonce_ix = 0
        for _ in range(rng.randrange(0, 8)):
            if rng.random() < 0.4:
                nonce_ix += 1
                hist.append(Invent(rng.choice(users), Nonce(nonce_ix)))
            else:
                items = tuple(
                    rng.choice([rng.choice(users), Nonce(rng.randrange(1, 4))])
                    for _ in range(rng.randrange(1, 3))
                )
                hist.append(Msg(rec=rng.choice(users), sender=rng.choice(users), content=items))
        for user in users:
            assert subseq_oracle(u_hist(tuple(hist), user), tuple(hist))


# ── append_action ────────────────────────────────────────────────────────────


def fresh_state(*uids, conforms=True):
    state = initial_state({u: conforms for u in uids})
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


def test_append_invent_to_empty_history():
    state = fresh_state("A")
    state2 = append_action(state, Invent("A", N1))
    assert state2.history == (Invent("A", N1),)
    assert state.history == ()  # original untouched


def test_append_reused_nonce_rejected():
    state = append_action(fresh_state("A", "B"), Invent("A", N1))
    with pytest.raises(FreshnessViolation):
        append_action(state, Invent("B", N1))


def test_append_msg_satisfies_transition_invariant():
    state = append_action(fresh_state("A", "B"), Invent("A", N1))
    state2 = append_action(state, Msg(rec="B", sender="A", content=("A", N1)))
    assert state2.history[:1] == state.history
    report = dyn_inv(state, state2)
    assert report.holds
    assert state2.users == state.users
    assert state2.pkeys == state.pkeys


# ── the top nonce a state carries ────────────────────────────────────────────

ITEMS = st.lists(
    st.one_of(st.sampled_from("ABC"), st.integers(1, 12).map(Nonce)), min_size=1, max_size=3
).map(tuple)

# (what, user, argument): an action appended, an invention of the next
# nonce, or a record helper
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("msg"), st.sampled_from("ABC"), ITEMS),
        st.tuples(st.just("wire"), st.sampled_from("ABC"), ITEMS),
        st.tuples(st.just("invent"), st.sampled_from("ABC"), st.integers(1, 12).map(Nonce)),
        st.tuples(st.just("next"), st.sampled_from("ABC"), st.none()),
        st.tuples(st.just("record"), st.sampled_from("ABC"), st.integers(0, 3)),
    ),
    max_size=14,
)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_the_state_keeps_the_top_nonce_of_its_history(operations):
    # whatever the helpers append, `top` is the highest nonce the history
    # holds, and the next invention's nonce is one the history lacks
    state = initial_state({"A": True, "B": True, "C": False})
    for what, uid, arg in operations:
        before = _nonces_in_history(state.history)
        if what == "msg":
            state = append_action(state, Msg(rec=uid, sender="A", content=arg))
        elif what == "wire":
            state = append_action(state, WireMsg(enc(arg, state.pkeys[uid]), "A"))
        elif what == "invent":
            if arg in before:
                with pytest.raises(FreshnessViolation):
                    append_action(state, Invent(uid, arg))
                continue
            state = append_action(state, Invent(uid, arg))
        elif what == "next":
            state, nonce = append_invention(state, uid)
            assert nonce not in before and state.history[-1] == Invent(uid, nonce)
        else:
            sid = f"{uid}#1"
            state = [
                lambda: open_session(state, uid, sid),
                lambda: set_partner(state, uid, sid, "C"),
                lambda: add_knows(state, uid, sid, [Nonce(7)]),
                lambda: set_complete(state, uid, sid),
            ][arg]()
        assert state.top == max((n.ix for n in _nonces_in_history(state.history)), default=0)


def test_message_content_must_be_non_empty():
    with pytest.raises(ValueError):
        Msg(rec="B", sender="A", content=())


# ── ghost-field discipline ───────────────────────────────────────────────────


def view(msg, users=("A", "B", "I")):
    """What role code can see of a message: its content for each user who
    reads it, by the reference `reads`."""
    return {uid: reads(ABSTRACT, msg, uid) for uid in users}


def test_view_drops_sender_field():
    msg = Msg(rec="B", sender="A", content=("A", N1))
    # the recipient reads the content; nobody else reads anything, the
    # sender included
    assert view(msg) == {"A": None, "B": ("A", N1), "I": None}
    # the same message from a forged sender reads the same
    assert view(Msg(rec="B", sender="I", content=("A", N1))) == view(msg)


def test_ghost_sender_invisible_to_role_steps():
    """Two states differing only in a ghost sender drive a machine
    identically: same bindings, same consumption, same visible results."""
    base = fresh_state("A", "B", "I")
    opener = Msg(rec="B", sender="A", content=("A", N1))
    forged = Msg(rec="B", sender="I", content=("A", N1))
    state_real = append_action(base, opener)
    state_fake = append_action(base, forged)

    machine = RoleMachine("B", Variant.NS, RoleKind.RECEIVER, "B#1")
    found = reference_find_match(machine, state_real, Inbox(), ABSTRACT)
    assert found == reference_find_match(machine, state_fake, Inbox(), ABSTRACT)
    m1, s1, i1 = step(machine, state_real, Inbox(), ABSTRACT, found=found)
    m2, s2, i2 = step(machine, state_fake, Inbox(), ABSTRACT, found=found)
    assert m1 == m2
    assert i1 == i2
    assert s1.users == s2.users  # bindings identical: partner, knowledge
    # the histories still differ exactly in the ghost field
    assert s1.history != s2.history
    assert [view(m) for m in s1.history] == [view(m) for m in s2.history]


def test_scenario_parser_total_over_garbage():
    """The parser either returns a scenario or raises its own error type,
    whatever bytes it is fed."""
    import random

    from protolab.scenario import ScenarioError, parse_scenario

    rng = random.Random(13)
    tokens = ["user", "role", "intruder", "bounds", "level", "A", "conforms=true",
              "peer=", "=", "#", "n1", "sender", "user=A", "variant=ns", "\t", "%"]
    for _ in range(300):
        body = "\n".join(
            " ".join(rng.choice(tokens) for _ in range(rng.randrange(0, 5)))
            for _ in range(rng.randrange(0, 8))
        )
        text = rng.choice(["protolab-scenario v1\n", ""]) + body
        try:
            parse_scenario(text)
        except ScenarioError:
            pass


def test_state_key_is_hashable_and_stable():
    state = append_action(fresh_state("A", "B"), Invent("A", N1))
    assert state_key(state) == state_key(state)
    assert hash(state_key(state)) == hash(state_key(state))
    state2 = append_action(state, Msg(rec="B", sender="A", content=(N1,)))
    assert state_key(state2) != state_key(state)


def test_state_key_ignores_dict_order_and_sees_every_nonce():
    # equal records bound in another insertion order get equal keys; one
    # nonce more in one session's knows gives another key
    state = open_session(fresh_state("A", "B"), "A", "A#2")
    one = set_complete(set_partner(set_partner(state, "A", "A#1", "B"), "A", "A#2", "I"), "A", "A#2")
    two = set_partner(set_partner(set_complete(state, "A", "A#2"), "A", "A#2", "I"), "A", "A#1", "B")
    assert list(one.users["A"].int_partner) != list(two.users["A"].int_partner)
    assert one == two and state_key(one) == state_key(two)
    knows = add_knows(one, "A", "A#1", [N1, N2])
    more = add_knows(knows, "A", "A#1", [N3])
    assert knows != more and state_key(knows) != state_key(more)


# ── spellings: each count and nonce name has one ────────────────────────────

# arbitrary text, and text drawn from the characters a count or a nonce name
# is made of or misspelt with: signs, underscores, spaces, non-ASCII digits
SPELLINGS = st.one_of(st.text(), st.text(alphabet="0123456789n+-_ \n١٤²", max_size=8))


def _read(reader, text):
    try:
        return reader(text)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(SPELLINGS)
@example("+14")
@example("-1")
@example("1_4")
@example("014")
@example("00")
@example("14\n")
@example("١٤")
@example("²")
@example("1" * 4400)
@example("n0")
@example("n01")
@example("n١")
@example("n+1")
@example("n1 ")
def test_what_the_readers_accept_renders_back_to_the_same_text(text):
    value = _read(count, text)
    if value is not None:
        assert str(value) == text
    nonce = _read(Nonce.named, text)
    if nonce is not None:
        assert repr(nonce) == text and nonce.ix >= 1 and nonce_like(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**40))
def test_the_readers_accept_what_renders(ix):
    assert count(str(ix)) == ix
    if ix:
        assert Nonce.named(repr(Nonce(ix))) == Nonce(ix)
