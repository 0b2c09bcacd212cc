"""Intruder knowledge closure, move enumeration, and the scripted strategy."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import kinds_match

from protolab.intruder import (
    Compose,
    IllegalMove,
    IntruderKnowledge,
    InventNonce,
    LoweScript,
    ReplayOpaque,
    apply_move,
    closure,
    legal_moves,
)
from protolab.invariants import dyn_inv, no_read_others, unique_nonces
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    append_action,
    initial_state,
    is_uid,
    item_key,
    open_session,
)
from protolab.roles import ABSTRACT

N1, N2 = Nonce(1), Nonce(2)

# every single-item receive pattern waiting at every principal
ANY_SINGLE = {u: [("u",), ("n",)] for u in ("A", "B", "I")}


def fresh(*uids):
    flags = {u: u != "I" for u in uids}
    state = initial_state(flags)
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


def test_closure_reads_own_mail():
    state = append_action(fresh("A", "B", "I"), Msg(rec="I", sender="A", content=("A", N1)))
    know = closure(state, "I")
    assert {"A", N1} <= know.known_items
    assert know.observed_opaque == ()


def test_closure_records_opaque_mail_without_reading():
    state = append_action(fresh("A", "B", "I"), Msg(rec="B", sender="A", content=("A", N1)))
    know = closure(state, "I")
    assert N1 not in know.known_items
    assert know.observed_opaque == (0,)


def test_closure_on_empty_history_knows_all_principals():
    know = closure(fresh("A", "B", "I"), "I")
    assert know.known_items == {"A", "B", "I"}


def test_closure_is_monotone():
    state = fresh("A", "B", "I")
    before = closure(state, "I")
    state = append_action(state, Msg(rec="I", sender="A", content=("A", N1)))
    after = closure(state, "I")
    assert before.known_items <= after.known_items


def test_legal_moves_counting():
    know = closure(fresh("A", "B", "I"), "I")
    moves = legal_moves(know, 1, 1, ANY_SINGLE, ())
    composes = [m for m in moves if isinstance(m, Compose)]
    invents = [m for m in moves if isinstance(m, InventNonce)]
    assert len(composes) == 9  # 3 recipients x 3 single-item contents
    assert len(invents) == 1
    assert len(moves) == 10


def test_legal_moves_zero_content_length():
    know = closure(fresh("A", "B", "I"), "I")
    waiting = {u: [("u",), ("n",), ("u", "n"), ("n", "n")] for u in ("A", "B", "I")}
    moves = legal_moves(know, 0, 1, waiting, ())
    assert all(not isinstance(m, Compose) for m in moves)


def test_legal_moves_include_the_classic_forward():
    state = append_action(fresh("A", "B", "I"), Msg(rec="I", sender="A", content=("A", N1)))
    know = closure(state, "I")
    moves = legal_moves(know, 2, 0, {"B": [("u", "n")]}, state.history)
    assert Compose(rec="B", content=("A", N1)) in moves


def brute_force_moves(knowledge, max_content, max_invents, waiting, history):
    """Reference enumeration: every recipient x pool^1..max_content
    composition and every replay of an opaque message, each kept when its
    content matches one of its recipient's patterns."""

    def wanted(rec, content):
        return any(kinds_match(content, p) for p in waiting.get(rec, ()))

    moves = [InventNonce()] if max_invents > 0 else []
    recipients = sorted(i for i in knowledge.known_items if is_uid(i))
    pool = sorted(knowledge.known_items, key=item_key)
    for rec in recipients:
        for length in range(1, max_content + 1):
            for content in itertools.product(pool, repeat=length):
                if wanted(rec, content):
                    moves.append(Compose(rec=rec, content=content))
    moves.extend(
        ReplayOpaque(i)
        for i in knowledge.observed_opaque
        if wanted(history[i].rec, history[i].content)
    )
    return moves


PATTERNS = st.lists(
    st.lists(st.sampled_from("un"), min_size=1, max_size=4).map(tuple), max_size=5
)

MESSAGES = st.lists(
    st.builds(
        lambda rec, content: Msg(rec=rec, sender="A", content=tuple(content)),
        st.sampled_from("ABCIZ"),
        st.lists(
            st.one_of(st.sampled_from("ABCI"), st.integers(1, 4).map(Nonce)),
            min_size=1,
            max_size=4,
        ),
    ),
    max_size=6,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    uids=st.sets(st.sampled_from("ABCI")),
    nonces=st.sets(st.integers(1, 4).map(Nonce)),
    history=MESSAGES,
    opaque_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    waiting=st.dictionaries(st.sampled_from("ABCIZ"), PATTERNS),
    max_content=st.integers(0, 3),
    max_invents=st.integers(0, 1),
)
@example(  # duplicate patterns: one composition each, not two
    uids={"A", "B"}, nonces={N1}, history=(), opaque_mask=[False] * 6,
    waiting={"B": [("u", "n"), ("u", "n")]}, max_content=2, max_invents=0,
)
@example(  # two patterns of one length for one recipient, merged in order; the
    # replay to B matches a pattern, the one to A matches none
    uids={"A", "B", "I"}, nonces={N1, N2},
    history=(Msg(rec="B", sender="A", content=("A", N2)), Msg(rec="A", sender="B", content=(N1,))),
    opaque_mask=[True] * 6,
    waiting={"A": [("n", "n"), ("u", "n"), ("n", "u")], "B": [("n",), ("u", "n")]},
    max_content=2, max_invents=1,
)
@example(  # a pattern longer than max_content yields no composition, but a
    # replay of a message that long
    uids={"A", "B"}, nonces={N1},
    history=(Msg(rec="A", sender="B", content=("B", N1, N2)),), opaque_mask=[True] * 6,
    waiting={"A": [("u", "n", "n")]}, max_content=2, max_invents=1,
)
def test_legal_moves_equal_brute_force_filtered_by_kinds(
    uids, nonces, history, opaque_mask, waiting, max_content, max_invents
):
    opaque = tuple(i for i, masked in zip(range(len(history)), opaque_mask) if masked)
    know = IntruderKnowledge(frozenset(uids | nonces), opaque)
    expected = brute_force_moves(know, max_content, max_invents, waiting, history)
    assert legal_moves(know, max_content, max_invents, waiting, history) == expected


def play(state, move):
    """`move` made by the intruder I in session I#1, handed what it knows
    (its `closure`)."""
    return apply_move(state, "I", "I#1", move, ABSTRACT, closure(state, "I").known_items)


@pytest.mark.parametrize("index,reason", [(0, "does not name a message"), (5, "outside")])
def test_replay_of_a_non_message_is_an_illegal_move(index, reason):
    state = append_action(fresh("A", "B", "I"), Invent("A", N1))
    with pytest.raises(IllegalMove, match=reason):
        play(state, ReplayOpaque(index))


def test_a_compose_needs_items_the_intruder_can_derive():
    state = append_action(fresh("A", "B", "I"), Msg(rec="B", sender="A", content=("A", N1)))
    with pytest.raises(IllegalMove, match="intruder@I#1 cannot derive n1"):
        play(state, Compose(rec="B", content=("A", N1)))
    state = append_action(state, Msg(rec="I", sender="A", content=("A", N1)))
    after = play(state, Compose(rec="B", content=("A", N1)))
    assert after.users["I"].knows["I#1"] == {N1}


def test_replay_keeps_message_but_reowns_ghost_sender():
    state = append_action(fresh("A", "B", "I"), Msg(rec="B", sender="A", content=("A", N1)))
    state2 = play(state, ReplayOpaque(0))
    replayed = state2.history[-1]
    assert replayed == Msg(rec="B", sender="I", content=("A", N1))


def test_intruder_moves_preserve_safety_invariants():
    state = append_action(fresh("A", "B", "I"), Msg(rec="I", sender="A", content=("A", N1)))
    for move in (Compose(rec="B", content=("A", N1)), ReplayOpaque, InventNonce()):
        if move is ReplayOpaque:
            continue  # nothing opaque yet on this history
        after = play(state, move)
        assert unique_nonces(after.history).holds
        assert no_read_others(after).holds
        assert dyn_inv(state, after).holds


def test_invent_move_binds_fresh_nonce_to_knowledge():
    state = append_action(fresh("A", "I"), Invent("A", N1))
    after = play(state, InventNonce())
    assert after.history[-1] == Invent("I", N2)
    assert N2 in after.users["I"].knows["I#1"]


def test_script_waits_without_trigger():
    script = LoweScript("I", "A", "B")
    assert script.pending_move(fresh("A", "B", "I"), ABSTRACT) is None


def test_script_forwards_opener_then_confirmation_once_each():
    script = LoweScript("I", "A", "B")
    state = append_action(fresh("A", "B", "I"), Msg(rec="I", sender="A", content=("A", N1)))
    move = script.pending_move(state, ABSTRACT)
    assert move == Compose(rec="B", content=("A", N1))
    state = play(state, move)
    assert script.pending_move(state, ABSTRACT) is None  # opener handled
    state = append_action(state, Msg(rec="I", sender="A", content=(N2,)))
    move2 = script.pending_move(state, ABSTRACT)
    assert move2 == Compose(rec="B", content=(N2,))
