"""Dolev-Yao intruder: sees all traffic, reads only what is addressed to it,
and builds new messages from what it knows.

The intruder is an ordinary (non-conforming) principal.  Its ghost sender
is always its true identity: forgery lives in message *content*, never in
the bookkeeping fields.  Opaque traffic (mail it cannot read) can still be
replayed verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence, Union

from .model import (
    Action,
    GlobalState,
    Invent,
    Item,
    Nonce,
    Sid,
    Uid,
    add_knows,
    append_action,
    append_invention,
    is_nonce,
    is_uid,
    item_key,
    render_item,
)
from .roles import ABSTRACT, IllegalMove, kinds_of


@dataclass(frozen=True)
class IntruderKnowledge:
    known_items: frozenset[Item]
    observed_opaque: tuple[int, ...]  # history indices of unreadable messages


@dataclass(frozen=True)
class InventNonce:
    pass


@dataclass(frozen=True)
class Compose:
    rec: Uid
    content: tuple[Item, ...]


@dataclass(frozen=True)
class ReplayOpaque:
    index: int


IntruderMove = Union[InventNonce, Compose, ReplayOpaque]

Pattern = tuple[str, ...]  # receive pattern: one kind per position, "u" or "n"


def closure(state: GlobalState, me: Uid, medium=ABSTRACT) -> IntruderKnowledge:
    """Everything derivable from the history: all principal names, every item
    in mail the intruder can read, its own inventions, and the indices of
    opaque messages.  Contents are flat, so one pass suffices."""
    known = set(state.users)
    opaque = []
    for index, act in enumerate(state.history):
        if isinstance(act, Invent):
            if act.user == me:
                known.add(act.what)
            continue
        users, content = medium.readers(act)
        if me in users:
            known.update(content)
        elif content is not None:
            opaque.append(index)
    return IntruderKnowledge(frozenset(known), tuple(opaque))


def legal_moves(
    knowledge: IntruderKnowledge,
    max_content: int,
    max_invents: int,
    waiting: Mapping[Uid, Collection[Pattern]],
    history: Sequence[Action],
) -> list[IntruderMove]:
    """The intruder's moves in a fixed enumeration order: one invention (if
    `max_invents`, the inventions it has left, allows), then the
    compositions of at most `max_content` items a waiting receive could
    consume, by recipient, length and content, then the replays a waiting
    receive could consume, by history index.

    `waiting` maps a recipient to the kind patterns of its receives that are
    waiting.  Compositions are built from those patterns, position by
    position from the pool items of each position's kind, never generated
    and then filtered: the result equals
    every recipient x pool^1..max_content composition whose `kinds_of` is
    one of its recipient's patterns, in the same item_key-lexicographic
    order.  A replay of the opaque message at `history[index]` is offered
    when its content's `kinds_of` is one of its recipient's patterns, one
    lookup."""
    moves: list[IntruderMove] = []
    if max_invents > 0:
        moves.append(InventNonce())
    pool = sorted(knowledge.known_items, key=item_key)
    pools = {"u": [i for i in pool if is_uid(i)], "n": [i for i in pool if is_nonce(i)]}
    for rec in pools["u"]:
        patterns = waiting.get(rec)
        if not patterns:
            continue
        patterns = list(dict.fromkeys(patterns))
        for length in range(1, max_content + 1):
            same_length = [p for p in patterns if len(p) == length]
            if same_length:
                moves.extend(Compose(rec=rec, content=c) for c in _contents(same_length, pools))
    for index in knowledge.observed_opaque:
        msg = history[index]
        if kinds_of(msg.content) in waiting.get(msg.rec, ()):
            moves.append(ReplayOpaque(index))
    return moves


def _contents(patterns: list[Pattern], pools: dict[str, list[Item]]) -> list[tuple[Item, ...]]:
    """Contents matching any of `patterns`, distinct kind patterns of one
    length, in item_key-lexicographic order.  An item has exactly one kind,
    so distinct patterns match disjoint contents; branching on the first
    position's kind, uids before nonces as item_key orders them, merges the
    patterns' products in order and without duplicates."""
    if len(patterns) == 1:
        return list(itertools.product(*(pools[kind] for kind in patterns[0])))
    out = []
    for kind in ("u", "n"):
        rest = [p[1:] for p in patterns if p[0] == kind]
        if rest:
            tails = _contents(rest, pools)
            out.extend((item,) + tail for item in pools[kind] for tail in tails)
    return out


def apply_move(
    state: GlobalState,
    me: Uid,
    session: Sid,
    move: IntruderMove,
    medium,
    known: frozenset[Item],
) -> GlobalState:
    """Perform one intruder move and absorb everything now readable into the
    intruder's knowledge record, `known` being what it knew before the move
    (its `closure`, or what the caller carries of it).  The record is
    replaced only when it lacks a nonce the intruder knows.  Raises
    IllegalMove for a composition with an item the intruder cannot derive."""
    if isinstance(move, InventNonce):
        state, nonce = append_invention(state, me)
        known = known | {nonce}
    elif isinstance(move, Compose):
        for item in move.content:
            if item not in known:
                raise IllegalMove(f"intruder@{session} cannot derive {render_item(item)}")
        state = append_action(state, medium.send_action(me, move.rec, move.content))
    elif isinstance(move, ReplayOpaque):
        if not 0 <= move.index < len(state.history):
            raise IllegalMove(f"replay index {move.index} is outside the history")
        original = state.history[move.index]
        if medium.readers(original)[1] is None:
            raise IllegalMove(f"replay index {move.index} does not name a message")
        state = append_action(state, medium.replay_action(original, me))
    else:
        raise IllegalMove(f"unknown intruder move {move!r}")
    users, read = medium.readers(state.history[-1])
    nonces = {i for i in (known.union(read) if me in users else known) if isinstance(i, Nonce)}
    record = state.users[me].knows.get(session)
    if record is not None and nonces <= record:
        return state
    return add_knows(state, me, session, nonces)


@dataclass(frozen=True)
class LoweScript:
    """The classic interception strategy against an initiator who chose the
    intruder as partner: forward the opener to the second victim under the
    victim's key, then forward the confirmation nonce the initiator sends
    back.  State-free: pending work is derived from the history.  The three
    principals are distinct; `scenario` rejects a record where they are not."""

    me: Uid
    victim_a: Uid
    victim_b: Uid

    def pending_move(self, state: GlobalState, medium=ABSTRACT) -> Compose | None:
        for act in state.history:
            users, items = medium.readers(act)
            if self.me not in users:
                continue
            # the first victim's opener, or the nonce it sends back
            opener = len(items) == 2 and items[0] == self.victim_a and is_nonce(items[1])
            if opener or (len(items) == 1 and is_nonce(items[0])):
                if not self._already_sent(state, tuple(items), medium):
                    return Compose(rec=self.victim_b, content=tuple(items))
        return None

    def _already_sent(self, state: GlobalState, items: tuple[Item, ...], medium) -> bool:
        return medium.send_action(self.me, self.victim_b, items) in state.history
