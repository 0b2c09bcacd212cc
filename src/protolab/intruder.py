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
    compositions a waiting receive could consume, by recipient, length and
    content, then the replays a waiting receive could consume, by history
    index.

    `waiting` maps a recipient to the kind patterns of its waiting receives.
    Its compositions are the products of the pool items of each position's
    kind over its distinct patterns of at most `max_content` items, two of
    one length merged in `item_key` order: every recipient x
    pool^1..max_content composition whose `kinds_of` is one of its
    recipient's patterns, in that order, at a cost that does not grow with
    `max_content`.  A replay of `history[index]` is offered when its
    content's `kinds_of` is one of its recipient's patterns, one lookup.

    So the bound assumes that the intruder never forges a message kind whose
    pattern is longer.  NSL's message 2, `[n,n,u]`, has length 3: NSL
    certified at 2 assumes that it cannot forge message 2 (at 3, nsl-ft
    fails, with 94 states)."""
    moves: list[IntruderMove] = []
    if max_invents > 0:
        moves.append(InventNonce())
    pool = sorted(knowledge.known_items, key=item_key)
    pools = {"u": [i for i in pool if is_uid(i)], "n": [i for i in pool if is_nonce(i)]}
    for rec in sorted(waiting.keys() & knowledge.known_items):
        wanted = sorted({p for p in waiting[rec] if len(p) <= max_content}, key=len)
        for _, same in itertools.groupby(wanted, len):
            same = list(same)
            contents = [c for p in same for c in itertools.product(*(pools[k] for k in p))]
            if len(same) > 1:  # distinct patterns match disjoint contents
                contents.sort(key=lambda content: [item_key(i) for i in content])
            moves.extend([Compose(rec, c) for c in contents])
    for index in knowledge.observed_opaque:
        msg = history[index]
        if kinds_of(msg.content) in waiting.get(msg.rec, ()):
            moves.append(ReplayOpaque(index))
    return moves


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
