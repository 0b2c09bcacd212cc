"""Symbolic universe for protocol runs.

Everything here is a value: principals and nonces are symbolic atoms,
messages are flat sequences of items, and the global state is an immutable
record that every step replaces rather than mutates.  The state carries the
highest nonce index in its history, so the next invention reads the state
alone, and the module keeps nothing between calls.  The `sender` field of
a message is ghost data: it records the true originator for checking
purposes, and role code never sees it, since roles read a message's content
only through their medium (`readable`, `readers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

Uid = str  # principal identifier, a symbolic atom from the scenario universe
Sid = str  # session identifier, rendered "<uid>#<n>"


class FreshnessViolation(Exception):
    """An Invent tried to reuse a nonce symbol already present in the history."""


class LengthMismatch(Exception):
    """select() was given a mask whose length differs from the sequence."""


@dataclass(frozen=True, order=True)
class Nonce:
    """Fresh symbolic value.  Identity is the creation index, never structure."""

    ix: int

    def __repr__(self) -> str:
        return f"n{self.ix}"

    @classmethod
    def named(cls, name: str) -> Nonce:
        """The nonce whose `repr` is `name`: `n` and a count of 1 or more.
        Raises ValueError on any other text."""
        if name[:1] != "n" or name == "n0":
            raise ValueError(f"invalid nonce name: {name!r}")
        return cls(count(name[1:]))


def count(text: str) -> int:
    """The count whose `str` is `text`: `0`, or ASCII digits with no leading
    zero.  This is the package's one reader of an int from text.  Like
    `int`, it raises ValueError on any other text, and on a numeral longer
    than Python converts (4,300 digits by default), so argparse takes it as
    a `type`."""
    if not (text.isdigit() and text.isascii()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"invalid count: {text!r}")
    return int(text)


def nonce_like(text: str) -> bool:
    """Whether `text` is `n` and decimal digits of any script: a nonce name,
    or a misspelling of one.  No principal id may look like one, and a
    trace item that does must be a nonce name."""
    return text[:1] == "n" and text[1:].isdecimal()


Item = Union[Nonce, Uid]


def is_nonce(item: Item) -> bool:
    return isinstance(item, Nonce)


def is_uid(item: Item) -> bool:
    return isinstance(item, str)


def item_key(item: Item) -> tuple:
    """Total order over items: uids first (by name), then nonces (by index)."""
    if isinstance(item, Nonce):
        return (1, item.ix)
    return (0, item)


def render_item(item: Item) -> str:
    return repr(item) if isinstance(item, Nonce) else item


def render_content(content: Sequence[Item]) -> str:
    return "[" + ",".join(render_item(i) for i in content) + "]"


@dataclass(frozen=True)
class Msg:
    rec: Uid
    sender: Uid  # ghost: true originator, invisible to role code
    content: tuple[Item, ...]

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class Invent:
    user: Uid
    what: Nonce


Action = Union[Msg, Invent]


@dataclass(frozen=True)
class PKey:
    atom: str

    def __repr__(self) -> str:
        return self.atom


@dataclass(frozen=True)
class SKey:
    atom: str

    def __repr__(self) -> str:
        return self.atom


@dataclass(frozen=True)
class UserState:
    """Per-principal record, keyed by session where a field is session local.

    `int_partner` is bound the moment the partner becomes known (a sender
    knows it up front, a receiver learns it from the first message), so its
    domain may lag behind `knows`/`complete`, which are initialised to
    empty/False when the session starts.  `conforms` never changes during
    a run.
    """

    int_partner: dict[Sid, Uid]
    knows: dict[Sid, frozenset[Nonce]]
    skey: SKey
    conforms: bool
    complete: dict[Sid, bool]


@dataclass(frozen=True)
class GlobalState:
    """The users' records, the history and the public keys.  `top` is the
    highest nonce index in the history (0 in one with none), counting an
    `Invent`'s nonce and those in a `Msg`'s content, as `_nonces_in_history`
    does; `append_invention` invents the nonce one past it.  The helpers
    below keep it, and a state built by hand states it."""

    users: dict[Uid, UserState]
    history: tuple[Action, ...]
    pkeys: dict[Uid, PKey]
    top: int


def initial_state(conforms: dict[Uid, bool]) -> GlobalState:
    """Fresh state for the given universe; every user gets a key pair."""
    users = {
        uid: UserState(
            int_partner={},
            knows={},
            skey=SKey(f"sk:{uid}"),
            conforms=flag,
            complete={},
        )
        for uid, flag in conforms.items()
    }
    pkeys = {uid: PKey(f"pk:{uid}") for uid in conforms}
    return GlobalState(users=users, history=(), pkeys=pkeys, top=0)


# ── state update helpers (always copy, never mutate) ────────────────────────
#
# A step changes at most one user record and the history.  Each helper builds
# the records it changes once, directly, and shares every other field and
# record with the state it was given.


def _with_user(state: GlobalState, uid: Uid, user: UserState) -> GlobalState:
    users = dict(state.users)
    users[uid] = user
    return GlobalState(users, state.history, state.pkeys, state.top)


def open_session(state: GlobalState, uid: Uid, sid: Sid) -> GlobalState:
    """Start a session: knows empty, complete false, partner not yet bound."""
    u = state.users[uid]
    knows = dict(u.knows)
    complete = dict(u.complete)
    knows.setdefault(sid, frozenset())
    complete.setdefault(sid, False)
    return _with_user(state, uid, UserState(u.int_partner, knows, u.skey, u.conforms, complete))


def set_partner(state: GlobalState, uid: Uid, sid: Sid, partner: Uid) -> GlobalState:
    u = state.users[uid]
    partners = dict(u.int_partner)
    partners[sid] = partner
    return _with_user(state, uid, UserState(partners, u.knows, u.skey, u.conforms, u.complete))


def add_knows(state: GlobalState, uid: Uid, sid: Sid, nonces: Iterable[Nonce]) -> GlobalState:
    u = state.users[uid]
    knows = dict(u.knows)
    knows[sid] = knows.get(sid, frozenset()) | frozenset(nonces)
    return _with_user(state, uid, UserState(u.int_partner, knows, u.skey, u.conforms, u.complete))


def set_complete(state: GlobalState, uid: Uid, sid: Sid) -> GlobalState:
    u = state.users[uid]
    complete = dict(u.complete)
    complete[sid] = True
    return _with_user(state, uid, UserState(u.int_partner, u.knows, u.skey, u.conforms, complete))


def append_invention(state: GlobalState, user: Uid) -> tuple[GlobalState, Nonce]:
    """Extend the history by `user`'s invention of the next fresh nonce, and
    return the new state and the nonce.  The nonce is one past the state's
    `top`, the highest index in its history, so it is fresh by
    construction, and it depends on the state alone: branching
    explorations stay deterministic without a shared mutable context."""
    nonce = Nonce(state.top + 1)
    history = state.history + (Invent(user, nonce),)
    return GlobalState(state.users, history, state.pkeys, nonce.ix), nonce


def _nonces_in_history(history: Sequence) -> set[Nonce]:
    seen: set[Nonce] = set()
    for act in history:
        if isinstance(act, Invent):
            seen.add(act.what)
        elif isinstance(act, Msg):
            seen.update(i for i in act.content if isinstance(i, Nonce))
    return seen


def append_action(state: GlobalState, act) -> GlobalState:
    """Extend the history by one action, raising `top` to the highest nonce
    index it adds; all other state is untouched.

    Raises FreshnessViolation when an Invent reuses a nonce symbol that
    already occurs anywhere in the history (as an invention or inside
    readable message content).
    """
    top = state.top
    if isinstance(act, Invent):
        if act.what in _nonces_in_history(state.history):
            raise FreshnessViolation(f"nonce {act.what!r} already appears in the history")
        top = max(top, act.what.ix)
    elif isinstance(act, Msg):
        top = max([top, *[i.ix for i in act.content if isinstance(i, Nonce)]])
    return GlobalState(state.users, state.history + (act,), state.pkeys, top)


# ── history functions ────────────────────────────────────────────────────────


def u_hist(history: Sequence[Action], user: Uid):
    """The history restricted to one user's activities, order preserved.

    A message belongs to the user when it is addressed to them or when the
    ghost sender is them; an invention belongs to its inventor.
    """
    out = []
    for act in history:
        if isinstance(act, Msg) and (act.rec == user or act.sender == user):
            out.append(act)
        elif isinstance(act, Invent) and act.user == user:
            out.append(act)
    return tuple(out)


def user_key(user: UserState) -> tuple:
    """Hashable key of a user record, equal exactly when the records are.
    A dict is keyed by the frozenset of its items, which is independent of
    insertion order and needs no sorting; the `knows` values are frozensets
    already, which keep their hash once computed."""
    return (
        frozenset(user.int_partner.items()),
        frozenset(user.knows.items()),
        user.skey,
        user.conforms,
        frozenset(user.complete.items()),
    )


def state_key(state: GlobalState) -> tuple:
    """Hashable canonical key for duplicate detection: users in uid order."""
    users = state.users
    return (
        tuple((uid, user_key(users[uid])) for uid in sorted(users)),
        state.history,
        tuple(sorted(state.pkeys.items())),
    )


def select(sel: Sequence[bool], s: Sequence) -> tuple:
    """Keep s[i] where sel[i] is true, order preserved."""
    if len(sel) != len(s):
        raise LengthMismatch(f"mask length {len(sel)} != sequence length {len(s)}")
    return tuple(x for keep, x in zip(sel, s) if keep)


def subseq(s1: Sequence, s2: Sequence) -> bool:
    """True iff some boolean mask over s2 selects exactly s1."""
    it = iter(s2)
    return all(any(x == y for y in it) for x in s1)
