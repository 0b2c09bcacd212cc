"""Executable role state machines for the three-message public-key handshake.

Each machine runs one role instance (initiator or responder) of either the
original protocol (NS) or the identity-checked variant (NSL), one statement
per step.  Sends and receives go through a medium object so the same
statement code drives both the abstract level (messages readable only by
their recipient) and the encrypted wire level.  A medium keeps nothing: it
builds and re-emits actions and says who reads one, and what (`readers`).

A step is taken only when it is enabled (`can_fire`): the machine is
running, a sender at its set-partner has a partner, and a receive has a
message to consume.  Any other step raises `IllegalMove`; nothing blocks
and no step is a no-op.

Receive semantics: a receive consumes the most recent unread message that
the owner reads and whose content matches the statement's pattern by arity
and item kind: the content's `kinds_of` is the pattern.  `takes` alone
applies that rule, for runs, the search and its intruder fusion, and the
caller hands `step` the index it picked (`found`, None: there is none).
Messages that do not match are left unread for other machines of the same
owner.  A receive's checks are data (`RecvStmt.checks`): pairs of a name
it binds and a name of the program whose value must equal it, and `step`
aborts the machine when one pair differs.  Both variants check that a
returned nonce is the one sent; the NSL initiator also checks that the
identity claimed in message 2 is its intended partner.  The programs hold
the whole difference between the variants, and `step` never reads one.

A variant, a role kind and a status are the strings that every format
writes for them (`role sender ... variant=nsl`, the actor `sender@A#1`,
the machine row's `status=aborted`); `Variant`, `RoleKind` and `Status`
only name them.  So a machine renders, hashes and compares them as the
`str`s they are, with no translation on the way in or out.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple, Sequence

from .model import (
    GlobalState,
    Item,
    Msg,
    Nonce,
    Sid,
    Uid,
    add_knows,
    append_action,
    append_invention,
    is_uid,
    set_complete,
    set_partner,
)


class Variant:
    NS = "ns"
    NSL = "nsl"


class RoleKind:
    SENDER = "sender"
    RECEIVER = "receiver"


class Status:
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"


class IllegalMove(Exception):
    """A machine step or an intruder move that is not enabled in the given
    configuration."""


# ── statements ───────────────────────────────────────────────────────────────

# pattern kinds: "u" = principal identifier, "n" = nonce


class SetPartner(NamedTuple):
    name: str = "set-partner"


class InventStmt(NamedTuple):
    bind: str
    name: str = "invent"


class SendStmt(NamedTuple):
    template: tuple[str, ...]  # a name per position (`_value`)
    target: str  # a name holding a principal
    name: str = "send"


class RecvStmt(NamedTuple):
    pattern: tuple[str, ...]
    binds: tuple[str, ...]
    checks: tuple[tuple[str, str], ...] = ()  # (bound name, name it must equal)
    learn: tuple[str, ...] = ()
    bind_partner: str | None = None  # local name to record as intended partner
    name: str = "recv"


class FinishStmt(NamedTuple):
    name: str = "finish"


# The four programs.  A name in a program is "this" (the owner), "peer" (the
# intended partner) or a local (`_value`).  NSL is NS with message 2 changed
# (Lowe 1996): the responder names itself in its reply, and the initiator
# binds that name and checks it against its intended partner.
_NS_SENDER = (
    SetPartner(),
    InventStmt("NA"),
    SendStmt(("this", "NA"), "peer"),
    RecvStmt(("n", "n"), ("ret", "Nt"), checks=(("ret", "NA"),), learn=("Nt",)),
    SendStmt(("Nt",), "peer"),
    FinishStmt(),
)
_NS_RECEIVER = (
    RecvStmt(("u", "n"), ("from", "Nf"), learn=("Nf",), bind_partner="from"),
    InventStmt("NB"),
    SendStmt(("Nf", "NB"), "from"),
    RecvStmt(("n",), ("ret",), checks=(("ret", "NB"),)),
    FinishStmt(),
)
_NSL_SENDER = (
    *_NS_SENDER[:3],
    RecvStmt(
        ("u", "n", "n"),
        ("claim", "ret", "Nt"),
        checks=(("claim", "peer"), ("ret", "NA")),
        learn=("Nt",),
    ),
    *_NS_SENDER[4:],
)
_NSL_RECEIVER = (*_NS_RECEIVER[:2], SendStmt(("this", "Nf", "NB"), "from"), *_NS_RECEIVER[3:])
# A machine's program, by its (variant, kind).  The table is the one place
# that reads a variant, so the programs hold everything NSL changes.
_PROGRAMS = {
    (Variant.NS, RoleKind.SENDER): _NS_SENDER,
    (Variant.NS, RoleKind.RECEIVER): _NS_RECEIVER,
    (Variant.NSL, RoleKind.SENDER): _NSL_SENDER,
    (Variant.NSL, RoleKind.RECEIVER): _NSL_RECEIVER,
}


# ── media ────────────────────────────────────────────────────────────────────


class AbstractMedium:
    """Recipient-only readability modelled directly on the message record.
    Stateless, so every abstract run shares `ABSTRACT`."""

    level = "abstract"
    registry = None

    def send_action(self, owner: Uid, target: Uid, items: Sequence[Item]):
        return Msg(rec=target, sender=owner, content=tuple(items))

    def readers(self, action) -> tuple:
        """Who can read `action`, and its content ((), None: no message)."""
        if isinstance(action, Msg):
            return (action.rec,), action.content
        return (), None

    def replay_action(self, action, me: Uid):
        """Verbatim re-emission; only the ghost originator changes."""
        return Msg(rec=action.rec, sender=me, content=action.content)


ABSTRACT = AbstractMedium()


# ── machines ─────────────────────────────────────────────────────────────────


class RoleMachine(NamedTuple):
    owner: Uid
    variant: str  # a `Variant`
    kind: str  # a `RoleKind`
    session: Sid
    # intended partner; None until chosen for a sender.  A responder's stays
    # as declared: the partner its first receive binds is recorded only in
    # the state's `int_partner`, so no check in a responder's program may
    # name "peer"
    peer: Uid | None = None
    pc: int = 0
    locals: tuple[tuple[str, Item], ...] = ()
    status: str = Status.RUNNING  # a `Status`

    @property
    def actor_id(self) -> str:
        return f"{self.kind}@{self.session}"

    def statements(self) -> tuple:
        return _PROGRAMS[self.variant, self.kind]

    def current(self):
        return self.statements()[self.pc]

    def local(self, name: str) -> Item:
        for key, value in self.locals:
            if key == name:
                return value
        raise KeyError(name)


class Inbox(NamedTuple):
    """Per-user record of which history entries have been consumed, in uid
    order.

    The set only grows, and an entry is consumed by at most one machine of
    its owner.
    """

    consumed: tuple[tuple[Uid, frozenset[int]], ...] = ()

    def consume(self, uid: Uid, index: int) -> Inbox:
        entries = self.consumed
        pos = bisect_left(entries, uid, key=_first)
        if pos < len(entries) and entries[pos][0] == uid:
            return Inbox(entries[:pos] + ((uid, entries[pos][1] | {index}),) + entries[pos + 1 :])
        return Inbox(entries[:pos] + ((uid, frozenset((index,))),) + entries[pos:])


_first = itemgetter(0)


def kinds_match(items: Sequence[Item], pattern: Sequence[str]) -> bool:
    """Whether `items` match `pattern`.  The program compares a content's
    `kinds_of` with a pattern instead and never calls this; it stays
    because perfbench's tracer names it."""
    return kinds_of(items) == tuple(pattern)


def kinds_of(items: Sequence[Item]) -> tuple[str, ...]:
    """The one receive pattern that `items` match: its kind per position,
    "n" for a nonce and "u" for a user."""
    return tuple(["n" if item.__class__ is Nonce else "u" for item in items])


def takes(machine: RoleMachine, unread) -> tuple[int, tuple] | None:
    """The (history index, content) the receive of `machine` takes from
    `unread`, its owner's unread mail oldest first: the newest whose
    `kinds_of` is its pattern.  None: there is none, or no receive waits."""
    if machine.status == Status.RUNNING:
        stmt = machine.current()
        if stmt.__class__ is RecvStmt:
            for taken in reversed(unread):
                if kinds_of(taken[1]) == stmt.pattern:
                    return taken
    return None


def can_fire(machine: RoleMachine, found: int | None) -> bool:
    """Whether the machine's next step is enabled, `found` being the history
    index its receive would take (None: there is none): it is running, a
    set-partner has a partner, and a receive has a message."""
    if machine.status != Status.RUNNING:
        return False
    stmt = machine.current()
    if isinstance(stmt, SetPartner):
        return machine.peer is not None
    return found is not None or not isinstance(stmt, RecvStmt)


def _with_locals(machine: RoleMachine, binds: dict[str, Item]) -> tuple[tuple[str, Item], ...]:
    """The machine's locals with `binds` merged in."""
    merged = dict(machine.locals)
    merged.update(binds)
    return tuple(sorted(merged.items()))


def _successor(
    machine: RoleMachine,
    pc: int,
    locals: tuple[tuple[str, Item], ...],
    status: str = Status.RUNNING,
    peer: Uid | None = None,
) -> RoleMachine:
    """The machine a step leaves, built once: `machine` at `pc` with
    `locals` and `status`, and `peer` when the step chose one."""
    return RoleMachine(
        machine.owner,
        machine.variant,
        machine.kind,
        machine.session,
        machine.peer if peer is None else peer,
        pc,
        locals,
        status,
    )


def _value(machine: RoleMachine, name: str) -> Item | None:
    """The value of `name` in the program of `machine`: "this" is its
    owner, "peer" its intended partner (None: not chosen) and any other
    name a local."""
    if name == "this":
        return machine.owner
    if name == "peer":
        return machine.peer
    return machine.local(name)


def step(
    machine: RoleMachine,
    state: GlobalState,
    inbox: Inbox,
    medium=ABSTRACT,
    chosen_peer: Uid | None = None,
    found: int | None = None,
) -> tuple[RoleMachine, GlobalState, Inbox]:
    """Execute one enabled statement; raise IllegalMove for a step that is
    not enabled (see `can_fire`; a set-partner with no fixed peer takes
    `chosen_peer`).  A receive takes the message at history index `found`,
    which the caller picked with `takes`; None means there is nothing to
    receive.  A failed content check consumes the message and aborts the
    machine.  The successor machine and each changed state record are
    built once, directly."""
    if machine.status != Status.RUNNING:
        raise IllegalMove(f"{machine.actor_id} is {machine.status}")
    stmt = machine.current()
    pc = machine.pc + 1

    if isinstance(stmt, SetPartner):
        peer = machine.peer if machine.peer is not None else chosen_peer
        if peer is None:
            raise IllegalMove(f"{machine.actor_id} has no partner to set")
        state = set_partner(state, machine.owner, machine.session, peer)
        return _successor(machine, pc, machine.locals, peer=peer), state, inbox

    if isinstance(stmt, InventStmt):
        state, nonce = append_invention(state, machine.owner)
        state = add_knows(state, machine.owner, machine.session, (nonce,))
        return _successor(machine, pc, _with_locals(machine, {stmt.bind: nonce})), state, inbox

    if isinstance(stmt, SendStmt):
        items = tuple(_value(machine, name) for name in stmt.template)
        target = _value(machine, stmt.target)
        assert is_uid(target)
        state = append_action(state, medium.send_action(machine.owner, target, items))
        return _successor(machine, pc, machine.locals), state, inbox

    if isinstance(stmt, RecvStmt):
        if found is None:
            raise IllegalMove(f"{machine.actor_id} has nothing to receive")
        readers, items = medium.readers(state.history[found])
        assert machine.owner in readers
        bound = dict(zip(stmt.binds, items))
        inbox = inbox.consume(machine.owner, found)
        merged = _with_locals(machine, bound)
        for name, other in stmt.checks:
            if bound[name] != _value(machine, other):
                return _successor(machine, machine.pc, merged, Status.ABORTED), state, inbox
        if stmt.bind_partner is not None:
            partner = bound[stmt.bind_partner]
            assert is_uid(partner)
            state = set_partner(state, machine.owner, machine.session, partner)
        learned = [bound[name] for name in stmt.learn]
        assert all(isinstance(n, Nonce) for n in learned)
        if learned:
            state = add_knows(state, machine.owner, machine.session, learned)
        return _successor(machine, pc, merged), state, inbox

    assert isinstance(stmt, FinishStmt)
    state = set_complete(state, machine.owner, machine.session)
    return _successor(machine, pc, machine.locals, Status.COMPLETED), state, inbox
