"""Executable role state machines for the three-message public-key handshake.

Each machine runs one role instance (initiator or responder) of either the
original protocol (NS) or the identity-checked variant (NSL), one statement
per step.  Sends and receives go through a medium object so the same
statement code drives both the abstract level (messages readable only by
their recipient) and the encrypted wire level.  A medium keeps nothing: it
builds and re-emits actions and says who can read one (`readable`,
`readers`).

A step is taken only when it is enabled (`can_fire`): the machine is
running, a sender at its set-partner has a partner, and a receive has a
message to consume.  Any other step raises `IllegalMove`; nothing blocks
and no step is a no-op.

Receive semantics: a receive consumes the most recent unread message that
is readable by the owner and whose content matches the statement's pattern
by arity and item kind: the content's `kinds_of` is the pattern.  The
caller hands `step` its history index (`found`, None: there is none), and
runs and the search find it by that kind pattern.  Messages that do not
match are left unread for other machines of the same owner.  The NSL
initiator additionally checks that the identity claimed in the reply
equals the intended partner and aborts on mismatch; both variants abort
when a returned nonce is not the one expected.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

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


class Variant(enum.Enum):
    NS = "ns"
    NSL = "nsl"


class RoleKind(enum.Enum):
    SENDER = "sender"
    RECEIVER = "receiver"


class Status(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"


class IllegalMove(Exception):
    """A machine step or an intruder move that is not enabled in the given
    configuration."""


# ── statements ───────────────────────────────────────────────────────────────

# pattern kinds: "u" = principal identifier, "n" = nonce


@dataclass(frozen=True)
class SetPartner:
    name: str = "set-partner"


@dataclass(frozen=True)
class InventStmt:
    bind: str
    name: str = "invent"


@dataclass(frozen=True)
class SendStmt:
    template: tuple[str, ...]  # "this" or a local name per position
    target: str  # "peer" or a local name holding a principal
    name: str = "send"


@dataclass(frozen=True)
class RecvStmt:
    pattern: tuple[str, ...]
    binds: tuple[str, ...]
    guard: str | None = None  # "sender-check" | "ret-eq-nb"
    learn: tuple[str, ...] = ()
    bind_partner: str | None = None  # local name to record as intended partner
    name: str = "recv"


@dataclass(frozen=True)
class FinishStmt:
    name: str = "finish"


def sender_statements(variant: Variant) -> tuple:
    if variant is Variant.NS:
        recv = RecvStmt(("n", "n"), ("ret", "Nt"), guard="sender-check", learn=("Nt",))
    else:
        recv = RecvStmt(
            ("u", "n", "n"), ("claim", "ret", "Nt"), guard="sender-check", learn=("Nt",)
        )
    return (
        SetPartner(),
        InventStmt("NA"),
        SendStmt(("this", "NA"), "peer"),
        recv,
        SendStmt(("Nt",), "peer"),
        FinishStmt(),
    )


def receiver_statements(variant: Variant) -> tuple:
    reply = ("Nf", "NB") if variant is Variant.NS else ("this", "Nf", "NB")
    return (
        RecvStmt(("u", "n"), ("from", "Nf"), learn=("Nf",), bind_partner="from"),
        InventStmt("NB"),
        SendStmt(reply, "from"),
        RecvStmt(("n",), ("ret",), guard="ret-eq-nb"),
        FinishStmt(),
    )


# The four programs, built once; a machine picks its own by identity, since
# hashing an enum member runs Python code, and so does reading one from its
# class, so the members read at every step are read once, here.
_NS_SENDER, _NSL_SENDER = sender_statements(Variant.NS), sender_statements(Variant.NSL)
_NS_RECEIVER, _NSL_RECEIVER = receiver_statements(Variant.NS), receiver_statements(Variant.NSL)
_NS, _SENDER, _RUNNING = Variant.NS, RoleKind.SENDER, Status.RUNNING


# ── media ────────────────────────────────────────────────────────────────────


class AbstractMedium:
    """Recipient-only readability modelled directly on the message record.
    Stateless, so every abstract run shares `ABSTRACT`."""

    level = "abstract"
    registry = None

    def send_action(self, owner: Uid, target: Uid, items: Sequence[Item]):
        return Msg(rec=target, sender=owner, content=tuple(items))

    def readable(self, action, me: Uid):
        if isinstance(action, Msg) and action.rec == me:
            return action.content
        return None

    def readers(self, action) -> tuple:
        """Who can read `action`, and its content."""
        if isinstance(action, Msg):
            return (action.rec,), action.content
        return (), None

    def is_message(self, action) -> bool:
        return isinstance(action, Msg)

    def replay_action(self, action, me: Uid):
        """Verbatim re-emission; only the ghost originator changes."""
        return Msg(rec=action.rec, sender=me, content=action.content)


ABSTRACT = AbstractMedium()


# ── machines ─────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RoleMachine:
    owner: Uid
    variant: Variant
    kind: RoleKind
    session: Sid
    peer: Uid | None  # intended partner; None until chosen for a sender
    pc: int = 0
    locals: tuple[tuple[str, Item], ...] = ()
    status: Status = Status.RUNNING

    @property
    def actor_id(self) -> str:
        return f"{self.kind._value_}@{self.session}"  # `value` runs Python code

    def statements(self) -> tuple:
        ns = self.variant is _NS
        if self.kind is _SENDER:
            return _NS_SENDER if ns else _NSL_SENDER
        return _NS_RECEIVER if ns else _NSL_RECEIVER

    def current(self):
        return self.statements()[self.pc]

    def local(self, name: str) -> Item:
        for key, value in self.locals:
            if key == name:
                return value
        raise KeyError(name)


def make_machine(
    owner: Uid, kind: RoleKind, variant: Variant, session: Sid, peer: Uid | None = None
) -> RoleMachine:
    return RoleMachine(owner=owner, variant=variant, kind=kind, session=session, peer=peer)


@dataclass(frozen=True)
class Inbox:
    """Per-user record of which history entries have been consumed, in uid
    order.

    The set only grows, and an entry is consumed by at most one machine of
    its owner.
    """

    consumed: tuple[tuple[Uid, frozenset[int]], ...] = ()

    def consumed_for(self, uid: Uid) -> frozenset[int]:
        entries = self.consumed
        pos = bisect_left(entries, uid, key=_first)
        if pos < len(entries) and entries[pos][0] == uid:
            return entries[pos][1]
        return frozenset()

    def consume(self, uid: Uid, index: int) -> Inbox:
        entries = self.consumed
        pos = bisect_left(entries, uid, key=_first)
        if pos < len(entries) and entries[pos][0] == uid:
            return Inbox(entries[:pos] + ((uid, entries[pos][1] | {index}),) + entries[pos + 1 :])
        return Inbox(entries[:pos] + ((uid, frozenset((index,))),) + entries[pos:])


_first = itemgetter(0)


def kinds_match(items: Sequence[Item], pattern: Sequence[str]) -> bool:
    """Whether `items` match `pattern`.  The program looks a content up
    under its `kinds_of` instead and never calls this; it stays because
    perfbench's tracer names it."""
    return kinds_of(items) == tuple(pattern)


def kinds_of(items: Sequence[Item]) -> tuple[str, ...]:
    """The one receive pattern that `items` match: its kind per position,
    "n" for a nonce and "u" for a user."""
    return tuple(["n" if item.__class__ is Nonce else "u" for item in items])


def can_fire(machine: RoleMachine, found: int | None) -> bool:
    """Whether the machine's next step is enabled, `found` being the history
    index its receive would take (None: there is none): it is running, a
    set-partner has a partner, and a receive has a message."""
    if machine.status is not _RUNNING:
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
    status: Status = Status.RUNNING,
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


def _guard_passes(machine: RoleMachine, stmt: RecvStmt, bound: dict[str, Item]) -> bool:
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
    which the caller found by the receive rule (see the module docstring);
    None means there is nothing to receive.  A failed content check
    consumes the message and aborts the machine.  The successor machine and
    each changed state record are built once, directly."""
    if machine.status is not _RUNNING:
        raise IllegalMove(f"{machine.actor_id} is {machine.status.value}")
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
        items = tuple(
            machine.owner if token == "this" else machine.local(token)
            for token in stmt.template
        )
        target = machine.peer if stmt.target == "peer" else machine.local(stmt.target)
        assert is_uid(target)
        state = append_action(state, medium.send_action(machine.owner, target, items))
        return _successor(machine, pc, machine.locals), state, inbox

    if isinstance(stmt, RecvStmt):
        if found is None:
            raise IllegalMove(f"{machine.actor_id} has nothing to receive")
        items = medium.readable(state.history[found], machine.owner)
        assert items is not None
        bound = dict(zip(stmt.binds, items))
        inbox = inbox.consume(machine.owner, found)
        merged = _with_locals(machine, bound)
        if not _guard_passes(machine, stmt, bound):
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
