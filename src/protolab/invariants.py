"""State and history predicates, usable as run-time assertions and as
explorer safety checks.  Every predicate returns a report carrying a
witness when it fails, so counterexamples stay explainable.

Index conventions in witnesses are 1-based (history positions as a human
would count them).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .model import (
    Action,
    GlobalState,
    Invent,
    Msg,
    Uid,
    is_nonce,
    is_uid,
)


@dataclass(frozen=True)
class PredicateReport:
    name: str
    holds: bool
    witness: str | None = None

    def __post_init__(self) -> None:
        assert (self.witness is not None) == (not self.holds)


@functools.cache
def _ok(name: str) -> PredicateReport:
    """The holding report of a predicate, one per name: a report is frozen,
    so every holding result can share it."""
    return PredicateReport(name, True)


def _fail(name: str, witness: str) -> PredicateReport:
    return PredicateReport(name, False, witness)


def _reused(invented: dict, actions: Sequence[Action], start: int) -> PredicateReport | None:
    """Record the inventions among `actions`, which sit at history positions
    start+1, start+2, ...; the failure for the first nonce invented twice."""
    for pos, act in enumerate(actions, start=start + 1):
        if not isinstance(act, Invent):
            continue
        if act.what in invented:
            return _fail(
                "unique-nonces",
                f"nonce {act.what!r} invented at ({invented[act.what]},{pos})",
            )
        invented[act.what] = pos
    return None


def unique_nonces(history: Sequence[Action]) -> PredicateReport:
    """No two distinct inventions carry the same nonce symbol."""
    return _reused({}, history, 0) or _ok("unique-nonces")


def _justify(justified: dict[Uid, frozenset], actions: Sequence[Action]) -> None:
    """A user's nonces are justified by their own inventions and by the
    messages addressed to them.  A user's set is replaced, never changed in
    place, so a copy of `justified` can be extended on its own."""
    for act in actions:
        if isinstance(act, Invent):
            justified[act.user] = justified.get(act.user, frozenset()) | {act.what}
        elif isinstance(act, Msg):
            nonces = {i for i in act.content if is_nonce(i)}
            if nonces:
                justified[act.rec] = justified.get(act.rec, frozenset()) | nonces


def _replaced(records: dict, other: dict) -> list:
    """The uids of `records`, sorted, whose record is not the very object
    `other` holds for them.  A step replaces at most one user record, so a
    walk over these visits the changed records in name order, as a walk over
    every uid in name order that skips the unchanged ones would."""
    if records is other:
        return []
    return sorted([uid for uid, user in records.items() if other.get(uid) is not user])


def _unread(users: dict, justified: dict[Uid, frozenset], changed: list) -> PredicateReport | None:
    """The no-read-others failure of the first user (by name) knowing an
    unjustified nonce, among the users `changed` (sorted); any other user's
    record already held."""
    for uid in changed:
        user = users[uid]
        known = set().union(*user.knows.values()) if user.knows else set()
        unjustified = known - justified.get(uid, frozenset())
        if unjustified:
            return _fail("no-read-others", f"user {uid} knows unjustified {min(unjustified)!r}")
    return None


def no_read_others(state: GlobalState) -> PredicateReport:
    """Every nonce a user knows is justified by an invention of their own or
    by a message addressed to them that carried it."""
    justified: dict[Uid, frozenset] = {}
    _justify(justified, state.history)
    return _unread(state.users, justified, sorted(state.users)) or _ok("no-read-others")


def _shared_nonces(earlier: Msg, later: Msg) -> list:
    return sorted(n for n in set(earlier.content) & set(later.content) if is_nonce(n))


def _ghost_leak(pi: int, mi: Msg, pj: int, mj: Msg) -> PredicateReport | None:
    shared = _shared_nonces(mi, mj)
    if shared and mj.rec != mi.sender:
        return _fail(
            "no-leaks",
            f"nonce {shared[0]!r} received at {pi} from {mi.sender} re-sent at {pj} to {mj.rec}",
        )
    return None


def _app_leak(pi: int, mi: Msg, pj: int, mj: Msg) -> PredicateReport | None:
    shared = _shared_nonces(mi, mj)
    if not shared:
        return None
    for claimed in (i for i in mi.content if is_uid(i)):
        if mj.rec != claimed:
            return _fail(
                "no-app-leaks",
                f"nonce {shared[0]!r} received at {pi} claiming sender "
                f"{claimed} re-sent at {pj} to {mj.rec}",
            )
    return None


class _Ledger:
    """One user's slice of the history (`u_hist`), grown action by action:
    its length, for 1-based positions, and its messages by recipient, so
    the received-then-sent pairs (i, j) that a new message j closes, those
    where j's ghost sender is i's recipient, are looked up, not scanned.

    `extend` returns the first failures among what the new actions add:
    the leak rule's over the new pairs, in (i, j) order, and no-forge's
    over the new messages sent by `owner` (by anyone when it is None)."""

    def __init__(self, owner: Uid | None = None, leak_rule=_app_leak) -> None:
        self.owner = owner
        self.leak_rule = leak_rule
        self.length = 0
        self.by_rec: dict[Uid, list[tuple[int, Msg]]] = {}

    def extend(self, actions: Sequence[Action]):
        leak = forge = None
        leak_i = None
        for act in actions:
            self.length += 1
            if not isinstance(act, Msg):
                continue
            pj = self.length
            if forge is None and self.owner in (None, act.sender):
                claimed = next((i for i in act.content if is_uid(i) and i != act.sender), None)
                if claimed is not None:
                    forge = _fail(
                        "no-forge", f"message at {pj} from {act.sender} claims identity {claimed}"
                    )
            for pi, mi in self.by_rec.get(act.sender, ()):
                if leak_i is not None and pi >= leak_i:
                    break  # every pair left comes after the (leak_i, j) already found
                rep = self.leak_rule(pi, mi, pj, act)
                if rep is not None:
                    leak, leak_i = rep, pi
                    break
            self.by_rec.setdefault(act.rec, []).append((pj, act))
        return leak, forge

    def copy(self) -> _Ledger:
        """A ledger that `extend` grows apart from this one."""
        ledger = _Ledger(self.owner, self.leak_rule)
        ledger.length, ledger.by_rec = self.length, {r: list(p) for r, p in self.by_rec.items()}
        return ledger


def no_leaks(actions: Sequence[Action]) -> PredicateReport:
    """Ghost-sender form of the leak rule.

    Over a single user's history: whenever a nonce received in an earlier
    message is re-sent in a later one, the later message must go back to the
    ghost sender of the earlier one.  Note that an environment which forges
    claimed identities can make this fail for a perfectly honest user (the
    user cannot observe ghost senders); `no_app_leaks` is the form a user
    can actually guarantee.
    """
    return _Ledger(leak_rule=_ghost_leak).extend(actions)[0] or _ok("no-leaks")


def no_app_leaks(actions: Sequence[Action]) -> PredicateReport:
    """Claimed-sender form of the leak rule.

    Like `no_leaks`, but the required return target is the principal named
    inside the earlier message's content rather than its ghost sender.  An
    earlier message naming nobody constrains nothing.  When a message names
    several principals the rule is applied to each of them (the stricter
    reading of an ambiguous quantifier).
    """
    return _Ledger().extend(actions)[0] or _ok("no-app-leaks")


def no_forge(actions: Sequence[Action], owner: Uid | None = None) -> PredicateReport:
    """Users only sign honestly: a principal named in message content must be
    the message's true (ghost) sender.

    With `owner` given, only messages sent by that owner are constrained;
    this is the obligation chargeable to the owner of the history, whose
    received mail may well contain someone else's forgeries.
    """
    return _Ledger(owner).extend(actions)[1] or _ok("no-forge")


def _owners(act: Action) -> tuple[Uid, ...]:
    """The users whose `u_hist` holds the action."""
    if isinstance(act, Invent):
        return (act.user,)
    return (act.rec,) if act.rec == act.sender else (act.rec, act.sender)


class Audit:
    """The safety invariants over a sequence of states, each state checked
    for what it adds: the transition invariant against the state before,
    nonce freshness, recipient-only readability and, with `obligations`,
    every conforming user's honest-code obligations, each state fed by
    `step`.  A run's suite steps one audit; the search forks a node's audit
    once per macro-step (`fork`) and steps the fork through its states.

    `step` finds the records the state replaced (`changed`) and checks the
    transition (`dyn_inv`) on them.  While transitions hold and no user is
    added, only the new actions are checked, against facts carried forward:
    the nonces invented so far, each user's justified nonces (`justified`),
    the conforming users and each one's `_Ledger`; readability only for the
    replaced records.  The first state, and any after another transition,
    is rescanned from empty.

    Each check keeps the failure of the first state where it fails, or
    None: `dyn` (dyn-inv), `unique` (unique-nonces), `unread`
    (no-read-others), `honest` (no-app-leaks, then no-forge, for the first
    conforming user by name) and `inv`, the state invariant, which fails
    with the first of the state predicates in that order.  A fresh audit
    fed one state reports that state.
    """

    def __init__(self, obligations: bool = True) -> None:
        self.obligations = obligations
        self.dyn = self.unique = self.unread = self.honest = self.inv = None
        self.state: GlobalState | None = None
        self.changed: list[Uid] = []
        self.conforming, self.invented, self.justified, self.ledgers = set(), {}, {}, {}

    def fork(self) -> Audit:
        """A copy of this audit that `step` feeds apart from it: the facts a
        step extends in place are copied."""
        child = object.__new__(type(self))
        child.__dict__ = vars(self).copy()
        child.invented, child.justified = self.invented.copy(), self.justified.copy()
        child.ledgers = {uid: ledger.copy() for uid, ledger in self.ledgers.items()}
        return child

    def step(self, state: GlobalState) -> None:
        """Feed the next state.  `changed` becomes the uids, sorted, of the
        last state's records that `state` does not hold as the same object
        (none at the first state)."""
        last, self.state, users = self.state, state, state.users
        rescan = last is None
        if not rescan:
            self.changed = _replaced(last.users, users)
            rep = dyn_inv(last, state, self.changed)
            if not rep.holds and self.dyn is None:
                self.dyn = rep
            # a transition that holds removes no user: the users changed if there are more
            rescan = not rep.holds or len(users) != len(last.users)
        if rescan:
            self.conforming = {uid for uid, user in users.items() if user.conforms}
            self.invented, self.justified, self.ledgers = {}, {}, {}
        changed, done = (sorted(users), 0) if rescan else (self.changed, len(last.history))
        new = state.history[done:]
        # a predicate with a failure is not evaluated again, and `inv` then has one too
        unique = unread = honest = None
        if self.unique is None:
            unique = self.unique = _reused(self.invented, new, done)
        if self.unread is None:
            _justify(self.justified, new)
            unread = self.unread = _unread(users, self.justified, changed)
        if self.honest is None and self.obligations:
            honest = self._obligations(new)
            self.honest = honest and honest[1]
        if self.inv is None and (unique or unread):
            rep = unique or unread
            self.inv = _fail("inv-sigma", f"{rep.name}: {rep.witness}")
        elif self.inv is None and honest:
            uid, rep = honest
            self.inv = _fail("inv-sigma", f"{rep.name} for user {uid}: {rep.witness}")

    def _obligations(self, new: Sequence[Action]):
        """(user, failure) for the first conforming user, by name, whose new
        actions break an obligation, or None."""
        slices: dict[Uid, list] = {}
        for act in new:
            for uid in _owners(act):
                if uid in self.conforming:
                    slices.setdefault(uid, []).append(act)
        found = None
        for uid in sorted(slices):
            ledger = self.ledgers.setdefault(uid, _Ledger(uid))
            leak, forge = ledger.extend(slices[uid])
            if found is None and (leak or forge):
                found = (uid, leak or forge)
        return found


def inv_sigma(state: GlobalState) -> PredicateReport:
    """Global state invariant: fresh nonces, recipient-only readability, and
    for every conforming user the obligations an honest implementation can
    actually discharge: no forged identities in messages they send, and
    forwarded nonces returned to the principal the carrying message named.

    The ghost-sender leak rule (`no_leaks`) is deliberately not charged to
    conforming users here: a forged claimed identity elsewhere in the run
    can break it for a user who behaved honestly on the information
    available to them.  It remains available as a separate diagnostic.
    """
    audit = Audit()
    audit.step(state)
    return audit.inv or _ok("inv-sigma")


def dyn_inv(
    before: GlobalState, after: GlobalState, changed: list[Uid] | None = None
) -> PredicateReport:
    """Transition invariant: the history only grows (prefix order), per-session
    knowledge only grows, and conformity flags never change.  `changed` is
    `_replaced(before.users, after.users)`, for a caller that has it already;
    only those records are compared."""
    n = len(before.history)
    if after.history[:n] != before.history:
        return _fail("dyn-inv", "history is not extended prefix-preservingly")
    if changed is None:
        changed = _replaced(before.users, after.users)
    for uid in changed:
        b = before.users[uid]
        a = after.users.get(uid)
        if a is None:
            return _fail("dyn-inv", f"user {uid} disappeared")
        if a.conforms != b.conforms:
            return _fail("dyn-inv", f"conforms flag changed for {uid}")
        for sid, nonces in b.knows.items():
            if not nonces <= a.knows.get(sid, frozenset()):
                return _fail("dyn-inv", f"knows shrank for ({uid},{sid})")
    return _ok("dyn-inv")
