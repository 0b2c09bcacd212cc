"""Protocol contracts as checkable verdicts.

The contracts are two state-wide sweeps, each a predicate on the one state
it judges, which need not be told who attacked whom: `check_post_ns_all`,
the full-functionality contract (mutual partner records, both sessions
complete, and a pair of distinct shared nonces nobody else holds), and
`check_nsl_ft_all`, the fault-tolerance layer (a conforming user must not
have completed while a conforming third party holds one of the session's
nonces and records the user as partner).

Both sweeps walk the completed sessions once (`_completed`) and read one
index of the state (`_Holders`), built the first time it is needed: for
post-ns secrecy, each nonce's holders (uid, sid) over every user; for
nsl-ft, each (claimed partner, nonce)'s holders among the conforming users.
Each list is filled walking the uids, then each user's sids, in sorted
order.  So its first entry outside the excluded endpoints is the session
that a scan of every user's sessions in name order meets first, and each
detail names the witness such a scan named.  A post-ns back session is read
from the partner's own records.  A sweep takes time linear in the state's
sessions and their nonces, not in their product with the completed
sessions it judges.

This module alone decides what a spec name means.  `SPEC_CHOICES` lists
the names a user may request, `resolve_spec_names` expands one into the
specs it stands for, `contract_verdict` evaluates one contract on a state,
and `evaluate_run_specs` gives a finished run's verdicts, `inv` being the
obligation suite of `check_lemma_suite`.  `run`, `replay` and the
explorer's counterexamples take their verdicts from `evaluate_run_specs`;
the explorer's quiescent check calls `contract_verdict`.

The suite's `guarantee-no-mods-to-others` obligation is the one
rely-guarantee check: each step changes only its own session's records.  On
a run whose `inv` holds, no actor changed another's records, so a contract
failure there is charged to the protocol.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .invariants import Audit, PredicateReport, _replaced
from .model import GlobalState, Nonce, Sid, Uid
from .roles import Status

SPEC_POST_NS = "post-ns"
SPEC_NSL_FT = "nsl-ft"
SPEC_INV = "inv"
SPEC_CHOICES = (SPEC_POST_NS, SPEC_NSL_FT, SPEC_INV, "all")


class SpecVerdict(NamedTuple):
    spec: str
    holds: bool
    detail: str = ""
    counterexample: object | None = None
    inconclusive: bool = False
    states: int = 0


# ── Fig-style frame conditions ───────────────────────────────────────────────


def check_no_mods_to_others(
    before: GlobalState, after: GlobalState, good: set[Uid], sess: Sid
) -> bool:
    """Users outside `good` are completely untouched, and good users are
    untouched outside the session `sess`."""
    return _frame_holds(before, after, _replaced(before.users, after.users), good, sess)


def _frame_holds(
    before: GlobalState, after: GlobalState, changed: list[Uid], good: set[Uid], sess: Sid
) -> bool:
    """`check_no_mods_to_others`, looking only at the uids `changed`: those
    of `before`'s records that `after` does not hold as the same object."""
    for uid in changed:
        b, a = before.users[uid], after.users.get(uid)
        if a is None:
            return False  # a vanished record is a change
        if uid not in good:
            if a != b:
                return False
            continue
        if {k: v for k, v in a.complete.items() if k != sess} != {
            k: v for k, v in b.complete.items() if k != sess
        }:
            return False
        if {k: v for k, v in a.int_partner.items() if k != sess} != {
            k: v for k, v in b.int_partner.items() if k != sess
        }:
            return False
    return True


# ── the contracts ────────────────────────────────────────────────────────────


class _Holders:
    """Who holds which nonce in one state, each index built on first use:
    `by_nonce` maps a nonce to the sessions (uid, sid) of every user that
    know it, `by_claim` maps (partner, nonce) to the sessions of conforming
    users that know the nonce and record that partner, each list in name
    order."""

    def __init__(self, state: GlobalState) -> None:
        self.users = state.users

    @functools.cached_property
    def by_nonce(self) -> dict[Nonce, list[tuple[Uid, Sid]]]:
        index: dict[Nonce, list[tuple[Uid, Sid]]] = {}
        for uid in sorted(self.users):
            knows = self.users[uid].knows
            for sid in sorted(knows):
                for nonce in knows[sid]:
                    index.setdefault(nonce, []).append((uid, sid))
        return index

    @functools.cached_property
    def by_claim(self) -> dict[tuple[Uid, Nonce], list[tuple[Uid, Sid]]]:
        index: dict[tuple[Uid, Nonce], list[tuple[Uid, Sid]]] = {}
        for uid in sorted(self.users):
            user = self.users[uid]
            if not user.conforms:
                continue
            for sid in sorted(user.knows):
                partner = user.int_partner.get(sid)
                if partner is not None:
                    for nonce in user.knows[sid]:
                        index.setdefault((partner, nonce), []).append((uid, sid))
        return index


def _completed(state: GlobalState):
    """(uid, sid, the partner the session records) for each completed
    session of a conforming user, uids and then sids in name order."""
    for uid in sorted(state.users):
        user = state.users[uid]
        if user.conforms:
            for sid in sorted(user.complete):
                if user.complete[sid]:
                    yield uid, sid, user.int_partner.get(sid)


def _verdict(spec: str, violations: list[str]) -> SpecVerdict:
    """The verdict of `spec` with each violation named once, in the order found."""
    violations = list(dict.fromkeys(violations))
    return SpecVerdict(spec, holds=not violations, detail="; ".join(violations))


def _third_party_holder(holders: _Holders, pair, exclude: set[Uid]):
    """The first session, in name order, of a user outside `exclude` that
    knows both nonces of `pair`, or None."""
    first, second = pair
    for uid, sid in holders.by_nonce.get(first, ()):
        if uid not in exclude and second in holders.users[uid].knows[sid]:
            return uid, sid
    return None


def _pairing_violation(holders: _Holders, frm: Uid, to: Uid, sf: Sid, st: Sid) -> str | None:
    """How pairing session `sf` of `frm` with session `st` of `to` breaks
    the full contract, or None.  The sweep pairs only completed sessions
    that record each other, so what is left to break is the pair of
    distinct shared nonces nobody else holds."""
    fu, tu = holders.users[frm], holders.users[to]
    shared = sorted(fu.knows.get(sf, frozenset()) & tu.knows.get(st, frozenset()))
    leak = None
    for pair in itertools.combinations(shared, 2):
        holder = _third_party_holder(holders, pair, {frm, to})
        if holder is None:
            return None  # some distinct pair is exclusive to the two endpoints
        leak = leak or (pair, holder)
    if leak is None:
        return f"shared-nonces: sessions ({frm},{sf})/({to},{st}) share fewer than two nonces"
    pair, (uid, sid) = leak
    return (
        "secrecy: nonces {"
        + ",".join(repr(n) for n in pair)
        + f"}} of sessions ({frm},{sf})/({to},{st}) also known to {uid} session {sid}"
    )


def check_post_ns_all(state: GlobalState) -> SpecVerdict:
    """Every completed session of a conforming user whose recorded partner
    conforms pairs with one of the partner's completed sessions that
    records the user back, and that pairing satisfies the full contract."""
    holders = _Holders(state)
    violations: list[str] = []
    for uid, sid, partner in _completed(state):
        if partner is None or not state.users[partner].conforms:
            continue
        back = state.users[partner]
        back_sessions = [
            sx
            for sx in sorted(back.complete)
            if back.complete[sx] and back.int_partner.get(sx) == uid
        ]
        if not back_sessions:
            violations.append(
                f"mutual-partner: {uid} session {sid} completed with partner {partner} "
                f"but {partner} has no completed session with partner {uid}"
            )
            nonces = sorted(state.users[uid].knows.get(sid, frozenset()))
            for pair in itertools.combinations(nonces, 2):
                holder = _third_party_holder(holders, pair, {uid, partner})
                if holder is not None:
                    huid, hsid = holder
                    violations.append(
                        "secrecy: nonces {"
                        + ",".join(repr(n) for n in pair)
                        + f"}} of session ({uid},{sid}) also known to {huid} session {hsid}"
                    )
                    break
            continue
        judged = (_pairing_violation(holders, partner, uid, sx, sid) for sx in back_sessions)
        first = next(judged)
        if first and all(judged):  # each back session judged once, until one satisfies
            violations.append(first)
    return _verdict(SPEC_POST_NS, violations)


def check_nsl_ft_all(state: GlobalState) -> SpecVerdict:
    """No conforming user completed a session while a conforming third
    party holds one of its nonces and records the user as partner."""
    holders = _Holders(state)
    violations: list[str] = []
    for uid, sid, partner in _completed(state):
        nonces = sorted(state.users[uid].knows.get(sid, frozenset()))
        witness = next(
            (
                (nonce, huid, hsid)
                for nonce in nonces
                for huid, hsid in holders.by_claim.get((uid, nonce), ())
                if huid not in (uid, partner)
            ),
            None,
        )
        if witness is not None:
            nonce, huid, hsid = witness
            violations.append(
                f"abnormal-termination: {uid} completed session {sid} while conforming "
                f"{huid} session {hsid} holds {nonce!r} and records {uid} as partner"
            )
    return _verdict(SPEC_NSL_FT, violations)


# ── trace-wide obligation suite ──────────────────────────────────────────────


_SUITE = (
    "dyn-inv", "unique-nonces", "no-read-others", "inv-sigma", "conforming-obligations",
    "complete-monotone", "guarantee-no-mods-to-others", "abort-never-completes",
)


def _done(user) -> set[Sid]:
    """The sessions a user record shows complete."""
    return {sid for sid, flag in user.complete.items() if flag}


def check_lemma_suite(run) -> list[PredicateReport]:
    """Audit a run record end to end, one report per obligation, in `_SUITE`
    order:

    - the transition invariant on every adjacent state pair,
    - nonce freshness and recipient-only readability in every state,
    - for every conforming user, at every history prefix, the honest-code
      obligations (no forged identities in sent mail, forwarded nonces
      returned to the principal the carrying message named),
    - completion flags of conforming users never reset,
    - each step touches only the stepping principal's own session records,
    - an aborted machine's session never reaches completion.

    The run is walked once.  A loop over the recorded states feeds
    `invariants.Audit`, which checks the transition invariant on each
    adjacent pair and each state only for what it adds to the one before,
    and names the records each state replaced; the loop checks
    complete-monotone on those.  A loop over `run.transitions()` checks
    each step's frame (its k-th step is the k-th adjacent pair) on the same
    records, and a loop over `run.machines` checks each machine's end
    against the completion flags the states showed.  A user record that is
    the same object as the one before is skipped, a replaced one is checked
    in full, and a vanished one shows nothing complete and fails `dyn-inv`.
    Each report is its obligation's first failure.
    """
    states = run.checkable_states()
    failed: dict[str, PredicateReport | None] = {}

    def fail(name: str, witness: str) -> None:
        failed.setdefault(name, PredicateReport(name, False, witness))

    audit = Audit()
    audit.step(states[0])
    # the sessions the first state, or a record that changed later, shows complete
    shown = {(uid, sid) for uid, user in states[0].users.items() for sid in _done(user)}
    # per adjacent pair, the uids of the records the later state replaced
    changes = []
    for before, after in zip(states, states[1:]):
        audit.step(after)
        changes.append(audit.changed)
        for uid in audit.changed:
            b, a = before.users[uid], after.users.get(uid)
            done = _done(a) if a is not None else set()
            shown.update((uid, sid) for sid in done)
            for sid, was in b.complete.items():
                if was and b.conforms and sid not in done:
                    fail("complete-monotone", f"completion reset for ({uid},{sid})")
    for (actor_id, sess, before, after), changed in zip(run.transitions(), changes):
        if not _frame_holds(before, after, changed, {sess.split("#", 1)[0]}, sess):
            fail(
                "guarantee-no-mods-to-others",
                f"step by {actor_id} modified records outside its own session",
            )
    final = states[-1].users
    for machine in run.machines:
        owner, sess = machine.owner, machine.session
        if machine.status == Status.ABORTED and (owner, sess) in shown:
            fail("abort-never-completes", f"aborted session ({owner},{sess}) shows complete")
        elif machine.status == Status.COMPLETED and not (
            owner in final and final[owner].complete.get(sess)
        ):
            fail(
                "abort-never-completes",
                f"completed machine without completion flag ({owner},{sess})",
            )
    failed.update({
        "dyn-inv": audit.dyn,
        "unique-nonces": audit.unique,
        "no-read-others": audit.unread,
        "inv-sigma": audit.inv,
        "conforming-obligations": audit.honest,
    })
    return [failed.get(name) or PredicateReport(name, True) for name in _SUITE]


def contract_verdict(name: str, state: GlobalState) -> SpecVerdict:
    """The verdict of contract `name` (`post-ns` or `nsl-ft`) on `state`."""
    if name == SPEC_POST_NS:
        return check_post_ns_all(state)
    if name == SPEC_NSL_FT:
        return check_nsl_ft_all(state)
    raise ValueError(f"unknown spec {name!r}")


def evaluate_run_specs(run, names) -> list[SpecVerdict]:
    """Evaluate the requested specs over a finished run record: `inv` is the
    first failing report of `check_lemma_suite`, the contracts are judged on
    the run's final state."""
    final = run.checkable_states()[-1]
    out: list[SpecVerdict] = []
    for name in names:
        if name == SPEC_INV:
            failing = next((r for r in check_lemma_suite(run) if not r.holds), None)
            detail = "" if failing is None else f"{failing.name}: {failing.witness}"
            out.append(SpecVerdict(SPEC_INV, holds=failing is None, detail=detail))
        else:
            out.append(contract_verdict(name, final))
    return out


def resolve_spec_names(token: str) -> list[str]:
    if token == "all":
        return [SPEC_POST_NS, SPEC_NSL_FT, SPEC_INV]
    if token in SPEC_CHOICES:
        return [token]
    raise ValueError(f"unknown spec {token!r}")
