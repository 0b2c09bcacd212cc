"""Protocol contracts as checkable verdicts.

`check_post_ns` is the full-functionality contract for one initiator /
responder pairing: mutual partner records, both sessions complete, and a
pair of distinct shared nonces nobody else holds.  `check_post_nsl_ft` is
the fault-tolerance layer: when a conforming third party holds one of the
initiator's session nonces and claims the initiator as partner, the
initiator must not have completed.

The `*_all` sweeps evaluate those contracts over every eligible session of
a state: they do not need to be told who attacked whom.  Each sweep reads
one index of the state (`_Holders`), built the first time it meets a
completed session: for post-ns secrecy, each nonce's holders (uid, sid)
over every user; for nsl-ft, each (claimed partner, nonce)'s holders among
the conforming users.  Each list is filled walking the uids, then each
user's sids, in sorted order.  So its first entry outside the excluded
endpoints is the session that a scan of every user's sessions in name
order meets first, and each detail names the witness such a scan named.
A sweep takes time linear in the state's sessions and their nonces, not
in their product with the completed sessions it judges.

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
from dataclasses import dataclass

from .invariants import Audit, PredicateReport, _replaced
from .model import GlobalState, Nonce, Sid, Uid

SPEC_POST_NS = "post-ns"
SPEC_NSL_FT = "nsl-ft"
SPEC_INV = "inv"
SPEC_CHOICES = (SPEC_POST_NS, SPEC_NSL_FT, SPEC_INV, "all")


class PreconditionUnmet(Exception):
    """The before-state does not satisfy the contract's precondition."""


@dataclass(frozen=True)
class SpecVerdict:
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


# ── full-functionality contract ──────────────────────────────────────────────


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


def _third_party_holder(holders: _Holders, pair, exclude: set[Uid]):
    """The first session, in name order, of a user outside `exclude` that
    knows both nonces of `pair`, or None."""
    first, second = pair
    for uid, sid in holders.by_nonce.get(first, ()):
        if uid not in exclude and second in holders.users[uid].knows[sid]:
            return uid, sid
    return None


def _post_ns_violations(
    holders: _Holders, frm: Uid, to: Uid, sf: Sid, st: Sid
) -> list[str]:
    v: list[str] = []
    fu, tu = holders.users[frm], holders.users[to]
    if fu.int_partner.get(sf) != to:
        v.append(f"partner: {frm} session {sf} is bound to {fu.int_partner.get(sf)}, not {to}")
    if tu.int_partner.get(st) != frm:
        v.append(f"partner: {to} session {st} is bound to {tu.int_partner.get(st)}, not {frm}")
    if not fu.complete.get(sf) or not tu.complete.get(st):
        v.append(f"completion: sessions ({frm},{sf})/({to},{st}) are not both complete")
    shared = sorted(fu.knows.get(sf, frozenset()) & tu.knows.get(st, frozenset()))
    pairs = list(itertools.combinations(shared, 2))
    if not pairs:
        v.append(f"shared-nonces: sessions ({frm},{sf})/({to},{st}) share fewer than two nonces")
        return v
    leaks = []
    for pair in pairs:
        holder = _third_party_holder(holders, pair, {frm, to})
        if holder is None:
            return v  # some distinct pair is exclusive to the two endpoints
        leaks.append((pair, holder))
    pair, (uid, sid) = leaks[0]
    v.append(
        "secrecy: nonces {"
        + ",".join(repr(n) for n in pair)
        + f"}} of sessions ({frm},{sf})/({to},{st}) also known to {uid} session {sid}"
    )
    return v


def check_post_ns(
    before: GlobalState, after: GlobalState, frm: Uid, to: Uid, sf: Sid, st: Sid
) -> SpecVerdict:
    bu, bt = before.users[frm], before.users[to]
    if bu.complete.get(sf) or bt.complete.get(st):
        raise PreconditionUnmet("a session is already complete in the before-state")
    if not bu.conforms or not bt.conforms:
        raise PreconditionUnmet("both endpoints must be conforming")
    violations = _post_ns_violations(_Holders(after), frm, to, sf, st)
    return SpecVerdict(SPEC_POST_NS, holds=not violations, detail="; ".join(violations))


def check_post_ns_all(state: GlobalState) -> SpecVerdict:
    """Contract sweep: every completed session of a conforming user whose
    recorded partner is also conforming must be half of a pairing that
    satisfies the full contract."""
    holders = _Holders(state)
    violations: list[str] = []
    for uid in sorted(state.users):
        user = state.users[uid]
        if not user.conforms:
            continue
        for sid in sorted(user.complete):
            if not user.complete[sid]:
                continue
            partner = user.int_partner.get(sid)
            if partner is None or not state.users[partner].conforms:
                continue
            back_sessions = [
                sx
                for sx in sorted(state.users[partner].complete)
                if state.users[partner].complete[sx]
                and state.users[partner].int_partner.get(sx) == uid
            ]
            if not back_sessions:
                violations.append(
                    f"mutual-partner: {uid} session {sid} completed with partner {partner} "
                    f"but {partner} has no completed session with partner {uid}"
                )
                nonces = sorted(user.knows.get(sid, frozenset()))
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
            if not any(
                not _post_ns_violations(holders, partner, uid, sx, sid) for sx in back_sessions
            ):
                violations.extend(_post_ns_violations(holders, partner, uid, back_sessions[0], sid))
    violations = list(dict.fromkeys(violations))
    return SpecVerdict(SPEC_POST_NS, holds=not violations, detail="; ".join(violations))


# ── fault-tolerance layer ────────────────────────────────────────────────────


def _nsl_ft_violations(holders: _Holders, frm: Uid, to: Uid | None, sf: Sid) -> list[str]:
    fu = holders.users[frm]
    if not fu.complete.get(sf):
        return []
    for nonce in sorted(fu.knows.get(sf, frozenset())):
        for uid, sid in holders.by_claim.get((frm, nonce), ()):
            if uid not in (frm, to):
                return [
                    f"abnormal-termination: {frm} completed session {sf} while conforming "
                    f"{uid} session {sid} holds {nonce!r} and records {frm} as partner"
                ]
    return []


def check_post_nsl_ft(
    before: GlobalState, after: GlobalState, frm: Uid, to: Uid, sf: Sid
) -> SpecVerdict:
    """The quantifier reading used here: the contract fails exactly when the
    initiator completed although some conforming third party holds one of
    the initiator's session nonces and records the initiator as partner.
    (An alternative parse scopes the completion flag outside the witness
    search; on the states this tool produces the two readings agree, and the
    implication reading is the one the contract's purpose dictates.)"""
    if not before.users[frm].conforms:
        raise PreconditionUnmet(f"initiator {frm} must be conforming")
    if before.users[frm].complete.get(sf):
        raise PreconditionUnmet(f"session ({frm},{sf}) already complete in the before-state")
    if any(before.users[to].complete.values()):
        raise PreconditionUnmet(f"partner {to} has a completed session in the before-state")
    violations = _nsl_ft_violations(_Holders(after), frm, to, sf)
    return SpecVerdict(SPEC_NSL_FT, holds=not violations, detail="; ".join(violations))


def check_nsl_ft_all(state: GlobalState) -> SpecVerdict:
    holders = _Holders(state)
    violations: list[str] = []
    for uid in sorted(state.users):
        user = state.users[uid]
        if not user.conforms:
            continue
        for sid in sorted(user.complete):
            partner = user.int_partner.get(sid)
            violations.extend(_nsl_ft_violations(holders, uid, partner, sid))
    violations = list(dict.fromkeys(violations))
    return SpecVerdict(SPEC_NSL_FT, holds=not violations, detail="; ".join(violations))


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
        if machine.status.value == "aborted" and (owner, sess) in shown:
            fail("abort-never-completes", f"aborted session ({owner},{sess}) shows complete")
        elif machine.status.value == "completed" and not (
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
