"""Contract checkers: the frame condition, the full-functionality contract,
the fault-tolerance layer, and the trace-wide obligation suite, whose
`guarantee-no-mods-to-others` obligation is the rely-guarantee check."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protolab.invariants import PredicateReport, dyn_inv, no_forge, no_read_others, unique_nonces
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    add_knows,
    append_invention,
    initial_state,
    is_nonce,
    is_uid,
    open_session,
    set_complete,
    set_partner,
    u_hist,
)
from protolab.roles import Variant
from protolab.runner import execute_scripted, run_honest_pair
from protolab.scenario import load_scenario, parse_scenario

from conftest import count_calls, scenario
from protolab import specs
from protolab.specs import (
    SpecVerdict,
    check_lemma_suite,
    check_no_mods_to_others,
    check_nsl_ft_all,
    check_post_ns_all,
    evaluate_run_specs,
)

N1, N2 = Nonce(1), Nonce(2)


@pytest.fixture(scope="module")
def honest_ns():
    return run_honest_pair("A", "B", Variant.NS)


@pytest.fixture(scope="module")
def lowe_ns():
    return execute_scripted(load_scenario(scenario('lowe-on-ns')))


@pytest.fixture(scope="module")
def lowe_nsl():
    return execute_scripted(load_scenario(scenario('lowe-on-nsl')))


def bare(*uids, conforms=None):
    flags = {u: True for u in uids} if conforms is None else conforms
    state = initial_state(flags)
    for u in uids:
        state = open_session(state, u, f"{u}#1")
    return state


# ── frame conditions ─────────────────────────────────────────────────────────


def test_frame_conditions_reflexive():
    state = bare("A", "B")
    assert check_no_mods_to_others(state, state, {"A", "B"}, "A#1")


def test_receiver_binding_modifies_only_its_own_session():
    state = bare("A", "B")
    after = set_partner(state, "B", "B#1", "A")
    assert check_no_mods_to_others(state, after, {"A", "B"}, "B#1")


def test_mutating_a_bystander_breaks_the_frame():
    state = bare("A", "B", "C")
    after = set_complete(state, "C", "C#1")
    assert not check_no_mods_to_others(state, after, {"A", "B"}, "A#1")


# ── full-functionality contract ──────────────────────────────────────────────


def test_post_ns_holds_for_honest_run(honest_ns):
    # both sessions complete, so the sweep judges the pairing, not nothing
    state, _ = honest_ns
    assert state.users["A"].complete["A#1"] and state.users["B"].complete["B#1"]
    assert check_post_ns_all(state) == SpecVerdict("post-ns", holds=True)


def test_post_ns_sweep_reports_both_failures_on_attack_state(lowe_ns):
    verdict = check_post_ns_all(lowe_ns.final_state)
    assert not verdict.holds
    assert "mutual-partner" in verdict.detail
    assert "secrecy" in verdict.detail
    assert "I" in verdict.detail


@pytest.fixture(scope="module")
def grafted(honest_ns):
    """The honest run's final state with a third user grafted in that
    somehow holds both session nonces."""
    state, _ = honest_ns
    grafted = initial_state({"A": True, "B": True, "C": True})
    grafted = grafted._replace(users={**state.users, "C": grafted.users["C"]}, history=state.history)
    grafted = open_session(grafted, "C", "C#1")
    return add_knows(grafted, "C", "C#1", [N1, N2])


def test_post_ns_secrecy_fails_when_third_user_knows_both(grafted):
    verdict = check_post_ns_all(grafted)
    assert not verdict.holds
    assert "secrecy" in verdict.detail and "C" in verdict.detail


def test_post_ns_fails_when_the_pairing_shares_one_nonce():
    state = bare("A", "B")
    state = set_partner(set_partner(state, "A", "A#1", "B"), "B", "B#1", "A")
    state = add_knows(add_knows(state, "A", "A#1", [N1]), "B", "B#1", [N1, N2])
    state = set_complete(set_complete(state, "A", "A#1"), "B", "B#1")
    assert check_post_ns_all(state) == SpecVerdict(
        "post-ns",
        holds=False,
        detail="shared-nonces: sessions (B,B#1)/(A,A#1) share fewer than two nonces; "
        "shared-nonces: sessions (A,A#1)/(B,B#1) share fewer than two nonces",
    )


def test_post_ns_judges_each_back_session_once(monkeypatch, grafted):
    # a failing pairing is not judged a second time to name its violations
    calls = count_calls(monkeypatch, specs._pairing_violation)
    assert not check_post_ns_all(grafted).holds
    assert calls() == 2  # (A,A#1) against B#1, and (B,B#1) against A#1


def test_post_ns_sweep_holds_for_honest_run(honest_ns):
    state, _ = honest_ns
    assert check_post_ns_all(state).holds


# ── fault-tolerance layer ────────────────────────────────────────────────────


def test_nsl_ft_holds_on_aborted_nsl_attack(lowe_nsl):
    verdict = check_nsl_ft_all(lowe_nsl.final_state)
    assert verdict.holds
    assert not lowe_nsl.final_state.users["A"].complete["A#1"]


def test_nsl_ft_fails_on_completed_ns_attack(lowe_ns):
    verdict = check_nsl_ft_all(lowe_ns.final_state)
    assert not verdict.holds
    assert "abnormal-termination" in verdict.detail


def test_nsl_ft_vacuous_for_honest_run(honest_ns):
    state, _ = honest_ns
    assert check_nsl_ft_all(state).holds


# ── trace-wide obligations ───────────────────────────────────────────────────


def test_lemma_suite_all_pass_on_honest_and_attack_runs(honest_ns, lowe_ns, lowe_nsl):
    for run in (honest_ns[1], lowe_ns, lowe_nsl):
        reports = check_lemma_suite(run)
        assert all(r.holds for r in reports), [r for r in reports if not r.holds]


def test_lemma_suite_catches_shrinking_knowledge(honest_ns):
    _, run = honest_ns

    class Corrupted:
        def __init__(self, base):
            self._base = base
            self.machines = base.machines

        def checkable_states(self):
            states = self._base.checkable_states()
            last = states[-1]
            users = dict(last.users)
            users["A"] = users["A"]._replace(knows={"A#1": frozenset()})
            return states + [last._replace(users=users)]

        def transitions(self):
            return self._base.transitions()

    reports = check_lemma_suite(Corrupted(run))
    failing = [r for r in reports if not r.holds]
    assert failing and failing[0].name == "dyn-inv"


# The per-transition sweeps skip a user record that is the same object in
# both states; a replaced record is checked in full, even when it is equal.
BYSTANDER_CHANGES = {
    "equal-copy": (lambda u, sid: {}, set()),
    "complete-reset": (
        lambda u, sid: {"complete": {**u.complete, sid: False}},
        {"complete-monotone", "guarantee-no-mods-to-others"},
    ),
    "partner-rebound": (
        lambda u, sid: {"int_partner": {**u.int_partner, sid: "Z"}},
        {"guarantee-no-mods-to-others"},
    ),
    "knows-shrunk": (
        lambda u, sid: {"knows": {**u.knows, sid: frozenset()}},
        {"dyn-inv", "guarantee-no-mods-to-others"},
    ),
    "conforms-flipped": (
        lambda u, sid: {"conforms": False},
        {"dyn-inv", "guarantee-no-mods-to-others"},
    ),
}


@pytest.mark.parametrize("change", sorted(BYSTANDER_CHANGES))
def test_a_replaced_bystander_record_is_checked(change):
    run = execute_scripted(parse_scenario(nsl_pairs(2)))
    states = run.checkable_states()
    # a step before the last that leaves another user's completed session untouched
    k, uid, user, sid, owner, sess = next(
        (k, uid, user, sid, sess.split("#")[0], sess)
        for k, (_, sess, b, a) in enumerate(run.transitions(), start=1)
        for uid, user in sorted(b.users.items())
        for sid, done in user.complete.items()
        if done and uid != sess.split("#")[0] and a.users[uid] is user
    )
    assert k < len(run.events) and user.conforms
    changes, failing = BYSTANDER_CHANGES[change]
    states[k] = states[k]._replace(users={**states[k].users, uid: user._replace(**changes(user, sid))})
    assert states[k].users[uid] is not user
    assert dyn_inv(states[k - 1], states[k]).holds == ("dyn-inv" not in failing)
    assert check_no_mods_to_others(states[k - 1], states[k], {owner}, sess) == (
        "guarantee-no-mods-to-others" not in failing
    )
    run.checkable_states = lambda: list(states)
    assert {r.name for r in check_lemma_suite(run) if not r.holds} == failing


def test_an_intruder_step_that_completes_an_endpoint_breaks_the_guarantee(monkeypatch):
    # the intruder's first step also sets B#1 complete, which only B's own
    # steps may do; B#1 stays complete, as it ends up anyway
    run = execute_scripted(load_scenario(scenario("lowe-on-ns")))
    states = run.checkable_states()
    k = next(k for k, ev in enumerate(run.events, start=1) if ev.actor == "intruder@I#1")
    assert not states[k].users["B"].complete.get("B#1")
    states[k:] = [set_complete(s, "B", "B#1") for s in states[k:]]
    monkeypatch.setattr(run, "checkable_states", lambda: list(states))
    failing = [r for r in check_lemma_suite(run) if not r.holds]
    assert [(r.name, r.witness) for r in failing] == [(
        "guarantee-no-mods-to-others",
        "step by intruder@I#1 modified records outside its own session",
    )]


def test_abort_exclusivity_recorded(lowe_nsl):
    reports = {r.name: r for r in check_lemma_suite(lowe_nsl)}
    assert reports["abort-never-completes"].holds


# The last step of honest-nsl is B's, which completes B#1; A completed A#1
# before it.  A vanished record shows no session complete.
LAST_STEP_FRAME = (
    "guarantee-no-mods-to-others",
    "step by receiver@B#1 modified records outside its own session",
)
VANISHED = {
    "A": [
        ("dyn-inv", "user A disappeared"),
        ("complete-monotone", "completion reset for (A,A#1)"),
        LAST_STEP_FRAME,
        ("abort-never-completes", "completed machine without completion flag (A,A#1)"),
    ],
    "B": [  # the vanished user owns the last step
        ("dyn-inv", "user B disappeared"),
        LAST_STEP_FRAME,
        ("abort-never-completes", "completed machine without completion flag (B,B#1)"),
    ],
}


@pytest.mark.parametrize("uid", sorted(VANISHED))
def test_a_vanished_user_record_is_reported(uid):
    run = execute_scripted(load_scenario(scenario("honest-nsl")))
    states = run.checkable_states()
    assert run.events[-1].actor == "receiver@B#1"
    assert states[-2].users["A"].complete["A#1"] and not states[-2].users["B"].complete["B#1"]
    last = states[-1]
    states[-1] = last._replace(users={u: r for u, r in last.users.items() if u != uid})
    run.checkable_states = lambda: list(states)
    failing = [(r.name, r.witness) for r in check_lemma_suite(run) if not r.holds]
    assert failing == VANISHED[uid]
    assert evaluate_run_specs(run, ["inv"])[0].detail == f"dyn-inv: user {uid} disappeared"


def test_an_added_user_record_is_checked():
    # a later state with a user no earlier state had holds a record that no
    # transition replaced: the audit rescans it, every record checked
    run = execute_scripted(load_scenario(scenario("honest-nsl")))
    states = run.checkable_states()
    last = states[-1]
    nonce = next(act.what for act in last.history if isinstance(act, Invent))
    added = add_knows(initial_state({"C": True}), "C", "C#1", [nonce]).users["C"]
    states[-1] = last._replace(users={**last.users, "C": added})
    run.checkable_states = lambda: list(states)
    failing = [(r.name, r.witness) for r in check_lemma_suite(run) if not r.holds]
    assert failing == [
        ("no-read-others", f"user C knows unjustified {nonce!r}"),
        ("inv-sigma", f"no-read-others: user C knows unjustified {nonce!r}"),
    ]


def test_two_records_changed_at_once_are_reported_by_name():
    # B's record comes first in the users dict and both records change in
    # one pair: each witness names A, the lower uid, as a walk over every
    # uid by name would
    before = initial_state({"B": True, "A": True})
    for uid in ("B", "A"):
        sid = f"{uid}#1"
        before, nonce = append_invention(open_session(before, uid, sid), uid)
        before = set_complete(add_knows(before, uid, sid, [nonce]), uid, sid)
    users = {uid: user._replace(knows={}, complete={}) for uid, user in before.users.items()}
    after = before._replace(users=users)
    assert list(after.users) == ["B", "A"]
    assert dyn_inv(before, after).witness == "knows shrank for (A,A#1)"
    reports = check_lemma_suite(RecordedStates([before, after]))
    assert [(r.name, r.witness) for r in reports if not r.holds] == [
        ("dyn-inv", "knows shrank for (A,A#1)"),
        ("complete-monotone", "completion reset for (A,A#1)"),
    ]


def test_an_aborted_session_shown_complete_breaks_abort_exclusivity():
    # A#1 aborts; from its abort on, every state shows it complete.  The
    # aborting step is A#1's own, so no frame or completion flag is broken
    run = execute_scripted(load_scenario(scenario("lowe-on-nsl")))
    states = run.checkable_states()
    k = next(k for k, ev in enumerate(run.events, start=1) if ev.stmt == "recv-abort")
    assert run.events[k - 1].actor == "sender@A#1"
    assert not any(s.users["A"].complete.get("A#1") for s in states)
    states[k:] = [set_complete(s, "A", "A#1") for s in states[k:]]
    run.checkable_states = lambda: list(states)
    failing = [(r.name, r.witness) for r in check_lemma_suite(run) if not r.holds]
    assert failing == [("abort-never-completes", "aborted session (A,A#1) shows complete")]


def test_a_completed_machine_without_its_flag_breaks_abort_exclusivity():
    # B#1's last step completes it; the final state loses that flag, which
    # B's own step may change, and B#1 was not complete before it
    run = execute_scripted(load_scenario(scenario("honest-nsl")))
    states = run.checkable_states()
    last = states[-1]
    assert not states[-2].users["B"].complete["B#1"] and last.users["B"].complete["B#1"]
    b = last.users["B"]
    states[-1] = last._replace(users={**last.users, "B": b._replace(complete={"B#1": False})})
    run.checkable_states = lambda: list(states)
    failing = [(r.name, r.witness) for r in check_lemma_suite(run) if not r.holds]
    assert failing == [
        ("abort-never-completes", "completed machine without completion flag (B,B#1)")
    ]


def test_evaluate_run_specs_inv_verdict(lowe_ns):
    verdicts = {v.spec: v for v in evaluate_run_specs(lowe_ns, ["post-ns", "nsl-ft", "inv"])}
    assert not verdicts["post-ns"].holds
    assert not verdicts["nsl-ft"].holds  # the unmodified protocol completes anyway
    assert verdicts["inv"].holds


# ── the one-pass audit against the per-state suite ──────────────────────────


def reference_app_leaks(uh):
    """`no_app_leaks` as a scan of every message pair (i, j), i before j."""
    msgs = [(pos, a) for pos, a in enumerate(uh, start=1) if isinstance(a, Msg)]
    for x, (pi, mi) in enumerate(msgs):
        for pj, mj in msgs[x + 1 :]:
            shared = sorted(n for n in set(mi.content) & set(mj.content) if is_nonce(n))
            if mj.sender != mi.rec or not shared:
                continue
            for claimed in (i for i in mi.content if is_uid(i) and i != mj.rec):
                return PredicateReport(
                    "no-app-leaks",
                    False,
                    f"nonce {shared[0]!r} received at {pi} claiming sender "
                    f"{claimed} re-sent at {pj} to {mj.rec}",
                )
    return PredicateReport("no-app-leaks", True)


def reference_state_reports(run):
    """The first five reports of `check_lemma_suite` as the suite computed
    them before its one-pass audit: every predicate re-run on every state."""
    states = run.checkable_states()

    def first(name, reports):
        return next((r for r in reports if not r.holds), PredicateReport(name, True))

    def obligations(state):
        for uid in sorted(state.users):
            if state.users[uid].conforms:
                uh = u_hist(state.history, uid)
                for rep in (reference_app_leaks(uh), no_forge(uh, owner=uid)):
                    yield uid, rep

    def inv_sigma(state):
        for rep in (unique_nonces(state.history), no_read_others(state)):
            if not rep.holds:
                yield PredicateReport("inv-sigma", False, f"{rep.name}: {rep.witness}")
        for uid, rep in obligations(state):
            if not rep.holds:
                witness = f"{rep.name} for user {uid}: {rep.witness}"
                yield PredicateReport("inv-sigma", False, witness)

    return [
        first("dyn-inv", (dyn_inv(b, a) for b, a in zip(states, states[1:]))),
        first("unique-nonces", (unique_nonces(s.history) for s in states)),
        first("no-read-others", (no_read_others(s) for s in states)),
        first("inv-sigma", (r for s in states for r in inv_sigma(s))),
        first("conforming-obligations", (r for s in states for _, r in obligations(s))),
    ]


class RecordedStates:
    """A run record reduced to its states: no transitions, no machines."""

    machines = ()

    def __init__(self, states):
        self.states = states

    def checkable_states(self):
        return list(self.states)

    def transitions(self):
        return iter(())


BASE_RUNS = {
    (name, level): execute_scripted(load_scenario(scenario(name)).with_level(level))
    for name in ("honest-ns", "honest-nsl", "lowe-on-ns", "lowe-on-nsl")
    for level in ("abstract", "concrete")
}


def _with_user(state, uid, **changes):
    return state._replace(users={**state.users, uid: state.users[uid]._replace(**changes)})


def mutate(states, mutation):
    """Apply one tampering to the states [at, at + span): flip a user's
    `conforms` flag, swap two adjacent history actions, insert `act`,
    delete an action, add an unjustified nonce to a user's knowledge, or
    drop the state at `at`."""
    kind, at, span, pos, act = mutation
    at = min(at, len(states) - 1)
    if kind == "drop":
        return states[:at] + states[at + 1 :] if len(states) > 1 else states
    out = list(states)
    for k in range(at, min(at + span, len(states))):
        s = out[k]
        h, uid = s.history, sorted(s.users)[pos % len(s.users)]
        if kind == "flip":
            s = _with_user(s, uid, conforms=not s.users[uid].conforms)
        elif kind == "swap" and pos + 1 < len(h):
            s = s._replace(history=h[:pos] + (h[pos + 1], h[pos]) + h[pos + 2 :])
        elif kind == "insert":
            s = s._replace(history=h[:pos] + (act,) + h[pos:])
        elif kind == "delete" and pos < len(h):
            s = s._replace(history=h[:pos] + h[pos + 1 :])
        elif kind == "knows":
            nonce = act.what if isinstance(act, Invent) else Nonce(9)
            knows = {**s.users[uid].knows, "X#1": frozenset({nonce})}
            s = _with_user(s, uid, knows=knows)
        out[k] = s
    return out


ITEMS = st.sampled_from(["A", "B", "I", Nonce(1), Nonce(2), Nonce(3), Nonce(5)])
ACTIONS = st.one_of(
    st.builds(
        Msg,
        rec=st.sampled_from("ABI"),
        sender=st.sampled_from("ABI"),
        content=st.lists(ITEMS, min_size=1, max_size=3).map(tuple),
    ),
    st.builds(Invent, user=st.sampled_from("ABI"), what=st.sampled_from([Nonce(1), Nonce(5)])),
)
MUTATIONS = st.tuples(
    st.sampled_from(["flip", "swap", "insert", "delete", "knows", "drop"]),
    st.integers(0, 14),
    st.integers(1, 14),
    st.integers(0, 6),
    ACTIONS,
)
# B receives two claimed-sender messages and forwards their nonces to the
# wrong principals in the opposite order, all in one step: the first failing
# pair in (i, j) order is (5, 8), not (6, 7)
CROSSED_LEAKS = [
    ("insert", 13, 1, 20, Msg(rec="B", sender="I", content=("A", Nonce(5)))),
    ("insert", 13, 1, 20, Msg(rec="B", sender="I", content=("I", Nonce(6)))),
    ("insert", 13, 1, 20, Msg(rec="A", sender="B", content=(Nonce(6),))),
    ("insert", 13, 1, 20, Msg(rec="I", sender="B", content=(Nonce(5),))),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(sorted(BASE_RUNS)),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=4),
)
@example(base=("lowe-on-ns", "abstract"), mutations=CROSSED_LEAKS)
@example(  # the intruder turns conforming after its forged compose
    base=("lowe-on-ns", "concrete"), mutations=[("flip", 6, 14, 2, Invent("A", Nonce(1)))]
)
def test_one_pass_audit_matches_the_per_state_suite(base, mutations):
    states = BASE_RUNS[base].checkable_states()
    for mutation in mutations:
        states = mutate(states, mutation)
    run = RecordedStates(states)
    assert check_lemma_suite(run)[:5] == reference_state_reports(run)


def test_crossed_leaks_are_reported_in_pair_order():
    states = BASE_RUNS[("lowe-on-ns", "abstract")].checkable_states()
    for mutation in CROSSED_LEAKS:
        states = mutate(states, mutation)
    obligations = check_lemma_suite(RecordedStates(states))[4]
    assert (obligations.name, obligations.witness) == (
        "no-app-leaks",
        "nonce n5 received at 5 claiming sender A re-sent at 8 to I",
    )


# ── audit work per event ─────────────────────────────────────────────────────


def nsl_pairs(pairs: int) -> str:
    """Intruder-free wire-level NSL: disjoint initiator/responder pairs."""
    lines = ["protolab-scenario v1"]
    for i in range(pairs):
        lines += [f"user P{i:02d} conforms=true", f"user R{i:02d} conforms=true"]
    for i in range(pairs):
        lines += [
            f"role sender user=P{i:02d} peer=R{i:02d} variant=nsl",
            f"role receiver user=R{i:02d} variant=nsl",
        ]
    return "\n".join(lines + ["intruder none", "level concrete"]) + "\n"


def test_audit_work_grows_linearly_with_the_run(monkeypatch):
    # each action is rendered once per execution and projected once per run,
    # however often the run's states are asked for: twice the pairs, twice the work
    import protolab.trace as trace
    from protolab.crypto import KeyRegistry

    calls = {"render": 0, "owner": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(trace, "render_action", counting("render", trace.render_action))
    monkeypatch.setattr(KeyRegistry, "owner_of_pkey", counting("owner", KeyRegistry.owner_of_pkey))
    events, work = {}, {}
    for pairs in (2, 4):
        calls.update(render=0, owner=0)
        run = execute_scripted(parse_scenario(nsl_pairs(pairs)))
        rendered = calls["render"]
        for _ in range(3):
            run.checkable_states()
        events[pairs], work[pairs] = len(run.events), (rendered, calls["owner"])
    assert events[4] == 2 * events[2] == 44
    for pairs in (2, 4):
        assert 0 < min(work[pairs]) and max(work[pairs]) <= events[pairs], work
    assert work[4][0] <= 2 * work[2][0] and work[4][1] <= 2 * work[2][1], work


def per_event_work(monkeypatch, pairs: int, level: str) -> dict[str, float]:
    """The work a scripted run, its re-execution and its obligation suite do
    per unit of what they handle, on `pairs` disjoint NSL pairs:
    - `examined`: history entries a medium indexes or scans, per fired
      receive;
    - `replaced`: `_replaced` calls per adjacent pair in `check_lemma_suite`;
    - `visited`: actions scanned for nonces, per invention (none: the next
      nonce is one past the state's `top`);
    - `rendered`: rows and actions rendered, per digest."""
    import protolab.invariants as invariants
    import protolab.model as model
    import protolab.roles as roles
    import protolab.trace as trace
    from protolab.crypto import ConcreteMedium
    from protolab.runner import execute_schedule, schedule_from_doc

    # an action a medium indexes or scans
    scanned = {"actions": 0}
    for medium in (roles.AbstractMedium, ConcreteMedium):

        def scanning(*args, method=medium.readers):
            scanned["actions"] += 1
            return method(*args)

        monkeypatch.setattr(medium, "readers", scanning)
    visited = count_calls(monkeypatch, model._nonces_in_history, len)
    rendered = [
        count_calls(monkeypatch, getattr(trace, name))
        for name in ("_render_user", "_render_machine", "_render_consumed", "render_action")
    ]
    digests = count_calls(monkeypatch, trace.node_digest)

    sc = parse_scenario(nsl_pairs(pairs)).with_level(level)
    run = execute_scripted(sc)
    execute_schedule(sc, schedule_from_doc(run.to_doc(), sc))
    receives = 2 * sum(ev.stmt.startswith("recv") for ev in run.events)
    inventions = 2 * sum(isinstance(act, Invent) for act in run.final_state.history)
    work = {
        "examined": scanned["actions"] / receives,
        "visited": visited() / inventions,
        "rendered": sum(c() for c in rendered) / digests(),
    }
    replaced = count_calls(monkeypatch, invariants._replaced)
    assert all(report.holds for report in check_lemma_suite(run))
    work["replaced"] = replaced() / len(run.events)
    assert len(run.events) == 11 * pairs
    monkeypatch.undo()
    return work


@pytest.mark.parametrize("level", ["abstract", "concrete"])
def test_per_event_work_does_not_grow_with_the_run(monkeypatch, level):
    # a step changes one machine, at most one user record and inbox entry,
    # and appends at most one action: twice the pairs, about the same work
    # per event (a backward scan of the history for each receive, or of the
    # whole history for each invention, came close to doubling it)
    work = {pairs: per_event_work(monkeypatch, pairs, level) for pairs in (12, 24)}
    assert work[12]["replaced"] == work[24]["replaced"] == 1, work
    assert work[12].pop("visited") == work[24].pop("visited") == 0, work
    for name in work[12]:
        assert 0 < work[24][name] <= 1.5 * work[12][name], (name, work)


# ── contract sweeps against their per-session scans ─────────────────────────


def reference_holders(state, pair, exclude):
    """The sessions outside `exclude` knowing both nonces of `pair`, found
    as the sweeps found them before they indexed a state: a scan of every
    user's sessions, in name order."""
    for uid in sorted(state.users):
        if uid in exclude:
            continue
        for sid in sorted(state.users[uid].knows):
            if set(pair) <= state.users[uid].knows[sid]:
                yield uid, sid


def reference_post_ns_violations(after, frm, to, sf, st):
    v = []
    fu, tu = after.users[frm], after.users[to]
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
        holders = list(reference_holders(after, pair, {frm, to}))
        if not holders:
            return v
        leaks.append((pair, holders[0]))
    pair, (uid, sid) = leaks[0]
    v.append(
        "secrecy: nonces {"
        + ",".join(repr(n) for n in pair)
        + f"}} of sessions ({frm},{sf})/({to},{st}) also known to {uid} session {sid}"
    )
    return v


def reference_post_ns_all(state):
    """`check_post_ns_all` as a scan of every user's sessions for each
    nonce pair it judges."""
    violations = []
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
                    holders = list(reference_holders(state, pair, {uid, partner}))
                    if holders:
                        huid, hsid = holders[0]
                        violations.append(
                            "secrecy: nonces {"
                            + ",".join(repr(n) for n in pair)
                            + f"}} of session ({uid},{sid}) also known to {huid} session {hsid}"
                        )
                        break
                continue
            if not any(
                not reference_post_ns_violations(state, partner, uid, sx, sid)
                for sx in back_sessions
            ):
                violations.extend(
                    reference_post_ns_violations(state, partner, uid, back_sessions[0], sid)
                )
    violations = list(dict.fromkeys(violations))
    return SpecVerdict("post-ns", holds=not violations, detail="; ".join(violations))


def reference_nsl_ft_violations(after, frm, to, sf):
    fu = after.users[frm]
    if not fu.complete.get(sf):
        return []
    exclude = {frm} | ({to} if to is not None else set())
    for nonce in sorted(fu.knows.get(sf, frozenset())):
        for uid in sorted(after.users):
            if uid in exclude or not after.users[uid].conforms:
                continue
            third = after.users[uid]
            for sid in sorted(third.knows):
                if nonce in third.knows[sid] and third.int_partner.get(sid) == frm:
                    return [
                        f"abnormal-termination: {frm} completed session {sf} while conforming "
                        f"{uid} session {sid} holds {nonce!r} and records {frm} as partner"
                    ]
    return []


def reference_nsl_ft_all(state):
    """`check_nsl_ft_all` as a scan of every user's sessions for each
    nonce of each completed session."""
    violations = []
    for uid in sorted(state.users):
        user = state.users[uid]
        if not user.conforms:
            continue
        for sid in sorted(user.complete):
            partner = user.int_partner.get(sid)
            violations.extend(reference_nsl_ft_violations(state, uid, partner, sid))
    violations = list(dict.fromkeys(violations))
    return SpecVerdict("nsl-ft", holds=not violations, detail="; ".join(violations))


PAIRED_STATES = [
    s
    for pairs in (1, 2, 3)
    for s in execute_scripted(parse_scenario(nsl_pairs(pairs))).checkable_states()[-12:]
]
SWEPT_STATES = [s for run in BASE_RUNS.values() for s in run.checkable_states()] + PAIRED_STATES


def plant(state, planting):
    """Change one session of one user: add nonces to what it knows
    (`holds`, a third-party holder when another session shares them),
    bind it to a partner (`claims`), toggle its completion, or flip the
    user's `conforms` flag.  Indices wrap around the state's users, the
    user's sessions plus one new session, and the state's nonces plus one
    nobody holds."""
    kind, who, which, whom, picks = planting
    uids = sorted(state.users)
    uid = uids[who % len(uids)]
    user = state.users[uid]
    sessions = sorted(set(user.knows) | set(user.complete) | set(user.int_partner))
    sid = (sessions + [f"{uid}#9"])[which % (len(sessions) + 1)]
    pool = sorted({n for u in state.users.values() for k in u.knows.values() for n in k})
    pool.append(Nonce(99))
    if kind == "holds":
        nonces = {pool[p % len(pool)] for p in picks}
        knows = {**user.knows, sid: user.knows.get(sid, frozenset()) | nonces}
        return _with_user(state, uid, knows=knows)
    if kind == "claims":
        partners = {**user.int_partner, sid: uids[whom % len(uids)]}
        return _with_user(state, uid, int_partner=partners)
    if kind == "completes":
        complete = {**user.complete, sid: not user.complete.get(sid)}
        return _with_user(state, uid, complete=complete)
    return _with_user(state, uid, conforms=not user.conforms)


PLANTINGS = st.tuples(
    st.sampled_from(["holds", "claims", "completes", "flips"]),
    st.integers(0, 5),
    st.integers(0, 2),
    st.integers(0, 5),
    st.lists(st.integers(0, 7), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    at=st.integers(0, len(SWEPT_STATES) - 1),
    plantings=st.lists(PLANTINGS, min_size=0, max_size=5),
)
def test_indexed_sweeps_give_the_scanning_verdicts(at, plantings):
    state = SWEPT_STATES[at]
    for planting in plantings:
        state = plant(state, planting)
    assert check_post_ns_all(state) == reference_post_ns_all(state)
    assert check_nsl_ft_all(state) == reference_nsl_ft_all(state)


def test_sweep_work_grows_linearly_with_the_users():
    # a sweep looks each session of a state up once to index it, not once
    # per completed session it judges: twice the users, at most twice the work
    looked = {"sessions": 0}

    class CountedKnows(dict):
        def __getitem__(self, sid):
            looked["sessions"] += 1
            return dict.__getitem__(self, sid)

        def get(self, sid, default=None):
            looked["sessions"] += 1
            return dict.get(self, sid, default)

    work = {}
    for pairs in (8, 16):
        state = execute_scripted(parse_scenario(nsl_pairs(pairs))).final_state
        users = {uid: u._replace(knows=CountedKnows(u.knows)) for uid, u in state.users.items()}
        state = state._replace(users=users)
        looked["sessions"] = 0
        assert check_post_ns_all(state).holds and check_nsl_ft_all(state).holds
        work[pairs] = looked["sessions"]
    assert 0 < work[16] <= 2 * work[8], work
