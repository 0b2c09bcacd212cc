"""Bounded exploration: rediscovery of the interception attack, its absence
for the identity-checked variant, determinism, and layering."""

import gc
import hashlib
import io
import weakref
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protolab.invariants as invariants
import protolab.runner as runner
import protolab.search as search
from protolab.invariants import PredicateReport, dyn_inv, inv_sigma, no_read_others, unique_nonces
from protolab.intruder import Compose, InventNonce, ReplayOpaque, closure
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    add_knows,
    is_uid,
    item_key,
    set_complete,
    state_key,
)
from protolab.roles import (
    ABSTRACT,
    RecvStmt,
    RoleMachine,
    SetPartner,
    Status,
    can_fire,
)
from protolab.runner import (
    Config,
    apply_entry,
    check_refinement,
    execute_schedule,
    schedule_from_doc,
)
from protolab.scenario import ScenarioError, load_scenario, parse_scenario

from conftest import (
    GOLDEN,
    ROOT,
    count_calls,
    explore_with_quiescents,
    kinds_match,
    reference_find_match,
    scenario,
)
from protolab.search import _counterexample_verdict, _node_key, _Searcher, explore
from protolab.specs import (
    SPEC_INV,
    check_no_mods_to_others,
    check_post_ns_all,
    contract_verdict,
    evaluate_run_specs,
)
from protolab.trace import parse_trace, render_trace

HONEST_SEARCH = """protolab-scenario v1
user A conforms=true
user B conforms=true
role sender user=A peer=B variant=ns
role receiver user=B variant=ns
intruder none
bounds max_steps=14 max_content_len=2 max_intruder_invents=0 max_sessions_per_user=4
level abstract
"""

# No role and no intruder: the root is quiescent.
ROLE_FREE = """protolab-scenario v1
user A conforms=true
intruder none
level abstract
"""

# Two NSL initiators at A and one responder at B: the scale-nsl benchmark
# scenario.
TWO_SENDERS = """protolab-scenario v1
user A conforms=true
user B conforms=true
user I conforms=false
role sender user=A variant=nsl
role sender user=A variant=nsl
role receiver user=B variant=nsl
intruder search user=I
bounds max_steps=10 max_content_len=2 max_intruder_invents=0 max_sessions_per_user=4
level abstract
"""

# Two NSL senders at A and two receivers at B, none with a declared peer.
TWO_PAIRS = TWO_SENDERS.replace(
    "role receiver user=B variant=nsl\n", "role receiver user=B variant=nsl\n" * 2
)

# Two NSL sessions from A to B, declared sender, receiver, receiver, sender,
# with no intruder: concurrent honest sessions that can take each other's
# replies.
CROSS_TALK = """protolab-scenario v1
user A conforms=true
user B conforms=true
role sender user=A peer=B variant=nsl
role receiver user=B variant=nsl
role receiver user=B variant=nsl
role sender user=A peer=B variant=nsl
intruder none
bounds max_steps=22 max_content_len=2 max_intruder_invents=0 max_sessions_per_user=4
level abstract
"""


@pytest.fixture(scope="module")
def ns_cex():
    return explore(load_scenario(scenario('ns-search')), spec="post-ns")


@pytest.fixture(scope="module")
def nsl_quiescents():
    return explore_with_quiescents(load_scenario(scenario('nsl-search')), "all")


def message_shapes(history):
    """(recipient, ghost sender, content) triples with nonces renamed by
    first occurrence, for comparison up to nonce renaming."""
    renaming = {}
    shapes = []
    for act in history:
        if not isinstance(act, Msg):
            continue
        content = []
        for item in act.content:
            if isinstance(item, Nonce):
                renaming.setdefault(item, f"x{len(renaming) + 1}")
                content.append(renaming[item])
            else:
                content.append(item)
        shapes.append((act.rec, act.sender, tuple(content)))
    return shapes


def test_ns_search_finds_the_classic_interception(ns_cex):
    assert not ns_cex.holds and not ns_cex.inconclusive
    assert ns_cex.spec == "post-ns"
    run = ns_cex.counterexample
    assert message_shapes(run.final_state.history) == [
        ("I", "A", ("A", "x1")),
        ("B", "I", ("A", "x1")),
        ("A", "B", ("x1", "x2")),
        ("I", "A", ("x2",)),
        ("B", "I", ("x2",)),
    ]
    final = run.final_state
    assert final.users["B"].complete["B#1"]
    assert final.users["B"].int_partner["B#1"] == "A"
    assert {Nonce(1), Nonce(2)} <= final.users["I"].knows["I#1"]
    assert "mutual-partner" in ns_cex.detail and "secrecy" in ns_cex.detail


def test_ns_counterexample_witnesses_are_checkable(ns_cex):
    run = ns_cex.counterexample
    verdict = check_post_ns_all(run.final_state)
    assert not verdict.holds


def test_nsl_search_holds_within_bounds(nsl_quiescents):
    verdict, _ = nsl_quiescents
    assert verdict.holds and not verdict.inconclusive
    assert verdict.states > 0


def test_layering_mutually_complete_states_satisfy_full_contract(nsl_quiescents):
    verdict, collected = nsl_quiescents
    seen = set()
    mutual = 0
    for state in collected:
        key = state_key(state)
        if key in seen:
            continue
        seen.add(key)
        has_conforming_pair = any(
            done and user.int_partner.get(sid) is not None
            and state.users[user.int_partner[sid]].conforms
            for user in state.users.values()
            if user.conforms
            for sid, done in user.complete.items()
        )
        if has_conforming_pair:
            mutual += 1
            assert check_post_ns_all(state).holds
    assert mutual > 0


def test_state_counts_are_reproducible(ns_cex):
    again = explore(load_scenario(scenario('ns-search')), spec="post-ns")
    assert again.states == ns_cex.states
    assert again.counterexample.events == ns_cex.counterexample.events


def test_counterexample_replays_to_identical_states(ns_cex):
    from protolab.runner import replay_doc

    run = ns_cex.counterexample
    divergence, replayed, _ = replay_doc(run.to_doc([ns_cex]))
    assert divergence is None
    assert replayed.final_state == run.final_state  # ghost fields included


def test_counterexample_trace_events_round_trip(ns_cex):
    # replay compares whole events, so the file holds exactly the run's events
    run = ns_cex.counterexample
    assert run.events
    assert parse_trace(render_trace(run.to_doc([ns_cex]))).events == run.events


def test_max_steps_zero_is_inconclusive_with_a_move_left():
    # the root is cut at the bound with a step left, like any node at it
    verdict = explore(load_scenario(scenario('ns-search')).with_max_steps(0))
    assert not verdict.holds and verdict.inconclusive
    assert verdict.states == 1


def test_max_steps_zero_holds_with_no_move_left():
    verdict = explore(parse_scenario(ROLE_FREE).with_max_steps(0))
    assert verdict.holds and not verdict.inconclusive
    assert verdict.states == 1


def test_too_small_bound_is_inconclusive():
    verdict = explore(load_scenario(scenario('ns-search')).with_max_steps(5), spec="post-ns")
    assert not verdict.holds
    assert verdict.inconclusive


def test_honest_only_exploration_never_violates():
    verdict = explore(parse_scenario(HONEST_SEARCH), spec="post-ns")
    assert verdict.holds and not verdict.inconclusive


def plant_unjustified(monkeypatch, when):
    """Make every search step that reaches a configuration satisfying `when`
    also add the nonce n99, which nobody invents or receives, to what the
    stepping machine's owner knows in its session: a real no-read-others
    failure, planted at the state."""
    real_apply_entry = search.apply_entry

    def planted(config, entry, *rest):
        after = real_apply_entry(config, entry, *rest)
        if entry[0] == "machine" and when(after):
            machine = after.machines[entry[1]]
            state = add_knows(after.state, machine.owner, machine.session, [Nonce(99)])
            after = after._replace(state=state)
        return after

    monkeypatch.setattr(search, "apply_entry", planted)


def test_safety_failure_is_checked_before_the_quiescent_specs(monkeypatch):
    # plant a state-invariant failure on the nodes where both sessions are
    # complete, which are the quiescent ones, and a post-ns failure on every
    # quiescent node: the safety failure must win
    import protolab.specs as specs
    from protolab.specs import SpecVerdict

    def complete(config):
        return all(all(user.complete.values()) for user in config.state.users.values())

    plant_unjustified(monkeypatch, complete)
    monkeypatch.setattr(
        specs, "check_post_ns_all", lambda *args: SpecVerdict("post-ns", False, "planted")
    )
    verdict = explore(parse_scenario(HONEST_SEARCH), spec="post-ns")
    assert (verdict.spec, verdict.holds, verdict.inconclusive) == (SPEC_INV, False, False)
    assert verdict.detail == "inv-sigma: no-read-others: user B knows unjustified n99"
    assert len(verdict.counterexample.events) == 11  # the first completed handshake


def test_explore_rejects_scripted_scenarios():
    with pytest.raises(ScenarioError):
        explore(load_scenario(scenario('lowe-on-ns')))


def test_ns_search_counters_are_pinned(ns_cex):
    # a change of search strategy may move these only on purpose, and says so
    assert ns_cex.states == 54
    golden = parse_trace((GOLDEN / "lowe-on-ns.trc").read_text())
    last = ns_cex.counterexample.events[-1]
    assert last.digest == golden.events[-1].digest == "112d8965862b"


def test_nsl_search_counter_is_pinned(nsl_quiescents):
    verdict, _ = nsl_quiescents
    assert verdict.states == 21


def test_invention_moves_are_searched_and_bounded():
    sc = load_scenario(scenario('ns-search'))
    sc = sc._replace(bounds=sc.bounds._replace(max_intruder_invents=1, max_steps=6))
    verdict = explore(sc, spec="post-ns")
    # six steps cannot complete a session, so the bound cuts live branches;
    # the point is that invention moves enumerate finitely and deterministically
    assert verdict.inconclusive
    again = explore(sc, spec="post-ns")
    assert again.states == verdict.states


# Larger bounds.  Without intruder-message fusion the search did not finish
# the first and the third within minutes and gigabytes, and took 51,080
# states and 13 s for the second.  Each violation comes from the receive discipline: a receive takes the newest
# matching message before it checks the returned nonce, so an injected
# message makes an honest session abort (with an invented nonce, or with a
# third item at content length 3).  The contracts blame the session that
# completed.  Changing that discipline or the contracts will change these
# verdicts on purpose.
NEWLY_TRACTABLE = [
    ("ns-search", {"max_intruder_invents": 1, "max_steps": 16}, "post-ns",
     ("post-ns", 390, 12, "mutual-partner: A session A#1 completed with partner B")),
    ("nsl-search", {"max_intruder_invents": 1, "max_steps": 16}, "all",
     ("post-ns", 117, 12, "mutual-partner: A session A#1 completed with partner B")),
    ("nsl-search", {"max_content_len": 3, "max_steps": 14}, "all",
     ("nsl-ft", 94, 13, "abnormal-termination: A completed session A#1")),
]


@pytest.mark.parametrize(
    "name,bounds,spec,expected",
    NEWLY_TRACTABLE,
    ids=["ns-invents1-steps16", "nsl-invents1-steps16", "nsl-content3-steps14"],
)
def test_newly_tractable_configurations_are_pinned(name, bounds, spec, expected):
    sc = load_scenario(scenario(name))
    verdict = explore(sc._replace(bounds=sc.bounds._replace(**bounds)), spec=spec)
    violated, states, events, detail = expected
    assert (verdict.spec, verdict.holds, verdict.inconclusive) == (violated, False, False)
    assert verdict.states == states
    assert len(verdict.counterexample.events) == events
    assert verdict.detail.startswith(detail)


# Post-ns violations with no invented nonce and content length 2, from the
# same receive discipline as above: with no intruder, B#2 takes a reply meant
# for B#1 (cross-talk); with one, B#1 takes a nonce the intruder learned from
# A#2 in place of A#1's and aborts (two senders); with two receivers at B,
# B#2 takes A#1's opener, replayed, and then A#1's last message, and B#1 a
# nonce learned from A#2, and both returned-nonce checks fail (two pairs).
# Fixing the receive discipline will flip these verdicts, on purpose.  The
# SHA-256 of each counterexample's trace pins the order moves are tried in.
RECEIVE_DISCIPLINE = [
    (CROSS_TALK, 22, ("post-ns", 36, 20),
     "182ceda3bb6fd05e3d7c0f525c9bea88e1d6f81d3daad2a7a68d05520393a923"),
    (TWO_SENDERS, 16, ("post-ns", 172, 16),
     "28a7da3956b2a2f8a994acc3455a59dd73f10d33aaf6eb8e7c5b56d12bd8381b"),
    (TWO_PAIRS, 20, ("post-ns", 3482, 20),
     "7a8bfb87ee24e5734d4d661e2ae6c158c74064eb5e26532caea41f864854ee5f"),
]


@pytest.mark.parametrize(
    "text,max_steps,expected,sha256",
    RECEIVE_DISCIPLINE,
    ids=["cross-talk-22", "two-senders-16", "two-pairs-20"],
)
def test_receive_discipline_verdicts_are_pinned(tmp_path, text, max_steps, expected, sha256):
    from protolab.cli import main

    verdict = explore(parse_scenario(text).with_max_steps(max_steps), spec="all")
    violated, states, events = expected
    assert (verdict.spec, verdict.holds, verdict.inconclusive) == (violated, False, False)
    assert verdict.states == states
    assert len(verdict.counterexample.events) == events
    assert verdict.detail.startswith("mutual-partner: A session A#1 completed with partner B")
    trace = tmp_path / "cex.trc"
    trace.write_text(render_trace(verdict.counterexample.to_doc([verdict])))
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == sha256
    out, err = io.StringIO(), io.StringIO()
    assert main(["replay", str(trace)], out=out, err=err) == 0
    assert out.getvalue() == f"replay ok: {events} events verified\n"


# A run of the model in which a conforming user receives one nonce under two
# claimed names: A#1 picks I and sends it [A,n1]; the intruder composes
# [A,n1] to B, which B#1 takes, and [B,n1] to B, which B#2 takes, recording
# B as its own partner; B#1 then sends [B,n1,n2] to A.
OBLIGATION_BROKEN = [
    ("machine", 0, "I"),
    ("machine", 0, None),
    ("machine", 0, None),
    ("intruder", Compose(rec="B", content=("A", Nonce(1)))),
    ("machine", 2, None),
    ("intruder", Compose(rec="B", content=("B", Nonce(1)))),
    ("machine", 3, None),
    ("machine", 2, None),
    ("machine", 2, None),
]


def test_a_run_of_the_model_breaks_an_honest_code_obligation(tmp_path):
    # the obligations that honest code keeps assume that no conforming user
    # receives one nonce under two claimed names; the model lets the
    # intruder make one, so `run` and `replay`, which assert the
    # obligations, reject this run, while a search does not assert them
    from protolab.cli import main

    run = execute_schedule(parse_scenario(TWO_PAIRS), OBLIGATION_BROKEN)
    verdicts = evaluate_run_specs(run, [SPEC_INV])
    detail = (
        "inv-sigma: no-app-leaks for user B: nonce n1 received at 2 claiming sender B "
        "re-sent at 4 to A"
    )
    assert [(v.spec, v.holds, v.detail) for v in verdicts] == [(SPEC_INV, False, detail)]
    trace = tmp_path / "broken.trc"
    trace.write_text(render_trace(run.to_doc(verdicts)))
    out, err = io.StringIO(), io.StringIO()
    assert main(["replay", str(trace)], out=out, err=err) == 1
    assert (out.getvalue(), err.getvalue()) == (f"replay obligation failed: {detail}\n", "")


def test_the_content_length_three_over_reach_is_pinned(tmp_path):
    # ROADMAP item 1's nsl-ft over-reach as it stands: A completes with the
    # intruder, which forwards A's opener to B.  Replay of this trace once
    # failed no-app-leaks: in the older counterexample B's reply reached A
    # unread before A sent n1 on, and replay's honesty obligations count a
    # message that merely arrived as received.  Since the search delivers
    # each intruder message with the receive that takes it, the
    # counterexample met first has A send n1 on before B replies.
    from protolab.cli import main

    path, trace = tmp_path / "nsl-content3.scn", tmp_path / "cex.trc"
    text = Path(scenario("nsl-search")).read_text()
    path.write_text(text.replace("max_content_len=2", "max_content_len=3"))
    out, err = io.StringIO(), io.StringIO()
    argv = ["explore", str(path), "--spec", "all", "--max-steps", "13", "--trace-out", str(trace)]
    assert main(argv, out=out, err=err) == 1
    states, verdict = out.getvalue().splitlines()
    assert states == "states explored: 94"
    assert verdict.startswith(
        'verdict spec=nsl-ft holds=false detail="abnormal-termination: A completed session A#1'
    )
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == "ba31afaff5bf1ccd4849b72f6ee6358d9627b9df9e4af4a70d6705fed92fd534"
    out = io.StringIO()
    assert main(["replay", str(trace)], out=out, err=err) == 0
    assert out.getvalue() == "replay ok: 13 events verified\n"


def live_configs() -> int:
    """The configurations alive now; a tuple subclass stays tracked by gc."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if obj.__class__ is Config)


def test_running_out_of_memory_ends_in_an_inconclusive_verdict(tmp_path, monkeypatch):
    # a MemoryError planted in the 40th key of the scale-nsl search: the
    # verdict names memory and the depth reached, exit 3, and it is built
    # once no node the search keyed and not its encoder is left.  A node is
    # a tuple, which cannot be weakly referenced: the nodes are counted, and
    # the audit the frontier holds with each node is watched
    from protolab.cli import main

    reached, keyed, before = [], 0, live_configs()
    real_key, real_macro, real_verdict = search._node_key, _Searcher.macro, search.SpecVerdict

    def keying(node, *rest):
        nonlocal keyed
        keyed += 1
        if keyed == 40:
            raise MemoryError
        reached.append(weakref.ref(rest[-1][0]))
        return real_key(node, *rest)

    def stepping(self, *args):
        macro = real_macro(self, *args)
        reached.append(weakref.ref(macro[2]))
        return macro

    def verdict(**fields):
        assert live_configs() == before
        assert len(reached) > keyed and all(ref() is None for ref in reached)
        return real_verdict(**fields)

    monkeypatch.setattr(search, "_node_key", keying)
    monkeypatch.setattr(_Searcher, "macro", stepping)
    monkeypatch.setattr(search, "SpecVerdict", verdict)
    path = tmp_path / "scale-nsl.scn"
    path.write_text(TWO_SENDERS)
    out, err = io.StringIO(), io.StringIO()
    assert main(["explore", str(path), "--spec", "all"], out=out, err=err) == 3
    assert out.getvalue() == (
        "states explored: 30\nverdict spec=all holds=false"
        ' detail="out of memory at depth 6: the search was dropped"\n'
    )
    assert err.getvalue() == ""


# ── differential check against iterative deepening ──────────────────────────


def ordered_key(node, *symmetry):
    """The node key `explore` used before it keyed the history as a
    multiset and merged symmetric nodes: the machines, the whole state with
    its history in order, and the consumed history indices.  It takes and
    ignores `_node_key`'s groups and binds.  The references below drop
    duplicates by it, so each differential also compares the two keys."""
    return (node.machines, state_key(node.state), node.inbox.consumed)


def machine_entries(searcher, node):
    """The machine entries enabled at a node, derived from its whole state
    (`can_fire`, with the receive rule's scan of the history),
    independently of what the search carries."""
    for index, machine in enumerate(node.machines):
        if machine.status is not Status.RUNNING:
            continue
        if isinstance(machine.current(), SetPartner) and machine.peer is None:
            for peer in searcher.universe:
                yield ("machine", index, peer)
        else:
            found = reference_find_match(machine, node.state, node.inbox, searcher.medium)
            if can_fire(machine, found):
                yield ("machine", index, None)


def pending_copies(node):
    """The unconsumed messages of a node per (recipient, content), counted
    over its whole history."""
    consumed = dict(node.inbox.consumed)
    return Counter(
        (act.rec, act.content)
        for index, act in enumerate(node.state.history)
        if isinstance(act, Msg) and index not in consumed.get(act.rec, ())
    )


def intruder_moves(searcher, node):
    """The intruder's moves at a node, each with its consumers, derived from
    its whole state: the intruder's `closure`, its inventions and the
    pending copies counted over the history.  The messages are found by
    brute force: every recipient x pool^1..max_content composition and
    every replay of an opaque message, each kept with the running machines
    of its recipient whose receive pattern its content matches, while fewer
    pending copies of it await the recipient than it has such consumers."""
    sc = searcher.scenario
    if sc.intruder.kind != "search":
        return
    me, history = searcher.intruder[0], node.state.history
    know = closure(node.state, me, searcher.medium)
    used = sum(isinstance(act, Invent) and act.user == me for act in history)
    if used < sc.bounds.max_intruder_invents:
        yield InventNonce(), ()
    waiting = {}
    for index, machine in enumerate(node.machines):
        stmt = machine.current() if machine.status is Status.RUNNING else None
        if isinstance(stmt, RecvStmt):
            waiting.setdefault(machine.owner, []).append((index, stmt.pattern))
    pending = pending_copies(node)
    pool = sorted(know.known_items, key=item_key)
    messages = [
        Compose(rec, content)
        for rec in pool
        if is_uid(rec) and rec in waiting  # no consumer at any other
        for length in range(1, sc.bounds.max_content_len + 1)
        for content in product(pool, repeat=length)
    ]
    for move in messages + [ReplayOpaque(index) for index in know.observed_opaque]:
        msg = history[move.index] if isinstance(move, ReplayOpaque) else move
        consumers = [i for i, p in waiting.get(msg.rec, ()) if kinds_match(msg.content, p)]
        if pending[msg.rec, msg.content] < len(consumers):
            yield move, consumers


def children(searcher, node):
    """The unreduced single steps from a node."""
    return list(machine_entries(searcher, node)) + [
        ("intruder", move) for move, _ in intruder_moves(searcher, node)
    ]


def apply(searcher, node, entry):
    """A single step from a node, handed what it reads from the whole
    state: a receive's index from the receive rule's scan, the intruder's
    knowledge from its `closure`."""
    found = known = None
    if entry[0] == "machine":
        found = reference_find_match(node.machines[entry[1]], node.state, node.inbox, ABSTRACT)
    else:
        known = closure(node.state, searcher.intruder[0]).known_items
    return apply_entry(node, entry, ABSTRACT, searcher.intruder, found, known)


def rescan(sc, state, parent):
    """The safety check made afresh on the whole state: the transition
    invariant against the parent state, then with an intruder unique-nonces
    and no-read-others, and with none the state invariant.  The detail of
    the first failure, or None."""
    rep = dyn_inv(parent, state) if parent is not None else None
    if rep is None or rep.holds:
        if sc.intruder.kind == "none":
            rep = inv_sigma(state)
        else:
            rep = unique_nonces(state.history)
            rep = no_read_others(state) if rep.holds else rep
    return None if rep.holds else f"{rep.name}: {rep.witness}"


def macro_starts(searcher, node):
    """Every macro start from a node, and the audit it was built from,
    with its audit and codes rebuilt from its whole state: the search's
    fresh audit fed the node's state alone."""
    audit = searcher.audit.fork()
    audit.step(node.state)
    codes = searcher.encoder.codes(node)
    starts = searcher._machine_starts(node, codes)
    return starts + list(searcher._intruder_starts(node, audit, codes)), audit


class ReferenceSearch:
    """Iterative-deepening depth-first search over the same children as
    `explore`, duplicates keyed by `ordered_key`, with each state's safety
    rescanned whole: depth limits 0..max_steps, each pass a canonical-order
    DFS that skips a node already reached at no greater depth.  A pass's
    order and duplicate keys depend on neither the step bound nor the spec;
    only where it stops does.  So each depth limit is passed once, and the
    pass serves every step bound and every spec given: it records the first
    violation of each spec, and stops at a safety violation (which every
    spec still open takes as its first) or once every spec has one."""

    def __init__(self, sc, specs):
        self.sc = sc
        self.searchers = {spec: _Searcher(sc, spec) for spec in specs}
        self.searcher = next(iter(self.searchers.values()))  # children, keys, safety
        self.passes = []  # per depth limit: ({spec: violation, schedule}, truncated)

    def _pass(self, limit):
        searcher, found, truncated = self.searcher, {}, False

        def dfs(node, depth, path, visited):
            """Whether the pass is done."""
            nonlocal truncated
            kids = children(searcher, node)
            if not kids:
                for spec, each in self.searchers.items():
                    violated = None if spec in found else each.quiescent_violation(node)
                    if violated is not None:
                        found[spec] = (violated, None), list(path)
                return len(found) == len(self.searchers)
            if depth == limit:
                truncated = True
                return False
            for entry in kids:
                child = apply(searcher, node, entry)
                key = ordered_key(child)
                seen_at = visited.get(key)
                if seen_at is not None and seen_at <= depth + 1:
                    continue
                visited[key] = depth + 1
                bad = rescan(self.sc, child.state, node.state)
                if bad is not None:
                    for spec in self.searchers:
                        found.setdefault(spec, ((SPEC_INV, bad), path + [entry]))
                    return True
                path.append(entry)
                done = dfs(child, depth + 1, path, visited)
                path.pop()
                if done:
                    return True
            return False

        root = searcher.root
        dfs(root, 0, [], {ordered_key(root): 0})
        return found, truncated

    def explore(self, max_steps, spec):
        """Returns (violation or None, its schedule, inconclusive)."""
        bad = rescan(self.sc, self.searcher.root.state, None)
        if bad is not None:
            return (SPEC_INV, bad), [], False
        for limit in range(max_steps + 1):
            if limit == len(self.passes):
                self.passes.append(self._pass(limit))
            found, truncated = self.passes[limit]
            if spec in found:
                return found[spec] + (False,)
        return None, [], truncated


REFERENCES = {}  # (scenario name, invents) -> its ReferenceSearch


def reference_explore(name, max_steps, invents, spec):
    key = (name, invents)
    if key not in REFERENCES:
        specs = sorted({s for n, _, i, s in DIFFERENTIAL_CASES if (n, i) == key})
        REFERENCES[key] = ReferenceSearch(_bounded(name, 0, invents), specs)
    return REFERENCES[key].explore(max_steps, spec)


INLINE = {
    "cross-talk": CROSS_TALK,
    "two-senders": TWO_SENDERS,
    "two-pairs": TWO_PAIRS,
    "honest": HONEST_SEARCH,
}


def _bounded(name, max_steps, invents=0):
    sc = parse_scenario(INLINE[name]) if name in INLINE else load_scenario(scenario(name))
    return sc._replace(bounds=sc.bounds._replace(max_steps=max_steps, max_intruder_invents=invents))


DIFFERENTIAL_CASES = (
    [("ns-search", steps, 0, "post-ns") for steps in (*range(11), 13)]
    + [("ns-search", 13, 0, "all")]
    + [("nsl-search", steps, 0, "all") for steps in range(15)]
    + [("ns-search", 6, 1, "post-ns"), ("nsl-search", 8, 1, "all"), ("cross-talk", 14, 0, "all")]
    + [("two-senders", 8, 0, "all")]
)

# The only cases where the verdicts may differ: the reference reaches the
# step bound only through intruder messages that no receive ever takes, and
# is inconclusive; the macro-step search sends no such message and decides.
DECIDED_ONLY_BY_FUSION = {("nsl-search", 11, 0, "all"), ("nsl-search", 12, 0, "all")}


@pytest.mark.parametrize(
    "name,max_steps,invents,spec",
    DIFFERENTIAL_CASES,
    ids=[f"{n}-steps{m}-invents{i}-{s}" for n, m, i, s in DIFFERENTIAL_CASES],
)
def test_breadth_first_matches_iterative_deepening(name, max_steps, invents, spec):
    # the reference searches every interleaving one step at a time; the
    # macro-step search may order commuting events differently, so its
    # counterexample is compared by verdict and length, not digest by digest
    sc = _bounded(name, max_steps, invents)
    verdict = explore(sc, spec=spec)
    violation, schedule, inconclusive = reference_explore(name, max_steps, invents, spec)
    if (name, max_steps, invents, spec) in DECIDED_ONLY_BY_FUSION:
        assert violation is None and inconclusive
        assert verdict.holds and not verdict.inconclusive
        return
    if violation is None:
        assert (verdict.spec, verdict.holds, verdict.inconclusive) == (
            spec, not inconclusive, inconclusive
        )
        assert verdict.counterexample is None
        return
    expected = _counterexample_verdict(sc, violation, schedule, verdict.states)
    got = (verdict.spec, verdict.holds, verdict.inconclusive, verdict.detail)
    assert got == (expected.spec, False, False, expected.detail)
    assert len(verdict.counterexample.events) == len(expected.counterexample.events)


def session_renamings(sc):
    """Every renaming of session ids that permutes the sessions of each
    group of identical role declarations among themselves."""
    groups = {}
    for role, sid in zip(sc.roles, sc.sessions()):
        groups.setdefault(role, []).append(sid)
    renamings = [{}]
    for sids in groups.values():
        renamings = [
            {**renaming, **dict(zip(sids, perm))}
            for renaming in renamings
            for perm in permutations(sids)
        ]
    return renamings


def outcome(state, sc):
    """A quiescent state's user records and the multiset of its actions other
    than the intruder's messages, canonical under nonce renaming and under
    permutations of the sessions of identical role declarations: the least
    rendering over all of those.  The intruder's messages are left out
    because the macro-step search sends only those that a receive takes,
    and the single-step search sends others too."""
    intruder = sc.intruder.user
    nonces = sorted(
        {act.what for act in state.history if isinstance(act, Invent)}
        | {i for act in state.history if isinstance(act, Msg) for i in act.content
           if isinstance(i, Nonce)}
        | {n for user in state.users.values() for known in user.knows.values() for n in known}
    )
    renderings = []
    for perm, sids in product(permutations(range(len(nonces))), session_renamings(sc)):
        names = dict(zip(nonces, perm))

        def item(i):
            return ("n", names[i]) if isinstance(i, Nonce) else ("u", i)

        def sid(s):
            return sids.get(s, s)

        users = tuple(
            (
                uid,
                tuple(sorted((sid(s), p) for s, p in user.int_partner.items())),
                tuple(sorted((sid(s), tuple(sorted(map(item, ns)))) for s, ns in user.knows.items())),
                tuple(sorted((sid(s), done) for s, done in user.complete.items())),
            )
            for uid, user in sorted(state.users.items())
        )
        actions = tuple(sorted(
            ("msg", act.rec, act.sender, tuple(map(item, act.content)))
            if isinstance(act, Msg)
            else ("invent", act.user, item(act.what))
            for act in state.history
            if not (isinstance(act, Msg) and act.sender == intruder)
        ))
        renderings.append((users, actions))
    return min(renderings)


def reference_outcomes(sc):
    """The outcomes of the quiescent nodes within the step bound, by a
    breadth-first pass over single steps."""
    searcher = _Searcher(sc, SPEC_INV)
    level, outcomes = [searcher.root], set()
    for depth in range(sc.bounds.max_steps + 1):
        seen, next_level = set(), []
        for node in level:
            kids = children(searcher, node)
            if not kids:
                outcomes.add(outcome(node.state, sc))
            elif depth < sc.bounds.max_steps:
                for entry in kids:
                    child = apply(searcher, node, entry)
                    if ordered_key(child) not in seen:
                        seen.add(ordered_key(child))
                        next_level.append(child)
        level = next_level
    return outcomes


@pytest.mark.parametrize(
    "name,max_steps",
    [("ns-search", 11), ("nsl-search", 14), ("cross-talk", 14), ("two-senders", 8)],
)
def test_quiescent_outcomes_match_the_unreduced_search(name, max_steps):
    sc = _bounded(name, max_steps)
    _, collected = explore_with_quiescents(sc, SPEC_INV)
    got = {outcome(state, sc) for state in collected}
    assert got and got == reference_outcomes(sc)


def test_safety_is_checked_inside_a_macro(monkeypatch):
    # a sender that has invented but not yet sent exists only between the
    # micro-steps of its first macro; a failure planted there must be found
    def invented_not_sent(config):
        history = config.state.history
        invented = any(isinstance(a, Invent) and a.user == "A" for a in history)
        sent = any(isinstance(a, Msg) and a.sender == "A" for a in history)
        return invented and not sent

    plant_unjustified(monkeypatch, invented_not_sent)
    verdict = explore(load_scenario(scenario("ns-search")), spec=SPEC_INV)
    assert (verdict.spec, verdict.holds, verdict.inconclusive) == (SPEC_INV, False, False)
    assert verdict.detail == "no-read-others: user A knows unjustified n99"
    events = verdict.counterexample.events
    assert [(ev.actor, ev.stmt) for ev in events] == [
        ("sender@A#1", "set-partner"), ("sender@A#1", "invent")
    ]


def test_a_huge_step_bound_ends_with_the_frontier():
    sc = load_scenario(scenario("nsl-search"))
    deep = explore(sc.with_max_steps(64), spec="all")
    huge = explore(sc.with_max_steps(10**9), spec="all")
    assert (huge.spec, huge.holds, huge.inconclusive, huge.states) == (
        deep.spec, deep.holds, deep.inconclusive, deep.states
    )
    assert huge.holds and huge.states == 21


def progress(node, intruder):
    """Machine steps taken (pc, plus one for an abort) plus intruder actions."""
    steps = sum(m.pc + (m.status is Status.ABORTED) for m in node.machines)
    actions = sum(
        1
        for act in node.state.history
        if (act.sender if isinstance(act, Msg) else act.user) == intruder
    )
    return steps + actions


def test_every_move_raises_the_progress_measure_by_one():
    # this is what makes the per-bucket duplicate check of `explore` exact:
    # all schedules reaching a node have the same length, and a macro of k
    # micro-steps raises the measure by exactly k
    sc = load_scenario(scenario('nsl-search'))
    searcher = _Searcher(sc, "all")
    intruder = sc.intruder.user
    level, reached, moves = [searcher.root], {ordered_key(searcher.root)}, 0
    macros, fused = set(), set()
    for _ in range(sc.bounds.max_steps):
        next_level = []
        for node in level:
            for entry in children(searcher, node):
                child = apply(searcher, node, entry)
                assert progress(child, intruder) == progress(node, intruder) + 1, entry
                moves += 1
                key = ordered_key(child)
                if key not in reached:
                    reached.add(key)
                    next_level.append(child)
            starts, audit = macro_starts(searcher, node)
            for start in starts:
                entries = start[0]
                steps, end, _, bad, cut = searcher.macro(node, audit, start, sc.bounds.max_steps)
                assert bad is None and not cut and steps[: len(entries)] == list(entries)
                assert progress(end, intruder) == progress(node, intruder) + len(steps), steps
                macros.add(len(steps))
                if entries[0][0] == "intruder" and len(entries) == 2:
                    # the intruder's message and the receive that takes it
                    sent = len(node.state.history)
                    assert sent in dict(end.inbox.consumed)[end.state.history[sent].rec]
                    fused.add(len(steps))
        level = next_level
    assert len(reached) == 165 and moves > len(reached)
    assert macros == {1, 2, 3} and fused == {2, 3}


# ── the guarantee every step keeps ──────────────────────────────────────────

# (scenario, intruder inventions): role steps, and intruder compositions,
# replays and inventions
WALKS = [("ns-search", 1), ("nsl-search", 0), ("two-senders", 0), ("cross-talk", 0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk=st.sampled_from(WALKS), choices=st.lists(st.integers(0, 10**6), max_size=22))
def test_every_step_changes_only_its_own_session(walk, choices):
    # the rely-guarantee check is `guarantee-no-mods-to-others`: each step,
    # a role's or the intruder's, changes only the records of its own session
    name, invents = walk
    searcher = _Searcher(_bounded(name, len(choices), invents), SPEC_INV)
    node = searcher.root
    for choice in choices:
        kids = children(searcher, node)
        if not kids:
            break
        entry = kids[choice % len(kids)]
        if entry[0] == "machine":
            machine = node.machines[entry[1]]
            owner, session = machine.owner, machine.session
        else:
            owner, session = searcher.intruder
        child = apply(searcher, node, entry)
        assert check_no_mods_to_others(node.state, child.state, {owner}, session), entry
        assert dyn_inv(node.state, child.state).holds, entry
        node = child


# ── safety checked for what each step adds ──────────────────────────────────

# (scenario, its step bound, intruder inventions), each explored in full
CARRIED = [
    ("ns-search", 14, 1),
    ("nsl-search", 14, 0),
    ("two-senders", 10, 0),
    ("cross-talk", 22, 0),
    ("honest", 14, 0),
]


def planted(state, parent, sc):
    """States like `state` that break safety: below a parent state, one
    whose first user's `conforms` flag flipped; one that invents a nonce of
    the run again (or n99 twice); one per user whose record, now changed,
    knows every nonce of the run and n99; and, with no intruder, one where
    the first conforming user sends a message claiming another identity."""
    history, users = state.history, state.users
    nonces = sorted({act.what for act in history if isinstance(act, Invent)})
    first = sorted(users)[0]
    if parent is not None:
        flipped = users[first]._replace(conforms=not users[first].conforms)
        yield state._replace(users={**users, first: flipped})
    again = (Invent(first, nonces[-1]),) if nonces else (Invent(first, Nonce(99)),) * 2
    yield state._replace(history=history + again)
    for uid in sorted(users):
        sid = min(users[uid].knows, default=f"{uid}#9")
        yield add_knows(state, uid, sid, [*nonces, Nonce(99)])
    if sc.intruder.kind == "none":
        honest = min(uid for uid, user in users.items() if user.conforms)
        other = max(uid for uid in users if uid != honest)
        yield state._replace(history=history + (Msg(other, honest, (other,)),))


@pytest.mark.parametrize("name,max_steps,invents", CARRIED, ids=[n for n, _, _ in CARRIED])
def test_carried_safety_facts_give_the_rescan_verdict(monkeypatch, name, max_steps, invents):
    # every micro state the search checks, and each planted failure beside
    # it, gets from the audit carried along its links the verdict and the
    # witness of a rescan of its whole state; each planted state is fed a
    # fork of the audit the search then steps, which a fork leaves as it was
    sc = _bounded(name, max_steps, invents)
    searcher, step = _Searcher(sc, SPEC_INV), invariants.Audit.step
    checked, witnesses = 0, set()

    class Checking(invariants.Audit):
        # the search's audits only: a rescan steps a plain `Audit`
        def step(self, state):
            nonlocal checked
            parent = self.state
            for bad in planted(state, parent, sc):
                expected = rescan(sc, bad, parent)
                assert expected is not None
                probe = self.fork()
                step(probe, bad)
                assert searcher.safety_violation(probe) == expected
                witnesses.add(expected)
            step(self, state)
            assert searcher.safety_violation(self) == rescan(sc, state, parent)
            checked += 1

    monkeypatch.setattr(search, "Audit", Checking)
    verdict = explore(sc, spec=SPEC_INV)
    assert verdict.counterexample is None and checked > verdict.states
    # the least unjustified nonce is not always the planted n99
    assert any("no-read-others" in w and not w.endswith("n99") for w in witnesses)
    assert any(w.startswith("dyn-inv") for w in witnesses)
    assert any("no-forge" in w for w in witnesses) == (sc.intruder.kind == "none")


# (scenario, explore's verdict on every spec: inconclusive, states)
INCREMENTAL = [(TWO_SENDERS, True, 65), (CROSS_TALK, False, 36)]


def test_each_micro_step_is_checked_only_for_what_it_added(monkeypatch):
    # the scale-nsl input, and cross-talk, an intruder-free search, which
    # asserts the honest-code obligations too: the whole state is rescanned
    # at the root at most, and every other check reads only the actions its
    # step appended
    rescans = [count_calls(monkeypatch, fn) for fn in (unique_nonces, no_read_others, inv_sigma)]
    justified = count_calls(monkeypatch, invariants._justify, weigh=lambda _, acts: len(acts))
    steps = count_calls(monkeypatch, runner.apply_entry)
    counters = (*rescans, justified, steps)
    for text, inconclusive, states in INCREMENTAL:
        before = [count() for count in counters]
        verdict = explore(parse_scenario(text), spec="all")
        *rescanned, added, stepped = [count() - was for count, was in zip(counters, before)]
        assert (verdict.inconclusive, verdict.states) == (inconclusive, states)
        assert max(rescanned) <= 1
        assert 0 < added <= stepped


# ── the intruder's knowledge and the mail, carried along the links ─────────

# (scenario, its step bound, intruder inventions, content length), each
# explored in full
CARRIED_MAIL = [
    ("ns-search", 18, 1, 2),
    ("nsl-search", 14, 0, 2),
    ("two-senders", 16, 0, 2),
    ("cross-talk", 22, 0, 2),
    ("two-pairs", 12, 1, 2),
    ("nsl-search", 15, 0, 3),
]


def receive_index(node, entry):
    """The history index the receive rule's scan gives a machine entry at a
    receive, or None for any other entry."""
    machine = node.machines[entry[1]]
    if not isinstance(machine.current(), RecvStmt):
        return None
    found = reference_find_match(machine, node.state, node.inbox, ABSTRACT)
    assert found is not None
    return found


@pytest.mark.parametrize(
    "name,max_steps,invents,content",
    CARRIED_MAIL,
    ids=[f"{n}-steps{m}-invents{i}-content{c}" for n, m, i, c in CARRIED_MAIL],
)
def test_carried_intruder_facts_and_mail_give_the_rebuilt_values(
    monkeypatch, name, max_steps, invents, content
):
    # at every micro state of a full exploration the intruder's known items
    # that the search carries are those its closure rebuilds, the knowledge
    # it hands `legal_moves` is the closure, opaque positions included, and
    # every receive it steps takes the message the receive rule's scan
    # finds; at every node it reaches, its machine starts are the enabled
    # entries with those indices, and the intruder's starts are those of the
    # moves its closure, its inventions and the pending copies counted over
    # the whole history give, each with its consumers
    sc = _bounded(name, max_steps, invents)
    sc = sc._replace(bounds=sc.bounds._replace(max_content_len=content))
    me, root = sc.intruder.user, runner.build_execution(sc).config.state
    check, starts = _Searcher.safety_violation, _Searcher._machine_starts
    moves, real_apply = _Searcher._intruder_starts, search.apply_entry
    generate = search.legal_moves
    counts = Counter()

    def checking(searcher, audit):
        found = check(searcher, audit)
        if me is not None:
            assert searcher.known(audit) == closure(audit.state, me).known_items
            counts["facts"] += 1
        return found

    def generating(knowledge, max_content, max_invents, waiting, history):
        # a node's users are the root's, so its state is the root's with its history
        assert knowledge == closure(root._replace(history=history), me)
        counts["knowledge"] += 1
        return generate(knowledge, max_content, max_invents, waiting, history)

    def starting(searcher, node, codes):
        got = starts(searcher, node, codes)
        entries = machine_entries(searcher, node)
        assert got == [((entry,), receive_index(node, entry)) for entry in entries]
        counts["starts"] += 1
        return got

    def moving(searcher, node, audit, codes):
        offered = list(moves(searcher, node, audit, codes))
        sent, expected = len(node.state.history), []
        for move, consumers in intruder_moves(searcher, node):
            if isinstance(move, InventNonce):
                expected.append(((("intruder", move),), None))
            expected += [((("intruder", move), ("machine", i, None)), sent) for i in consumers]
        assert offered == expected
        counts["moves"] += 1
        yield from offered

    def applying(config, entry, medium, intruder, found, known):
        if entry[0] == "machine":
            index = receive_index(config, entry)
            assert found == index or index is None
            counts["receives"] += index is not None
        else:
            assert known == closure(config.state, me).known_items
        return real_apply(config, entry, medium, intruder, found, known)

    monkeypatch.setattr(_Searcher, "safety_violation", checking)
    monkeypatch.setattr(_Searcher, "_machine_starts", starting)
    monkeypatch.setattr(search, "apply_entry", applying)
    monkeypatch.setattr(search, "legal_moves", generating)
    if me is not None:
        monkeypatch.setattr(_Searcher, "_intruder_starts", moving)
    verdict = explore(sc, spec=SPEC_INV)
    assert verdict.counterexample is None
    # the machine starts are built once per node reached
    assert counts["starts"] == verdict.states and counts["receives"] > 0
    if me is not None:
        assert counts["facts"] > verdict.states and counts["moves"] > 0
        assert counts["knowledge"] > 0


# ── the search's counters ───────────────────────────────────────────────────

# (scenario, spec, step bound) and what its search does: (states, keys,
# `legal_moves` calls, moves generated, intruder moves applied, micro-steps
# applied).  The benchmark's tracer reports these counts of attack-ns,
# certify-nsl and scale-nsl; a change that moves one on purpose names it.
SEARCH_COUNTS = [
    ("ns-search", "post-ns", 14, (54, 77, 47, 61, 48, 160)),
    ("nsl-search", "all", 64, (21, 21, 21, 13, 8, 42)),
    ("two-senders", "all", 10, (65, 97, 55, 55, 29, 250)),
]


@pytest.mark.parametrize(
    "name,spec,max_steps,expected",
    SEARCH_COUNTS,
    ids=[f"{n}-{s}-steps{m}" for n, s, m, _ in SEARCH_COUNTS],
)
def test_the_search_counters_are_pinned(monkeypatch, name, spec, max_steps, expected):
    sc = _bounded(name, max_steps)
    counts = Counter()
    key, generate, apply = search._node_key, search.legal_moves, search.apply_entry

    def keying(*args):
        counts["keys"] += 1
        return key(*args)

    def generating(*args):
        moves = generate(*args)
        counts["calls"] += 1
        counts["moves"] += len(moves)
        return moves

    def applying(config, entry, *rest):
        counts["steps"] += 1
        counts["intruder"] += entry[0] == "intruder"
        return apply(config, entry, *rest)

    monkeypatch.setattr(search, "_node_key", keying)
    monkeypatch.setattr(search, "legal_moves", generating)
    monkeypatch.setattr(search, "apply_entry", applying)
    verdict = explore(sc, spec=spec)
    got = (verdict.states, *(counts[k] for k in ("keys", "calls", "moves", "intruder", "steps")))
    assert got == expected


# ── each successor built once, keyed exactly ─────────────────────────────────


def sorted_key(state):
    """The state key as it was before frozensets: every dict of a user
    record as a sorted tuple, every knows set as a sorted tuple."""

    def user(u):
        return (
            tuple(sorted(u.int_partner.items())),
            tuple(sorted((sid, tuple(sorted(ns))) for sid, ns in u.knows.items())),
            u.skey,
            u.conforms,
            tuple(sorted(u.complete.items())),
        )

    return (
        tuple(sorted((uid, user(u)) for uid, u in state.users.items())),
        state.history,
        tuple(sorted(state.pkeys.items())),
    )


@pytest.mark.parametrize(
    "name,max_steps,invents", [("ns-search", 10, 1), ("nsl-search", 14, 0), ("two-senders", 10, 0)]
)
def test_the_state_key_groups_micro_states_as_the_sorted_key_does(monkeypatch, name, max_steps, invents):
    # every micro state of a full exploration: two states get equal keys
    # exactly when they got equal sorted keys
    states = []
    real_apply = search.apply_entry

    def applying(*args):
        child = real_apply(*args)
        states.append(child.state)
        return child

    monkeypatch.setattr(search, "apply_entry", applying)
    explore(_bounded(name, max_steps, invents), spec=SPEC_INV)
    groups = {(sorted_key(state), state_key(state)) for state in states}
    assert len(groups) == len({old for old, _ in groups}) == len({new for _, new in groups})
    assert len(states) > len(groups)  # some micro states are reached twice


def constructions(monkeypatch, cls):
    """Count the instances of `cls` made from now on, each through its
    `__new__`; returns a reader."""
    made = 0
    new = cls.__new__

    def counting(*args, **kwargs):
        nonlocal made
        made += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counting)
    return lambda: made


def test_each_step_builds_its_successor_machine_once(monkeypatch):
    # the scale-nsl input: a machine entry builds exactly one RoleMachine, an
    # intruder entry none, and a holding transition check no report (every
    # holding result shares the one report made here)
    sc = parse_scenario(TWO_SENDERS)
    root = _Searcher(sc, "all").root.state
    assert dyn_inv(root, root).holds
    machines = constructions(monkeypatch, RoleMachine)
    reports = constructions(monkeypatch, PredicateReport)
    built = {"machine": set(), "intruder": set()}
    holding = set()
    real_apply, real_check = search.apply_entry, invariants.dyn_inv

    def applying(config, entry, *rest):
        before = machines()
        child = real_apply(config, entry, *rest)
        built[entry[0]].add(machines() - before)
        return child

    def checking(before, after, *rest):
        made = reports()
        rep = real_check(before, after, *rest)
        if rep.holds:
            holding.add(reports() - made)
        return rep

    monkeypatch.setattr(search, "apply_entry", applying)
    monkeypatch.setattr(invariants, "dyn_inv", checking)
    verdict = explore(sc, spec="all")
    assert verdict.inconclusive and verdict.states == 65
    assert built == {"machine": {1}, "intruder": {0}}
    assert holding == {0}


def test_each_node_key_is_hashed_once(monkeypatch):
    # a tuple keeps no hash, so every hash of a key hashes each machine and
    # each message in flight again; the two-senders search also keys images
    # and tied renderings
    counts = {"keys": 0, "hashes": 0}

    class CountedKey(tuple):
        def __hash__(self):
            counts["hashes"] += 1
            return super().__hash__()

    real = search._node_key

    def keying(*args):
        counts["keys"] += 1
        return CountedKey(real(*args))

    monkeypatch.setattr(search, "_node_key", keying)
    for name in ("nsl-search", "two-senders"):
        verdict = explore(_bounded(name, 14), spec="all")
        assert verdict.counterexample is None and verdict.states > 1
        assert counts["hashes"] == counts["keys"] > 0


# ── the node key: the history as a multiset, the queues in flight ──────────

# (scenario, step bound, intruder inventions, content length or None, spec):
# violations, holds and inconclusive verdicts, with and without an intruder
KEY_CASES = [
    ("ns-search", 12, 0, None, "nsl-ft"),
    ("ns-search", 13, 0, None, "post-ns"),
    ("ns-search", 14, 0, None, "inv"),
    ("ns-search", 10, 1, None, "all"),
    ("nsl-search", 12, 1, None, "all"),
    ("nsl-search", 12, 1, None, "nsl-ft"),
    ("nsl-search", 13, 0, 3, "nsl-ft"),
    ("nsl-search", 14, 0, 3, "post-ns"),
    ("two-senders", 13, 0, None, "all"),
    ("two-senders", 16, 0, None, "nsl-ft"),
    ("cross-talk", 16, 0, None, "all"),
    ("cross-talk", 22, 0, None, "all"),
    ("honest", 12, 0, None, "all"),
]


def verdict_line(verdict):
    cex = verdict.counterexample
    return (
        verdict.spec, verdict.holds, verdict.inconclusive, verdict.detail,
        None if cex is None else len(cex.events),
    )


@pytest.mark.parametrize(
    "name,max_steps,invents,content,spec",
    KEY_CASES,
    ids=[f"{n}-steps{m}-invents{i}-content{c}-{s}" for n, m, i, c, s in KEY_CASES],
)
def test_the_multiset_key_gives_the_ordered_key_verdict(
    monkeypatch, name, max_steps, invents, content, spec
):
    sc = _bounded(name, max_steps, invents)
    if content is not None:
        sc = sc._replace(bounds=sc.bounds._replace(max_content_len=content))
    merged = explore(sc, spec=spec)
    monkeypatch.setattr(search, "_node_key", ordered_key)
    ordered = explore(sc, spec=spec)
    assert verdict_line(merged) == verdict_line(ordered)
    assert merged.states <= ordered.states
    # a counterexample reached through merged nodes is a run at both levels
    if merged.counterexample is not None:
        run = merged.counterexample
        schedule = schedule_from_doc(run.to_doc([merged]), sc)
        wire = execute_schedule(sc.with_level("concrete"), schedule)
        assert check_refinement(wire, run.final_state).holds


SEARCHERS = {}  # scenario text -> its _Searcher


def searcher_of(text):
    if text not in SEARCHERS:
        SEARCHERS[text] = _Searcher(parse_scenario(text), SPEC_INV)
    return SEARCHERS[text]


def key(node, text=TWO_SENDERS):
    """The node's key in a search of the scenario `text`."""
    searcher = searcher_of(text)
    return _node_key(node, searcher.groups, searcher.binds)


def reach(schedule, text=TWO_SENDERS):
    """The configuration of a scenario, by default the two-senders one
    (senders A#1 and A#2, receiver B#1), after the single steps of
    `schedule`: an intruder entry, or a machine index and the peer it
    chooses, if any.  In the two-senders scenario the first four steps of
    `opened` give A#1 the nonce n1 and A#2 the nonce n2."""
    searcher = searcher_of(text)
    node = searcher.root
    for step in schedule:
        entry = step if step[0] == "intruder" else ("machine", *step)
        node = apply(searcher, node, entry)
    return node


def opened(peer1, peer2):
    return [(0, peer1), (0, None), (1, peer2), (1, None)]


def test_commuting_interleavings_key_equal():
    # A#1's opener to B, taken by B#1, and A#2's opener to I, in either order
    one = reach(opened("B", "I") + [(0, None), (2, None), (1, None)])
    two = reach(opened("B", "I") + [(1, None), (0, None), (2, None)])
    assert one.machines == two.machines and one.state.users == two.state.users
    assert one.state.history != two.state.history
    assert one.inbox.consumed != two.inbox.consumed
    assert key(one) == key(two)
    assert ordered_key(one) != ordered_key(two)


def test_messages_to_a_user_without_a_machine_key_equal_in_either_order():
    # both openers go to the intruder, which runs no machine and takes nothing
    one = reach(opened("I", "I") + [(0, None), (1, None)])
    two = reach(opened("I", "I") + [(1, None), (0, None)])
    assert one.state.history != two.state.history
    assert key(one) == key(two)


# Two NSL senders at A that are not interchangeable: the first has B as its
# declared peer, the second chooses one.
DISTINCT_PEERS = TWO_SENDERS.replace(
    "role sender user=A variant=nsl\n", "role sender user=A peer=B variant=nsl\n", 1
)


def test_the_order_of_a_machine_owners_pending_messages_is_kept():
    # both openers wait for B, whose receive takes the newer: n2, or n1.
    # With two interchangeable senders the two nodes are images of each
    # other, swapping the senders and their nonces, and key equal.
    first = [(0, None), (0, None), (1, "B"), (1, None)]
    sends = [[(0, None), (1, None)], [(1, None), (0, None)]]
    one, two = (reach(first + order, DISTINCT_PEERS) for order in sends)
    assert set(one.state.history) == set(two.state.history)
    assert key(one, DISTINCT_PEERS) != key(two, DISTINCT_PEERS)
    received = [reach(first + order + [(2, None)], DISTINCT_PEERS) for order in sends]
    assert [node.machines[2].local("Nf") for node in received] == [Nonce(2), Nonce(1)]
    one, two = (reach(opened("B", "B") + order) for order in sends)
    assert key(one) == key(two)


def with_history(*history):
    """The two-senders root with `history` planted, no message consumed."""
    root = reach([])
    return root._replace(state=root.state._replace(history=history))


def test_the_history_is_keyed_with_multiplicity():
    # only the multiset tells these apart: the messages go to the intruder
    a, b = Msg("I", "A", ("A",)), Msg("I", "B", ("B",))
    assert key(with_history(a, a, b)) != key(with_history(a, b, b))
    assert key(with_history(a, b)) != key(with_history(a, a, b))
    assert key(with_history(a, b, a)) == key(with_history(a, a, b))


def test_the_queues_of_two_machine_owners_interleave_freely():
    # each receive reads only its own owner's queue
    to_a, to_b = Msg("A", "I", ("I", Nonce(1))), Msg("B", "I", ("I", Nonce(1)))
    assert key(with_history(to_a, to_b)) == key(with_history(to_b, to_a))
    again = Msg("B", "I", ("A", Nonce(1)))
    assert key(with_history(to_a, to_b, again)) != key(with_history(again, to_a, to_b))


# ── the node key: interchangeable sessions and nonce names ──────────────────


def test_swapped_interchangeable_sessions_key_equal():
    # A#1 opens to B and A#2 to I, or A#1 to I and A#2 to B: swapping the
    # two senders, with their nonces, maps one node to the other
    one = reach(opened("B", "I") + [(0, None), (1, None)])
    two = reach(opened("I", "B") + [(0, None), (1, None)])
    assert one.machines != two.machines and one.state.history != two.state.history
    assert key(one) == key(two)
    assert ordered_key(one) != ordered_key(two)


NS_INVENTS_1 = (ROOT / "scenarios" / "ns-search.scn").read_text().replace(
    "max_intruder_invents=0", "max_intruder_invents=1"
)


def test_nonces_invented_in_the_other_order_key_equal():
    # the intruder invents before or after A#1 opens to B: n1 and n2 swap
    invent, opener = ("intruder", InventNonce()), [(0, "B"), (0, None), (0, None)]
    one, two = reach([invent] + opener, NS_INVENTS_1), reach(opener + [invent], NS_INVENTS_1)
    assert one.machines[0].local("NA") == Nonce(2) and two.machines[0].local("NA") == Nonce(1)
    assert key(one, NS_INVENTS_1) == key(two, NS_INVENTS_1)
    assert ordered_key(one) != ordered_key(two)


def beside_a_sender(role):
    """An NSL scenario whose first role is a peer-free sender at A, its
    second `role`, and its third a receiver at B."""
    return TWO_SENDERS.replace(
        "role sender user=A variant=nsl\nrole sender user=A variant=nsl\n",
        f"role sender user=A variant=nsl\n{role}\n",
    )


SECOND_ROLE = {
    "identical": "role sender user=A variant=nsl",
    "declared-peer": "role sender user=A peer=I variant=nsl",
    "variant": "role sender user=A variant=ns",
    "kind": "role receiver user=A variant=nsl",
}


def completed(text, index):
    """The root of `text` with the session of machine `index` complete."""
    root = searcher_of(text).root
    return root._replace(state=set_complete(root.state, "A", root.machines[index].session))


@pytest.mark.parametrize("case", SECOND_ROLE)
def test_only_identical_declarations_are_interchanged(case):
    # the same thing done by the first or the second role of A: the nodes
    # key equal only when the two declarations are identical
    text = beside_a_sender(SECOND_ROLE[case])
    assert searcher_of(text).groups == (((0, 1),) if case == "identical" else ())
    pairs = [(completed(text, 0), completed(text, 1))]
    if case != "kind":
        # the role opens to I; the second one of declared-peer need not choose
        def opener(index):
            peer = None if (case, index) == ("declared-peer", 1) else "I"
            return [(index, peer), (index, None), (index, None)]

        pairs.append((reach(opener(0), text), reach(opener(1), text)))
    for one, two in pairs:
        assert ordered_key(one) != ordered_key(two)
        assert (key(one, text) == key(two, text)) == (case == "identical")


# (scenario, its machine positions with each group of identical declarations
# reversed): a schedule and its mirror reach images of each other
MIRRORS = [("two-senders", (1, 0, 2)), ("cross-talk", (3, 2, 1, 0))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mirror=st.sampled_from(MIRRORS), choices=st.lists(st.integers(0, 10**6), max_size=12))
def test_nodes_with_equal_keys_behave_alike(mirror, choices):
    # every node of a random schedule keys equal to its mirror image; around
    # the node the schedule ends at, two macro-steps deep, any two nodes with
    # equal keys have the same multiset of successor keys, the same contract
    # verdicts when quiescent, and the same user records and honest actions
    # up to renaming (`outcome`)
    name, swap = mirror
    sc = _bounded(name, 99)
    searcher = _Searcher(sc, SPEC_INV)

    def key_of(node):
        return _node_key(node, searcher.groups, searcher.binds)

    def successors(node):
        starts, audit = macro_starts(searcher, node)
        return [searcher.macro(node, audit, start, 99)[1] for start in starts]

    def behaviour(node):
        after = Counter(key_of(child) for child in successors(node))
        verdicts = tuple(contract_verdict(spec, node.state).holds for spec in ("post-ns", "nsl-ft"))
        return after, None if after else verdicts, outcome(node.state, sc)

    node = image = searcher.root
    for choice in choices:
        kids = children(searcher, node)
        if not kids:
            break
        entry = kids[choice % len(kids)]
        mirrored = ("machine", swap[entry[1]], entry[2]) if entry[0] == "machine" else entry
        node, image = apply(searcher, node, entry), apply(searcher, image, mirrored)
        assert key_of(node) == key_of(image)
    met = {}
    for child in successors(node):
        for each in [child, *successors(child)]:
            met.setdefault(key_of(each), {}).setdefault(ordered_key(each), each)
    for nodes in met.values():
        first, *others = (behaviour(each) for each in nodes.values())
        assert all(other == first for other in others)


