"""Bounded exhaustive exploration of honest-step / intruder-move interleavings.

The search is one level-synchronous breadth-first pass to depth max_steps.
Children are ordered by actor index (role machines in declaration order,
intruder last) and then by move enumeration order, and each level is
expanded in the order its nodes were reached, so every node is first
reached along its lexicographically least schedule.  A frontier entry
keeps a link to its parent's entry, and a counterexample's schedule is
rebuilt from the links.

A node is checked once, when it is first reached:

1. the safety invariants (transition invariant against its parent, state
   invariant);
2. whether any move is enabled: machine moves first, then intruder moves,
   stopping at the first one found;
3. for a node with no enabled move (quiescent), the requested contracts,
   through `specs.contract_verdict`.

Live nodes make up the next level.  The first violation returned is
therefore one of minimal depth, first in canonical order, and identical
bounds always reproduce the identical verdict, counterexample and state
count.  The verdict is inconclusive when live nodes remain at the step
bound.

Duplicates are dropped per level, and that is exact, not an
approximation: every step raises the progress measure
`sum(machine.pc + [machine aborted]) + #actions by the intruder` by
exactly one (a machine step advances its pc or aborts it, an intruder
move appends one action), so every schedule reaching a node has the same
length and a node can only recur within its own level.

Compositions are built from demand instead of being generated and then
filtered.  At each node the search collects the receive patterns waiting
per recipient, and `legal_moves` composes messages only for a recipient
with a waiting pattern, position by position from the known items of each
position's kind: the demand-driven idea of OFMC's lazy intruder (Basin,
Moedersheim and Vigano, 2005) applied to concrete items.  Two filters
remain, both sound for violation-finding within bounds and both needed to
keep the tree finite:

- demand-driven delivery: a replayed message is offered only when some
  machine of its recipient is sitting at a receive whose pattern the
  content matches, as every composed one already is.  A message nobody can
  consume never changes any user's records (recipient-only readability
  keeps it out of `knows`), and a consumer that would only reach its
  receive later can always be served by taking the same move later: the
  intruder's knowledge and the pending history only grow.
- no duplicate pending copies: a move is not offered while identical
  unconsumed messages already await the same recipient, as many as it has
  waiting machines the content matches, since consuming either copy leads
  to the same successor states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .intruder import (
    EMPTY_KNOWLEDGE,
    Compose,
    MoveBounds,
    ReplayOpaque,
    apply_move,
    closure,
    legal_moves,
)
from .invariants import dyn_inv, inv_sigma, no_read_others, unique_nonces
from .model import GlobalState, Invent, Msg, state_key
from .roles import (
    ABSTRACT,
    Inbox,
    RecvStmt,
    RoleMachine,
    Status,
    kinds_match,
    can_fire,
    needs_peer_choice,
    step,
)
from .runner import build_execution, execute_schedule
from .scenario import Scenario, ScenarioError, SearchBounds
from .specs import (
    SPEC_CHOICES,
    SPEC_INV,
    SpecVerdict,
    contract_verdict,
    evaluate_run_specs,
    resolve_spec_names,
)


@dataclass(frozen=True)
class _Node:
    machines: tuple[RoleMachine, ...]
    state: GlobalState
    inbox: Inbox


def _node_key(node: _Node) -> tuple:
    return (node.machines, state_key(node.state), node.inbox.consumed)


class _Searcher:
    def __init__(self, scenario: Scenario, bounds: SearchBounds, spec: str, on_quiescent=None):
        self.scenario = scenario
        self.bounds = bounds
        # `inv` is the safety check, made at every node
        self.quiescent_specs = [name for name in resolve_spec_names(spec) if name != SPEC_INV]
        self.on_quiescent = on_quiescent
        self.universe = scenario.universe()
        self.intr_user = scenario.intruder.user
        self.intr_session = scenario.intruder_session()
        ex = build_execution(scenario, "abstract")
        self.root = _Node(tuple(ex.machines), ex.state, ex.inbox)
        self.initial = ex.state

    # ── move generation ──────────────────────────────────────────────────

    def _machine_entries(self, node: _Node):
        for index, machine in enumerate(node.machines):
            if machine.status in (Status.COMPLETED, Status.ABORTED):
                continue
            if needs_peer_choice(machine):
                for peer in self.universe:
                    yield ("machine", index, peer)
            elif can_fire(machine, node.state, node.inbox, ABSTRACT):
                yield ("machine", index, None)

    def _demand(self, node: _Node):
        """Per-node delivery demand: the receive patterns waiting per
        recipient, and a filter that admits a message while fewer identical
        pending (unconsumed) copies await its recipient than it has waiting
        machines the content matches."""
        waiting: dict = {}
        for machine in node.machines:
            if machine.status in (Status.COMPLETED, Status.ABORTED):
                continue
            stmt = machine.current()
            if isinstance(stmt, RecvStmt):
                waiting.setdefault(machine.owner, []).append(stmt.pattern)
        pending: dict = {}
        for index, act in enumerate(node.state.history):
            if isinstance(act, Msg) and index not in node.inbox.consumed_for(act.rec):
                key = (act.rec, act.content)
                pending[key] = pending.get(key, 0) + 1

        def deliverable(rec, content) -> bool:
            matching = sum(1 for p in waiting.get(rec, ()) if kinds_match(content, p))
            return pending.get((rec, content), 0) < matching

        return waiting, deliverable

    def _intruder_entries(self, node: _Node):
        if self.scenario.intruder.kind != "search":
            return
        me = self.intr_user
        know = closure(EMPTY_KNOWLEDGE, node.state, me, ABSTRACT)
        used = sum(
            1 for a in node.state.history if isinstance(a, Invent) and a.user == me
        )
        remaining = self.bounds.max_intruder_invents - used
        move_bounds = MoveBounds(
            max_content=self.bounds.max_content_len, max_invents=max(0, remaining)
        )
        waiting, deliverable = self._demand(node)
        for move in legal_moves(know, move_bounds, waiting):
            if isinstance(move, Compose):
                if not deliverable(move.rec, move.content):
                    continue
            elif isinstance(move, ReplayOpaque):
                original = node.state.history[move.index]
                if not deliverable(original.rec, original.content):
                    continue
            yield ("intruder", move)

    def children(self, node: _Node):
        return list(self._machine_entries(node)) + list(self._intruder_entries(node))

    def apply(self, node: _Node, entry) -> _Node:
        if entry[0] == "machine":
            _, index, peer = entry
            machine, state, inbox = step(
                node.machines[index], node.state, node.inbox, ABSTRACT, chosen_peer=peer
            )
            machines = node.machines[:index] + (machine,) + node.machines[index + 1 :]
            return _Node(machines, state, inbox)
        _, move = entry
        state = apply_move(node.state, self.intr_user, self.intr_session, move, ABSTRACT)
        return _Node(node.machines, state, node.inbox)

    # ── evaluation ───────────────────────────────────────────────────────

    def safety_violation(self, node: _Node, parent: _Node | None) -> str | None:
        """Invariants every step must preserve.  With an intruder in play the
        per-user honesty obligations are rely conditions the environment can
        wreck for a conforming user, so the full state invariant is asserted
        per-state only in honest-only exploration; intruder moves must still
        preserve nonce freshness, recipient-only readability and the
        transition invariant."""
        if parent is not None:
            rep = dyn_inv(parent.state, node.state)
            if not rep.holds:
                return f"{rep.name}: {rep.witness}"
        if self.scenario.intruder.kind == "none":
            rep = inv_sigma(node.state)
        else:
            rep = unique_nonces(node.state.history)
            if rep.holds:
                rep = no_read_others(node.state)
        if not rep.holds:
            return f"{rep.name}: {rep.witness}"
        return None

    def quiescent_violation(self, node: _Node) -> str | None:
        """The first requested contract that fails from the initial state to
        this quiescent node, or None.  No transitions are given, so no
        failure is excused as rely-broken here; the counterexample's verdict,
        made on the re-executed run, says whether the environment broke the
        rely."""
        if self.on_quiescent is not None:
            self.on_quiescent(node.state)
        for spec in self.quiescent_specs:
            if not contract_verdict(spec, self.initial, node.state).holds:
                return spec
        return None

    def has_child(self, node: _Node) -> bool:
        """Whether any move is enabled: machine entries first, then intruder
        entries, stopping at the first one found."""
        return any(True for _ in chain(self._machine_entries(node), self._intruder_entries(node)))

    def first_reach(self, node: _Node, parent: _Node | None):
        """The checks made once, when a node is first reached: the safety
        invariants, then, for a node with no enabled move, the quiescent
        specs.  Returns (violation, live) with violation None or
        (spec name, safety detail or None)."""
        bad = self.safety_violation(node, parent)
        if bad is not None:
            return (SPEC_INV, bad), False
        if self.has_child(node):
            return None, True
        spec = self.quiescent_violation(node)
        return ((spec, None) if spec is not None else None), False

    # ── level-synchronous breadth-first pass ─────────────────────────────

    def run(self):
        """Returns (violation or None, its schedule, distinct nodes reached,
        whether live nodes remain at the step bound)."""
        violation, live = self.first_reach(self.root, None)
        if violation is not None:
            return violation, [], 1, False
        states = 1
        # frontier entries: (node, link); a link is (parent's link, entry), None at the root
        level = [(self.root, None)] if live else []
        for _ in range(self.bounds.max_steps):
            seen: set = set()
            next_level = []
            for node, link in level:
                for entry in self.children(node):
                    child = self.apply(node, entry)
                    key = _node_key(child)
                    if key in seen:
                        continue
                    seen.add(key)
                    states += 1
                    violation, live = self.first_reach(child, node)
                    if violation is not None:
                        return violation, _schedule((link, entry)), states, False
                    if live:
                        next_level.append((child, (link, entry)))
            level = next_level
        return None, [], states, bool(level)


def _schedule(link) -> list:
    schedule = []
    while link is not None:
        link, entry = link
        schedule.append(entry)
    schedule.reverse()
    return schedule


def _counterexample_verdict(scenario: Scenario, violation, schedule, states: int) -> SpecVerdict:
    """Re-execute a violating schedule and report the violated spec with
    the verdict `evaluate_run_specs` gives on the recorded run; a safety
    violation keeps the detail of the invariant that failed."""
    spec_name, safety_detail = violation
    run = execute_schedule(scenario, schedule)
    if spec_name == SPEC_INV:
        verdict = SpecVerdict(SPEC_INV, holds=False, detail=safety_detail)
    else:
        verdict = evaluate_run_specs(run, [spec_name])[0]
    return replace(verdict, counterexample=run, states=states)


def explore(
    scenario: Scenario,
    bounds: SearchBounds | None = None,
    spec: str = "all",
    on_quiescent=None,
) -> SpecVerdict:
    """Search all interleavings within bounds breadth-first and return the
    first counterexample (minimal depth, first in canonical order) or, with
    none, holds-within-bounds or inconclusive.  `states` counts the distinct
    nodes reached, the root included."""
    if scenario.intruder.kind == "lowe_script":
        raise ScenarioError("intruder: exploration drives a search intruder, not a scripted one")
    if scenario.level != "abstract":
        raise ScenarioError("level: exploration runs at the abstract level")
    if spec not in SPEC_CHOICES:
        raise ScenarioError(f"spec: unknown spec {spec!r}")
    bounds = bounds if bounds is not None else scenario.bounds
    searcher = _Searcher(scenario, bounds, spec, on_quiescent=on_quiescent)
    violation, schedule, states, truncated = searcher.run()
    if violation is not None:
        return _counterexample_verdict(scenario, violation, schedule, states)
    if truncated and bounds.max_steps > 0:
        return SpecVerdict(
            spec=spec,
            holds=False,
            inconclusive=True,
            states=states,
            detail="step bound cut branches that still had enabled moves",
        )
    return SpecVerdict(spec=spec, holds=True, states=states)
