"""Bounded exhaustive exploration of honest-step / intruder-move interleavings.

The search is an iterative-deepening depth-first enumeration: limits
0..max_steps, children ordered by actor index (role machines in declaration
order, intruder last) and then by move enumeration order.  The first
violation returned is therefore one of minimal depth, and identical bounds
always reproduce the identical verdict, counterexample and state count.

Specs are evaluated at quiescent states (no machine can step, no intruder
move on offer); the transition invariant and the global state invariant are
checked at every visited state.

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    SPEC_INV,
    SPEC_NSL_FT,
    SPEC_POST_NS,
    SpecVerdict,
    check_nsl_ft_all,
    check_post_ns_all,
)

SPEC_CHOICES = ("post-ns", "nsl-ft", "inv", "all")


@dataclass(frozen=True)
class _Node:
    machines: tuple[RoleMachine, ...]
    state: GlobalState
    inbox: Inbox


def _node_key(node: _Node) -> tuple:
    return (node.machines, state_key(node.state), node.inbox.consumed)


@dataclass
class _Limit:
    expanded: int = 0
    truncated: bool = False
    cex: tuple | None = None  # (spec name, schedule, detail or None)


class _Searcher:
    def __init__(
        self,
        scenario: Scenario,
        bounds: SearchBounds,
        quiescent_specs,
        on_quiescent=None,
    ):
        self.scenario = scenario
        self.bounds = bounds
        self.quiescent_specs = quiescent_specs
        self.on_quiescent = on_quiescent
        self.universe = scenario.universe()
        self.intr_user = scenario.intruder.user
        self.intr_session = scenario.intruder_session()

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

    def quiescent_violation(self, initial: GlobalState, node: _Node) -> str | None:
        if self.on_quiescent is not None:
            self.on_quiescent(node.state)
        for spec in self.quiescent_specs:
            if spec == SPEC_POST_NS:
                verdict = check_post_ns_all(initial, node.state)
            else:
                verdict = check_nsl_ft_all(initial, node.state)
            if not verdict.holds and not verdict.rely_broken:
                return spec
        return None

    # ── bounded depth-first pass ─────────────────────────────────────────

    def dfs(self, node: _Node, depth: int, limit: int, initial, path, visited, out: _Limit):
        out.expanded += 1
        kids = self.children(node)
        if not kids:
            spec = self.quiescent_violation(initial, node)
            if spec is not None:
                out.cex = (spec, list(path), None)
            return out.cex is not None
        if depth == limit:
            out.truncated = True
            return False
        for entry in kids:
            child = self.apply(node, entry)
            key = _node_key(child)
            seen_at = visited.get(key)
            if seen_at is not None and seen_at <= depth + 1:
                continue
            visited[key] = depth + 1
            bad = self.safety_violation(child, node)
            if bad is not None:
                out.cex = (SPEC_INV, list(path) + [_schedule_entry(entry)], bad)
                return True
            path.append(_schedule_entry(entry))
            found = self.dfs(child, depth + 1, limit, initial, path, visited, out)
            path.pop()
            if found:
                return True
        return False

    def run_limit(self, root: _Node, limit: int, initial, workers: int) -> _Limit:
        out = _Limit()
        bad = self.safety_violation(root, None)
        if bad is not None:
            out.expanded = 1
            out.cex = (SPEC_INV, [], bad)
            return out
        if workers <= 1:
            self.dfs(root, 0, limit, initial, [], {_node_key(root): 0}, out)
            return out
        # Partitioned search: every root branch explored independently, merged
        # in canonical order.  Verdict and counterexample match the sequential
        # search; the state count can differ because later partitions are not
        # cut short by an earlier counterexample.
        out.expanded = 1
        kids = self.children(root)
        if not kids:
            spec = self.quiescent_violation(initial, root)
            if spec is not None:
                out.cex = (spec, [], None)
            return out
        if limit == 0:
            out.truncated = True
            return out

        def explore_branch(entry):
            branch = _Limit()
            child = self.apply(root, entry)
            bad_child = self.safety_violation(child, root)
            if bad_child is not None:
                branch.expanded = 0
                branch.cex = (SPEC_INV, [_schedule_entry(entry)], bad_child)
                return branch
            self.dfs(
                child,
                1,
                limit,
                initial,
                [_schedule_entry(entry)],
                {_node_key(child): 1},
                branch,
            )
            return branch

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(explore_branch, kids))
        for branch in results:
            out.expanded += branch.expanded
            out.truncated = out.truncated or branch.truncated
            if out.cex is None and branch.cex is not None:
                out.cex = branch.cex
        return out


def _schedule_entry(entry):
    if entry[0] == "machine":
        return ("machine", entry[1], entry[2])
    return ("intruder", entry[1])


def explore(
    scenario: Scenario,
    bounds: SearchBounds | None = None,
    spec: str = "all",
    workers: int = 1,
    on_quiescent=None,
) -> SpecVerdict:
    """Enumerate interleavings within bounds; return the first (minimal-depth,
    canonical-order) counterexample, or holds-within-bounds with the number
    of state expansions performed across all deepening passes."""
    if scenario.intruder.kind == "lowe_script":
        raise ScenarioError("intruder: exploration drives a search intruder, not a scripted one")
    if scenario.level != "abstract":
        raise ScenarioError("level: exploration runs at the abstract level")
    if spec not in SPEC_CHOICES:
        raise ScenarioError(f"spec: unknown spec {spec!r}")
    bounds = bounds if bounds is not None else scenario.bounds
    quiescent_specs = {
        "all": (SPEC_POST_NS, SPEC_NSL_FT),
        SPEC_POST_NS: (SPEC_POST_NS,),
        SPEC_NSL_FT: (SPEC_NSL_FT,),
        SPEC_INV: (),
    }[spec]

    ex = build_execution(scenario, "abstract")
    root = _Node(tuple(ex.machines), ex.state, ex.inbox)
    initial = ex.state
    searcher = _Searcher(scenario, bounds, quiescent_specs, on_quiescent=on_quiescent)

    expanded_total = 0
    truncated_final = False
    for limit in range(bounds.max_steps + 1):
        result = searcher.run_limit(root, limit, initial, workers)
        expanded_total += result.expanded
        if result.cex is not None:
            spec_name, schedule, safety_detail = result.cex
            run = execute_schedule(scenario, schedule)
            if spec_name == SPEC_POST_NS:
                inner = check_post_ns_all(initial, run.final_state, list(run.transitions()))
                detail, rely_broken = inner.detail, inner.rely_broken
            elif spec_name == SPEC_NSL_FT:
                inner = check_nsl_ft_all(initial, run.final_state)
                detail, rely_broken = inner.detail, inner.rely_broken
            else:
                detail, rely_broken = safety_detail or "", False
            return SpecVerdict(
                spec=spec_name,
                holds=False,
                detail=detail,
                counterexample=run,
                states=expanded_total,
                rely_broken=rely_broken,
            )
        if limit == bounds.max_steps:
            truncated_final = result.truncated
    if truncated_final and bounds.max_steps > 0:
        return SpecVerdict(
            spec=spec,
            holds=False,
            inconclusive=True,
            states=expanded_total,
            detail="step bound cut branches that still had enabled moves",
        )
    return SpecVerdict(spec=spec, holds=True, states=expanded_total)
