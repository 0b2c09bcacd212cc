"""Bounded exhaustive exploration of honest-step / intruder-move interleavings.

The search moves by macro-steps (step compression, after Shmatikov and
Stern, *Efficient finite-state analysis for large security protocols*,
1998, as in Clarke, Jha and Marrero's Brutus).  A machine entry runs the
chosen machine on through its invisible statements: a set-partner or an
invent runs on into the next statement, and a finish runs right after the
step before it.  An intruder message (a composition or a replay) runs on
into the receive that consumes it: there is one macro per machine of the
recipient that `roles.takes` the new message when offered it alone, and
that receive takes it, since a receive takes the most recent unread match:
the search hands it the index of the message just sent, and the intruder's
move the knowledge the node carries.  A finish after that
receive runs on too.  A sender thus takes three transitions, [set-partner,
invent, send], [recv], [send, finish], a receiver [recv], [invent, send],
[recv, finish], and the intruder [compose or replay, recv], [compose or
replay, recv, finish] and [invent-nonce].  An abort ends a macro, and a
receive is never fused with what follows it, except a finish, so a macro
takes at most one message.

The honest fusion is sound, and it loses no behaviour that a check can see:

- set-partner and finish change only the owner's own user record and
  machine, which no other actor's step reads during a run;
- an invent also appends an `Invent` and takes the next nonce index, and no
  receive (the receive rule in `roles`), intruder `closure` or delivery
  demand reads an `Invent`, so moving an invent next to its send only
  renames nonces and shifts history positions;
- every reduced run is a run of the full model, so every counterexample is
  real (and `execute_schedule` re-executes it anyway).

So is the intruder fusion.  Take a run R of the full model and build R' from
it: drop every intruder message that no receive consumes, and move every
consumed one to just before its receive.

- A message that is never consumed changes no machine, inbox or user
  record but the intruder's own (recipient-only readability keeps it out of
  every other `knows`).  Dropping it cannot change which message a later
  receive takes: a receive takes the most recent unread match, and no
  receive took this one.
- A consumed message can be sent just before its receive.  It is still
  derivable there, because the intruder's knowledge only grows (R'
  renumbers a replay's history index, and a replay of an intruder message
  is the same message as the replay of its original, or its composition).
  Between its old and its new place no receive took it, so each receive in
  between chooses among the same candidates less one it did not take; at
  its own receive it is the newest unread match, and it is taken again.  It
  carries no fresh nonce, so the nonce of every invention after it is
  unchanged.
- R' is never longer than R, and it ends with the same machines, inboxes
  (up to renumbering) and honest user records.  When R ends quiescent so
  does R': its pending messages are R's less some that nobody could take,
  and the intruder's closure, which reads no message the intruder sent to
  another user, offers the same moves, none of them wanted.
- The intruder's own `knows` record takes in its closure only when the
  intruder moves.  Moving a consumed message later only makes that record
  larger from then on.  Dropping an unconsumed one can leave it smaller at
  the end, by nonces that reached the intruder after its last consumed
  message, and no check uses such a nonce.  The safety invariants ask only
  that records be justified and never shrink, and nsl-ft reads only
  conforming users' records.  The secrecy clause of post-ns asks whether
  the intruder holds two nonces of a session that completed with a
  conforming partner.  In NS and NSL the intruder never learns the nonce of
  an initiator whose partner conforms: it goes to that partner, and comes
  back only to the session that invented it, the one session whose nonce
  check it passes.  So the session is a responder, and the intruder learns
  its nonce only from an initiator whose partner is the intruder, whose
  opener gave the intruder the responder's other nonce.  No honest session
  then sends the responder its nonce back, so the responder's last receive
  takes an intruder message, which R' keeps, and by then the intruder's
  record holds both nonces.

The step bound counts the micro-steps of the reduced runs.  Since R' is
never longer than R, every run of the full model within `max_steps`
that ends quiescent is matched by a checked run within it.  The verdict is
inconclusive when a reduced run is cut at the bound with a step left, and
holds when every reduced run quiesces within it.  Steps spent on messages
nobody takes no longer count, so some bounds at which the single-step
search was inconclusive now hold (nsl-search at `max_steps` 11 and 12).

A node is a `runner.Config`, and every micro-step is applied through
`runner.apply_entry`, the interpreter that runs and replays use too.

Depth is counted in micro-steps.  Every micro-step raises the progress
measure `sum(machine.pc + [machine aborted]) + #actions by the intruder`
by exactly one (a machine step advances its pc or aborts it, an intruder
move appends one action), so every schedule reaching a node has the same
length.  The frontier is kept in buckets keyed by that measure: a macro of
k steps from depth d lands in bucket d+k, and duplicates are dropped per
bucket, which is exact, not an approximation.  Buckets are expanded in
increasing depth, each in the order its nodes were reached, and the search
ends when no bucket is left.  A macro that would pass `max_steps` is cut
there, and since the node where it is cut still has a step of the macro
enabled, the search is then truncated.

Duplicates are found by `_node_key`, which forgets the order of the
history, as Mitchell, Mitchell and Stern's Murphi model does (*Automated
analysis of cryptographic protocols using Murphi*, 1997): the intruder's
knowledge is a set, and only the messages still in flight keep their order.
A node is keyed by its machines, each user's partner, knows and complete
records, the history as a multiset, and, for each user that owns a machine,
the messages to it that no receive has taken, in history order.  So runs
that differ only in the order of commuting steps meet in one node.  The key
is exact: two nodes with equal keys have the same successors, up to the
history positions of their actions, and every reader of the history reads
only what the key keeps.

- A receive takes the newest unread message to its owner that its pattern
  matches: the last match in the owner's queue.  The search asks
  `roles.takes`, the receive rule, over the owner's pending codes, each
  read as its message's content, and hands the index it picks to the
  step.
- The intruder's `closure` is the user names, the items of the messages to
  the intruder and its own inventions, all sets: the users and the
  intruder's justified nonces in the node's audit.  Its opaque
  list, read off the node's history, names the positions of the other
  messages, and a replay re-sends the message at one, so both nodes offer
  the same replayed messages, by other indices.
- The next nonce is one past the state's `top`, the highest in the
  history, and the intruder's invention count counts its `Invent`s, read
  as the intruder's codes in the nonce table: the multiset fixes both.
- The pending-copies filter counts the unconsumed copies per recipient and
  content, read from the pending codes: the owner's queue.  The intruder
  offers nothing to a recipient with no machine, whose messages no receive
  ever takes.
- Depth, the progress measure, reads the machines and the number of the
  intruder's actions.
- A successor's safety is checked by its parent's audit, forked: the
  transition invariant against its real parent, and what the step added
  against facts carried along its links.  The parent held, so what the
  step added fails exactly when it fails on the other node: freshness and
  justified nonces read the multiset, and the honesty obligations of an
  intruder-free search pair each new message with every earlier one.
- The contracts read only the user records.
- A counterexample is rebuilt from the links of the node reached first,
  and re-executed, so it is a run of the model, whatever was merged into
  it.

The public and private keys never change in a search, and a step that
changed a `conforms` flag fails the transition invariant before its node
is keyed, so none of them is in the key.  The consumed history indices
are not either: the queues and the multiset fix everything they told
apart, up to history positions.  Keying by the ordered history instead finds the same verdicts
from more nodes (attack-ns: 100 instead of 54).

Nodes that differ only in the names of their nonces, or in which of two
interchangeable sessions did what, meet in one node too (symmetry
reduction, after the scalarsets of Ip and Dill, *Better verification
through symmetry*, 1996, which Murphi implements).  Two machines are
interchangeable when their role declarations are identical: the same user,
kind, variant and declared peer (`_Searcher.groups`).  `_node_key` keys the
node's canonical image:

- the members of each group take the group's positions in the order of a
  signature that no renaming changes (pc, highest first, status, chosen
  peer, and the session's recorded partner and completion), each under the
  session id of the position it takes;
- members whose signatures tie are split, as colour refinement does (McKay,
  *Practical graph isomorphism*, 1981), by what each is to the nonces
  labelled so far (the placed machines' by position, the intruder's by
  index) in its locals, its known nonces and the actions that hold its own
  nonce, with their places among the pending messages.  A member split off
  alone is placed and labels its nonce, until nothing splits;
- each nonce is named by who invented it: a machine's by the position the
  machine takes, the intruder's by its index among the intruder's;
- the members still tied are tried in every order, and the key is the
  least image; members with equal codes have invented nothing, and are not
  ordered, as their order changes no code.

One encoder (`_Encoder`) writes every key, plain, image or tied, as a tuple
of tuples of small ints: the machines by position, each session's records,
the history as a sorted tuple of actions, and the pending messages.  A
node's codes are carried along its links, as its audit is: a
macro-step re-encodes only the machines and records it replaced and the
actions it appended, and an image's codes are interned.  At every node of
attack-ns and certify-nsl the image is the node, and the key its codes.
The image exists only to be keyed: the search keeps the node it reached
first, and a counterexample is rebuilt from its links and re-executed.  The
intruder's inventions are not permuted among themselves, so nodes that
differ only in which of two intruder nonces was used where stay apart.

The key is canonical.  It describes its image completely: each code has a
fixed layout, an action's kind shows in its length, a machine's local names
follow from its declaration, pc and status, and each session is one user's.
A permutation of interchangeable sessions, with a bijection of the nonces
that keeps the intruder's in index order, keeps every signature and
feature, as a label or a nonce's code names a position or an index, never a
nonce.  So equivalent nodes leave the same cells tied and try the same
images, and nodes that are not equivalent have no image in common.

The merge is exact.  A permutation of interchangeable sessions, with a
bijection of the nonces 1..k of a node, maps the node to one with the same
successors, mapped alike, and the same verdicts, because each reader of a
nonce index or a session id is equivariant or decides only which of
equivalent nodes or violations is met first:

- `model.append_invention` takes one past the state's `top`.  The nonces
  of a search node are 1..k, in every image too, so the top is k and the
  next is k+1 on both sides, and fresh either way.
- `intruder.legal_moves` orders its pool by `item_key`, so by nonce index,
  and the search tries machines in position order: a renaming or a
  permutation reorders a node's successors, not their set.  It can change
  which of two equivalent successors is reached first, and kept.
- The intruder's invention count, its codes in the nonce table, counts
  its `Invent`s by user, which a renaming keeps.
- The contracts in `specs` and the safety invariants walk sessions and
  nonces in `sorted` order and name the first failure, so a renaming can
  change which names a detail gives, never a verdict.  The detail reported
  is taken from the re-executed run of the node reached first.
- A session id only names the records its machine writes, and a
  permutation moves a machine together with its records.  No step reads
  another session's id, and the history holds none.

Every micro state is checked against the safety invariants by one audit
(`invariants.Audit`), with or without an intruder: each macro-step forks
its node's audit once (`Audit.fork`) and steps the fork through its micro
states (`Audit.step`).  It checks the transition invariant against the
state before, and what the step added against facts carried along the links:
the nonces invented so far, each user's justified nonces and, in an
intruder-free search, each conforming user's honest-code obligations
(`_Searcher.safety_violation`).  That equals a rescan of the whole state:
the parent held, so a reused nonce or a broken obligation is first met
among the new actions, and a user record the parent held is still
justified, since justified sets only grow along a path.  Only the nodes
at a macro boundary are keyed (the root excepted, whose safety is checked
first), and each is admitted once, when first reached, by one step
(`_Searcher.admit`), the root's as every child's:

1. it is counted in `states`, and its starts are made one iterable:
   machine starts, then intruder starts, built as it is read (past the
   first only when the node is expanded);
2. a node with no start (quiescent) is checked against the requested
   contracts, through `specs.contract_verdict`;
3. any other node is filed in its bucket with its starts, or, at the
   step bound, cut there with a step left, and the search is truncated.

No intermediate state of a macro is quiescent: it has a step of the macro
left.  `states explored` counts the distinct macro-boundary nodes, the root
included.  A frontier entry keeps a link to its parent's entry and the
micro entries of the macro that reached it, and a counterexample's
schedule is rebuilt from the links, so its trace has the format of an
unreduced run.

The first violation met is returned.  When it is met in bucket d, every
state of depth d or less has been checked, and it lies at most three
micro-steps (the longest macro) below d: a counterexample is at most two
micro-steps longer than the shortest one.  Identical bounds always
reproduce the identical verdict, counterexample and state count.

The intruder's messages are built from demand instead of being generated
and then filtered.  At each node the search groups the waiting receives'
patterns by recipient, in one pass (`_Searcher._intruder_starts`).
`legal_moves` composes messages only from a recipient's waiting patterns
no longer than `max_content_len`, position by position from the known
items of each position's kind (the demand-driven idea of OFMC's lazy
intruder, Basin, Moedersheim and Vigano, 2005, applied to concrete items),
and replays only a message whose content's `kinds_of` is a pattern waiting
at its recipient.  A message's
consumers are the machines of its recipient that `roles.takes` it, so
every message the search sends is taken at once.  One filter remains: a
message is not offered while identical unconsumed messages already await
the same recipient, as many as it has waiting machines the content
matches, since consuming either copy leads to the same successor states.
Without it the search reaches more nodes, with the same verdicts
(ns-search: 70 instead of 54, nsl-search: 38 instead of 21).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import replace
from itertools import chain, permutations, product
from operator import attrgetter

from .intruder import IntruderKnowledge, InventNonce, ReplayOpaque, legal_moves
from .invariants import Audit
from .model import GlobalState, Invent, Msg, Nonce, UserState, _nonces_in_history
from .roles import (
    FinishStmt,
    Inbox,
    InventStmt,
    RecvStmt,
    RoleMachine,
    SetPartner,
    Status,
    takes,
)
from .runner import Config, apply_entry, build_execution, execute_schedule
from .scenario import Scenario, ScenarioError
from .specs import (
    SPEC_CHOICES,
    SPEC_INV,
    SpecVerdict,
    contract_verdict,
    evaluate_run_specs,
    resolve_spec_names,
)


_STATUS = {status._value_: code for code, status in enumerate(Status)}
_RUNNING = Status.RUNNING
_IX = attrgetter("ix")


def _node_key(node: Config, groups, binds, codes=None) -> tuple:
    """The key of the node's canonical image (see the module docstring):
    `groups` holds the positions of each group of two or more identical role
    declarations, `binds` the local each machine's invent binds, and `codes`
    the node's codes carried along its links (None: encode it afresh)."""
    codes = codes or _Encoder(node, binds).codes(node)
    return codes[0].key(groups, codes)


def _split(cells: list, order: list, feature) -> list:
    """Each cell's members sorted by `feature` and placed in its positions
    in that order; the runs of two or more equal features, as cells of
    (positions, members)."""
    left = []
    for positions, members in cells:
        signed, start = sorted([(feature(i), i) for i in members]), 0
        for k, (value, i) in enumerate(signed):
            order[positions[k]] = i
            if k + 1 == len(signed) or signed[k + 1][0] != value:
                if k > start:
                    left.append((positions[start : k + 1], [j for _, j in signed[start : k + 1]]))
                start = k + 1
    return left


class _Encoder:
    """The codes of one search's nodes, tuples of small ints: a uid is its
    index in the users dict and a session the position of its machine (any
    other session follows them), as all states of a search have the same
    users and sessions.  A nonce is coded by who invented it: -1 - i for
    machine i's, and -1 - n - j for the intruder's j-th, n the number of
    machines.  A node's codes are (this encoder, its machines, its sessions'
    records, its history as a sorted tuple, its pending messages as
    (recipient, history index, action), each nonce's code by index); a
    node shares those it did not change with its parent.  `table` interns
    the codes of images, so that kept keys share them, and `moved` keeps by
    value what a permutation made of a code."""

    def __init__(self, node: Config, binds):
        machines, users = node.machines, node.state.users
        self.binds, self.table, self.moved = binds, {}, {}
        self.uids = {uid: code for code, uid in enumerate(users)}
        self.sids = {machine.session: index for index, machine in enumerate(machines)}
        opened = [u.int_partner.keys() | u.knows.keys() | u.complete.keys() for u in users.values()]
        for sid in sorted(set().union(*opened) - self.sids.keys()):
            self.sids[sid] = len(self.sids)
        # each user's sessions with their codes (every session is one user's)
        self.opened = [[(sid, self.sids[sid]) for sid in sids] for sids in opened]
        self.owners = {self.uids[machine.owner] for machine in machines}

    def intern(self, code: tuple) -> tuple:
        return self.table.setdefault(code, code)

    def machine(self, machine: RoleMachine, nonces: dict) -> tuple:
        """(pc, status, peer, the locals' values)."""
        uids = self.uids
        values = [nonces[v.ix] if v.__class__ is Nonce else uids[v] for _, v in machine.locals]
        peer = uids.get(machine.peer, len(uids))
        return (machine.pc, _STATUS[machine.status._value_], peer, *values)

    def session(self, user: UserState, sid: str, nonces: dict) -> tuple:
        """(partner or the user count, completion (2 unrecorded, 3 more if
        knows has no entry), its known nonces in order)."""
        known = user.knows.get(sid)
        partner = self.uids.get(user.int_partner.get(sid), len(self.uids))
        done = user.complete.get(sid, 2) + 3 * (known is None)
        return (partner, done, *sorted(map(nonces.__getitem__, map(_IX, known or ()))))

    def action(self, act, nonces: dict) -> tuple:
        """(user, nonce) for an invention, (recipient, sender, *items) else."""
        uids = self.uids
        if act.__class__ is Invent:
            return (uids[act.user], nonces[act.what.ix])
        items = [nonces[i.ix] if i.__class__ is Nonce else uids[i] for i in act.content]
        return (uids[act.rec], uids[act.sender], *items)

    def codes(self, node: Config) -> tuple:
        """The node's codes, extended from those of a node with nothing once
        its nonces are coded (one that no machine binds is the intruder's),
        less the messages its inbox has consumed."""
        machines, users, binds = node.machines, dict.fromkeys(node.state.users), self.binds
        own = {v.ix: -1 - i for i, m in enumerate(machines) for k, v in m.locals if k == binds[i]}
        others = sorted({n.ix for n in _nonces_in_history(node.state.history)} - own.keys())
        nonces = {**own, **{ix: -1 - len(machines) - j for j, ix in enumerate(others)}}
        blank = Config((None,) * len(machines), GlobalState(users, (), {}, 0), Inbox())
        sessions = (None,) * len(self.sids)
        codes = self.extend((self, blank.machines, sessions, (), (), nonces), blank, node, None)
        taken = set().union(*(indices for _, indices in node.inbox.consumed))
        return (*codes[:4], tuple([p for p in codes[4] if p[1] not in taken]), codes[5])

    def extend(self, codes: tuple, parent: Config, child: Config, found: int | None) -> tuple:
        """The codes of `child`, a macro-step from `parent`, from `codes`,
        the parent's: its actions are added, its inventions coded first, the
        machines and sessions' records it replaced encoded, and the message
        its receive took dropped, at history index `found` as the macro's
        start names it (the receive's, or the intruder's message's; None:
        the macro took none)."""
        _, machines, sessions, multiset, pending, nonces = codes
        before, after = parent.state, child.state
        if len(after.history) > len(before.history):
            multiset, pending = list(multiset), list(pending)
            for index in range(len(before.history), len(after.history)):
                act = after.history[index]
                if act.__class__ is Invent and act.what.ix not in nonces:
                    nonces = self.invented(nonces, act.what, child.machines)
                code = self.action(act, nonces)
                insort(multiset, code)
                if len(code) > 2 and code[0] in self.owners:
                    insort(pending, (code[0], index, code))
            multiset, pending = tuple(multiset), tuple(pending)
        if child.machines is not parent.machines:
            changed = zip(machines, parent.machines, child.machines)
            machines = tuple([c if m is o else self.machine(m, nonces) for c, o, m in changed])
        if after.users is not before.users:
            sessions = list(sessions)
            for opened, old, new in zip(self.opened, before.users.values(), after.users.values()):
                for sid, code in opened if new is not old else ():
                    # a record left as it was holds the same nonce objects
                    if old is None or new.knows.get(sid) != old.knows.get(sid) or (
                        new.int_partner.get(sid) != old.int_partner.get(sid)
                        or new.complete.get(sid) != old.complete.get(sid)
                    ):
                        sessions[code] = self.session(new, sid, nonces)
            sessions = tuple(sessions)
        if found is not None:
            pending = tuple([p for p in pending if p[1] != found])
        return self, machines, sessions, multiset, pending, nonces

    def invented(self, nonces: dict, nonce, machines) -> dict:
        """`nonces` with `nonce` coded: the binding machine's invention, else the intruder's."""
        bound = [i for i, m in enumerate(machines) if (self.binds[i], nonce) in m.locals]
        others = sum(1 for c in nonces.values() if c < -len(machines))
        return {**nonces, nonce.ix: -1 - bound[0] if bound else -1 - len(machines) - others}

    def key(self, groups, codes: tuple) -> tuple:
        """The least image over the orders of the members left tied."""
        order, cells = self.rank(groups, codes) if groups else (None, ())
        if not cells:
            return self.image(codes, order)
        images = []
        for choice in product(*(permutations(members) for _, members in cells)):
            for (positions, _), members in zip(cells, choice):
                for position, index in zip(positions, members):
                    order[position] = index
            images.append(self.image(codes, order))
        return min(images)

    def rank(self, groups, codes: tuple):
        """The machine each position of the image takes (None: each its own),
        and the cells (positions, members) that splitting by signature, then
        by feature, leaves tied; a feature marks a nonce -1 if it is the
        member's own and -2 if it has no label."""
        _, machines, sessions, multiset, pending, nonces = codes
        signatures = [(-m[0], *m[1:3], *e[:2]) for m, e in zip(machines, sessions)]
        order = list(range(len(machines)))
        cells = _split([(group, group) for group in groups], order, signatures.__getitem__)
        # members with equal codes have invented nothing: all their orders give one image
        cells = [c for c in cells if len({(machines[i], sessions[i]) for i in c[1]}) > 1]
        if not cells:
            return (None if order == sorted(order) else order), cells
        tied = {i for _, members in cells for i in members}
        label = {-1 - i: -3 - p for p, i in enumerate(order) if i not in tied}
        label.update((c, c - 2) for c in nonces.values() if c < -len(machines))

        def feature(i):
            own = -1 - i
            get = {**label, own: -1}.get
            acts = [tuple([c if c >= 0 else get(c, -2) for c in a]) for a in multiset if own in a]
            return (
                tuple([c if c >= 0 else get(c, -2) for c in machines[i][3:]]),
                sorted([get(c, -2) for c in sessions[i][2:]]),
                sorted(acts),
                [place for place, (_, _, act) in enumerate(pending) if own in act],
            )

        while cells:
            left = _split(cells, order, feature)
            placed = tied.difference(*(members for _, members in left))
            if not placed and len(left) == len(cells):
                break
            label.update((-1 - i, -3 - p) for p, i in enumerate(order) if i in placed)
            cells, tied = left, tied - placed
        return order, cells

    def image(self, codes: tuple, order) -> tuple:
        """The key of the node with position p running machine `order[p]`
        under p's session, with p's nonce code (None: each its own)."""
        _, machines, sessions, multiset, pending, _ = codes
        waiting = tuple([act for _, _, act in pending])
        if order is None:
            return machines, sessions, multiset, waiting
        # what this permutation makes of a machine or an action, and of a
        # session's records, which sort their nonces (kept apart: a code of
        # one kind can equal one of the other)
        memo, entries = self.moved.setdefault(tuple(order), ({}, {}))
        get, intern, n = memo.get, self.intern, len(machines)
        to = list(range(n))
        for position, index in enumerate(order):
            to[index] = position

        def moved(code):
            new = [-1 - to[-1 - c] if -n <= c < 0 else c for c in code]
            return memo.setdefault(code, intern(tuple(new)))

        def entry(code):
            known = sorted([-1 - to[-1 - c] if c >= -n else c for c in code[2:]])
            return entries.setdefault(code, intern((*code[:2], *known)))

        machines = tuple([get(machines[i]) or moved(machines[i]) for i in order])
        places = (*order, *range(n, len(sessions)))
        sessions = tuple([entries.get(sessions[i]) or entry(sessions[i]) for i in places])
        multiset = tuple(sorted([get(act) or moved(act) for act in multiset]))
        return machines, sessions, multiset, tuple([get(act) or moved(act) for act in waiting])


class _Searcher:
    def __init__(self, scenario: Scenario, spec: str):
        self.scenario = scenario
        # `inv` is the safety check, made at every node
        self.quiescent_specs = [name for name in resolve_spec_names(spec) if name != SPEC_INV]
        self.universe = scenario.universe()
        run = build_execution(scenario)
        self.medium, self.intruder, self.root = run.medium, run.intruder, run.config
        # the positions of each group of identical role declarations, and
        # the local each machine's invent binds, for the node key
        declared: dict = {}
        for index, role in enumerate(scenario.roles):
            declared.setdefault(role, []).append(index)
        self.groups = tuple(tuple(group) for group in declared.values() if len(group) > 1)
        self.binds = tuple(
            next(s.bind for s in machine.statements() if isinstance(s, InventStmt))
            for machine in self.root.machines
        )
        self.encoder = _Encoder(self.root, self.binds)
        # an intruder can wreck a conforming user's honest-code obligations,
        # rely conditions: only an intruder-free search asserts them
        self.audit = Audit(obligations=scenario.intruder.kind == "none")
        # what the intruder always knows, each machine's owner code, and its
        # own step and its peer choices as macro starts that take no
        # message, shared by the nodes that keep their starts
        self.users = frozenset(self.root.state.users)
        self.owners = tuple(self.encoder.uids[m.owner] for m in self.root.machines)
        positions = range(len(self.owners))
        self.alone = tuple(((("machine", i, None),), None) for i in positions)
        self.choices = tuple(
            tuple(((("machine", i, peer),), None) for peer in self.universe) for i in positions
        )
        self.states = self.depth = 0  # how far `run` got: nodes reached, depth expanded
        self.truncated = False  # whether a node was cut at the step bound with a step left

    # ── move generation ──────────────────────────────────────────────────

    def _machine_starts(self, node: Config, codes: tuple) -> list:
        """The macro starts of the running machines, by position, each as
        (entries, the history index its receive takes or None): a
        set-partner with no peer yet once per peer, a receive when it
        `takes` one of the pending messages to its owner, and any other
        statement."""
        *_, pending, _ = codes
        history, starts = node.state.history, []
        for index, machine in enumerate(node.machines):
            if machine.status is not _RUNNING:
                continue
            stmt = machine.current()
            if stmt.__class__ is RecvStmt:
                owner = self.owners[index]
                mail = [(i, history[i].content) for to, i, _ in pending if to == owner]
                taken = takes(machine, mail)
                if taken is not None:
                    starts.append((self.alone[index][0], taken[0]))
            elif stmt.__class__ is SetPartner and machine.peer is None:
                starts.extend(self.choices[index])
            else:
                starts.append(self.alone[index])
        return starts

    def known(self, audit: Audit) -> frozenset:
        """The items the intruder knows at a node, its `closure`: the users,
        and its justified nonces, which its inventions and its mail justify."""
        return self.users | audit.justified.get(self.intruder[0], frozenset())

    def _intruder_starts(self, node: Config, audit: Audit, codes: tuple):
        """The macro starts the intruder makes at a node: an invention
        alone, and each message together with the receive of each of its
        consumers, which takes the message just sent: the machines of its
        recipient that `takes` it.  The patterns of the waiting receives,
        grouped by recipient, are the demand the moves are built from.  A
        message is offered while fewer identical pending (unconsumed)
        copies await its recipient than it has consumers.  The moves read the intruder's
        `closure` (`known`, from the node's audit, and the positions it
        cannot read, off the node's history), its invention count (its
        codes in the nonce table) and the pending copies per (recipient,
        content) (the pending codes, which hold the messages to machine
        owners)."""
        if self.scenario.intruder.kind != "search":
            return
        *_, pending, nonces = codes
        history, floor = node.state.history, -len(node.machines)
        machines, waiting = node.machines, {}
        for machine in machines:
            stmt = machine.current() if machine.status is _RUNNING else None
            if stmt.__class__ is RecvStmt:
                waiting.setdefault(machine.owner, []).append(stmt.pattern)
        copies: dict = {}
        for _, index, _ in pending:
            msg = history[index]
            copies[msg.rec, msg.content] = copies.get((msg.rec, msg.content), 0) + 1
        bounds, sent, me = self.scenario.bounds, len(history), self.intruder[0]
        opaque = [i for i, a in enumerate(history) if a.__class__ is Msg and a.rec != me]
        know = IntruderKnowledge(self.known(audit), tuple(opaque))
        invents = bounds.max_intruder_invents - sum(1 for c in nonces.values() if c < floor)
        for move in legal_moves(know, bounds.max_content_len, invents, waiting, history):
            if move.__class__ is InventNonce:
                yield (("intruder", move),), None
                continue
            msg = history[move.index] if move.__class__ is ReplayOpaque else move
            mail = ((sent, msg.content),)
            consumers = [i for i, m in enumerate(machines) if m.owner == msg.rec and takes(m, mail)]
            if copies.get((msg.rec, msg.content), 0) < len(consumers):
                for index in consumers:
                    yield (("intruder", move), ("machine", index, None)), sent

    def macro(self, node: Config, audit: Audit, start, room: int):
        """The macro-step from `start`, (its first entries, the history index
        its receive takes or None): its last machine runs on through its
        invisible statements, for at most `room` micro-steps in all.  A
        macro takes at most one message, and an intruder move comes first.
        The micro states are stepped through one fork of `audit`, the audit
        of `node`.  Returns (the micro entries taken, the node reached, its
        audit, the safety detail or None, whether the macro was cut at
        `room` with a step of it left)."""
        steps, audit = [], audit.fork()
        (entry, *rest), found = start
        while True:
            known = self.known(audit) if entry[0] == "intruder" else None
            child = apply_entry(node, entry, self.medium, self.intruder, found, known)
            steps.append(entry)
            audit.step(child.state)
            bad = self.safety_violation(audit)
            if bad is not None:
                return steps, child, audit, bad, False
            if rest:
                following = rest.pop(0)
            elif entry[0] == "machine" and _runs_on(
                node.machines[entry[1]], child.machines[entry[1]]
            ):
                following = ("machine", entry[1], None)
            else:
                return steps, child, audit, None, False
            if len(steps) == room:
                return steps, child, audit, None, True
            node, entry = child, following

    # ── evaluation ───────────────────────────────────────────────────────

    def safety_violation(self, audit: Audit) -> str | None:
        """The first safety invariant the state last fed to `audit` breaks,
        as a detail, or None: the transition invariant, then the state
        invariant if the audit asserts the honest-code obligations, else
        nonce freshness, then recipient-only readability."""
        rep = audit.dyn or (audit.inv if audit.obligations else audit.unique or audit.unread)
        return None if rep is None else f"{rep.name}: {rep.witness}"

    def quiescent_violation(self, node: Config) -> str | None:
        """The first requested contract that fails on this quiescent node's
        state, or None.  The counterexample's verdict is made again, on the
        re-executed run's final state, by `evaluate_run_specs`."""
        for spec in self.quiescent_specs:
            if not contract_verdict(spec, node.state).holds:
                return spec
        return None

    def admit(self, node: Config, audit: Audit, codes: tuple, at: int, link, buckets: dict):
        """The checks made once, when a macro-boundary node at depth `at` is
        first reached, which count it: whether any move is enabled, its
        starts (machine starts, then intruder starts) read up to the first.
        A node with none (quiescent) is checked against the quiescent specs,
        one at the step bound is cut there with a step left, and any other
        is filed in its bucket with its starts.  Returns the violated spec or None."""
        self.states += 1
        starts = chain(self._machine_starts(node, codes), self._intruder_starts(node, audit, codes))
        first = next(starts, None)
        if first is None:
            return self.quiescent_violation(node)
        if at == self.scenario.bounds.max_steps:
            self.truncated = True
        else:
            buckets.setdefault(at, []).append((node, audit, codes, link, chain((first,), starts)))
        return None

    # ── breadth-first pass over micro-depth buckets ──────────────────────

    def run(self):
        """Returns (violation or None, its schedule, whether live nodes
        remain at the step bound); `states` counts the distinct nodes
        reached."""
        audit = self.audit.fork()
        audit.step(self.root.state)
        bad = self.safety_violation(audit)
        if bad is not None:
            self.states = 1
            return (SPEC_INV, bad), [], False
        # bucket entries: (node, its audit, its codes, link, its starts); a link
        # is (parent's link, micro entries of the macro), None at the root
        buckets: dict[int, list] = {}
        spec = self.admit(self.root, audit, self.encoder.codes(self.root), 0, None, buckets)
        if spec is not None:
            return (spec, None), [], False
        bound, seen = self.scenario.bounds.max_steps, {}
        while buckets:
            self.depth = depth = min(buckets)
            seen.pop(depth, None)
            for node, audit, codes, link, starts in buckets.pop(depth):
                for start in starts:
                    macro = self.macro(node, audit, start, bound - depth)
                    steps, child, child_audit, bad, cut = macro
                    here = (link, steps)
                    if bad is not None:
                        return (SPEC_INV, bad), _schedule(here), False
                    if cut:
                        self.truncated = True
                        continue
                    at = depth + len(steps)
                    keys = seen.setdefault(at, set())
                    known = len(keys)
                    child_codes = self.encoder.extend(codes, node, child, start[1])
                    # hashed once: a tuple keeps no hash
                    keys.add(_node_key(child, self.groups, self.binds, child_codes))
                    if len(keys) == known:
                        continue
                    spec = self.admit(child, child_audit, child_codes, at, here, buckets)
                    if spec is not None:
                        return (spec, None), _schedule(here), False
        return None, [], self.truncated


def _runs_on(before: RoleMachine, after: RoleMachine) -> bool:
    """Whether a macro goes on after a machine's step from `before` to
    `after`: a set-partner or an invent runs on into the next statement, and
    a finish runs right after the step before it.  An abort or a finish ends
    the macro."""
    if after.status is not _RUNNING:
        return False
    return isinstance(before.current(), (SetPartner, InventStmt)) or isinstance(
        after.current(), FinishStmt
    )


def _schedule(link) -> list:
    """The micro entries from the root to a link, each macro expanded."""
    macros = []
    while link is not None:
        link, steps = link
        macros.append(steps)
    return [entry for steps in reversed(macros) for entry in steps]


def _counterexample_verdict(scenario: Scenario, violation, schedule, states: int) -> SpecVerdict:
    """Re-execute a violating schedule and report the violated spec with
    the verdict `evaluate_run_specs` gives on the recorded run, whose final
    state is the quiescent node's; a safety violation keeps the detail of
    the invariant that failed."""
    spec_name, safety_detail = violation
    run = execute_schedule(scenario, schedule)
    if spec_name == SPEC_INV:
        verdict = SpecVerdict(SPEC_INV, holds=False, detail=safety_detail)
    else:
        verdict = evaluate_run_specs(run, [spec_name])[0]
    return replace(verdict, counterexample=run, states=states)


def explore(scenario: Scenario, spec: str = "all") -> SpecVerdict:
    """Search the interleavings within the scenario's bounds breadth-first,
    by macro-steps, and return the first counterexample met or, with none,
    holds-within-bounds or inconclusive.  `states` counts the distinct
    macro-boundary nodes reached, the root included."""
    if scenario.intruder.kind == "lowe_script":
        raise ScenarioError("intruder: exploration drives a search intruder, not a scripted one")
    if scenario.level != "abstract":
        raise ScenarioError("level: exploration runs at the abstract level")
    if spec not in SPEC_CHOICES:
        raise ScenarioError(f"spec: unknown spec {spec!r}")
    searcher = _Searcher(scenario, spec)
    try:
        found = searcher.run()
    except MemoryError:
        found = None
    states = searcher.states
    if found is None:
        # past the handler the frontier and keys are gone; the encoder's go here
        detail, searcher = f"out of memory at depth {searcher.depth}: the search was dropped", None
    elif found[0] is not None:
        return _counterexample_verdict(scenario, found[0], found[1], states)
    elif found[2]:
        detail = "step bound cut branches that still had enabled moves"
    else:
        return SpecVerdict(spec=spec, holds=True, states=states)
    return SpecVerdict(spec=spec, holds=False, inconclusive=True, states=states, detail=detail)
