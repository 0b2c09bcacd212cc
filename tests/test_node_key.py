"""The node key against an oracle: the image-based key that `explore` used
before it encoded nodes as interned int tuples.  Two nodes must get equal
keys exactly when they get equal oracle keys, on every node of full
explorations and on permuted and renamed copies of them.

The oracle below is a copy of that key: it builds each canonical image as a
`Config`, and for tied sessions it renders every order and keeps the least
rendering."""

from collections import Counter
from functools import cache
from itertools import permutations, product
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protolab.search as search
from protolab.model import GlobalState, Invent, Msg, Nonce, UserState
from protolab.roles import RoleMachine
from protolab.runner import Config
from protolab.scenario import parse_scenario
from protolab.search import _node_key, _Searcher, explore
from protolab.specs import SPEC_INV

from test_search import CROSS_TALK, TWO_SENDERS


# ── the oracle: the image-based key ─────────────────────────────────────────

_recipient = attrgetter("rec")


def oracle_key(node: Config, groups, binds) -> tuple:
    """The key of the node's canonical image: the members of each group of
    interchangeable machines in signature order, and each nonce renamed by
    the position of the machine that invented it, the intruder's after them
    in index order; see `protolab.search`.  `groups` holds the positions
    of each group of two or more identical role declarations, and `binds`
    the local each machine's invent binds.  A node whose image is itself is
    keyed without building it."""
    machines, order = node.machines, None
    if groups:
        order, tied = _canonical_order(machines, node.state.users, groups)
        if tied:
            return _tied_key(node, order, tied, binds)
    table = _renaming(machines, order, binds, node.state.history)
    if order is None and table is None:
        return _plain_key(node)
    return _plain_key(_image(node, order, table))


def _pending(node: Config) -> list:
    """The messages no receive has taken yet to each user that owns a
    machine, in history order per recipient."""
    taken = set()
    for _, indices in node.inbox.consumed:
        taken |= indices
    owners = {machine.owner for machine in node.machines}
    pending = [
        act
        for index, act in enumerate(node.state.history)
        if act.__class__ is Msg and act.rec in owners and index not in taken
    ]
    pending.sort(key=_recipient)
    return pending


def _plain_key(node: Config) -> tuple:
    """The node's machines, each user's records, the history as a multiset,
    and its pending messages.  The users come in the order of the users
    dict, which every state of one search shares."""
    history = node.state.history
    actions = frozenset(history)
    if len(actions) < len(history):
        actions = frozenset(Counter(history).items())
    users = tuple([
        (
            frozenset(u.int_partner.items()),
            frozenset(u.knows.items()),
            frozenset(u.complete.items()),
        )
        for u in node.state.users.values()
    ])
    return (node.machines, users, actions, tuple(_pending(node)))


def _signature(machine: RoleMachine, user) -> tuple:
    """What a renaming of nonces leaves of a machine and its session's
    records: pc (highest first), status, chosen peer, recorded partner and
    completion."""
    session = machine.session
    return (
        -machine.pc,
        machine.status.value,
        machine.peer or "",
        user.int_partner.get(session) or "",
        user.complete.get(session, False),
    )


def _canonical_order(machines, users, groups):
    """The machine each position of the image takes, or None when every
    group is in signature order already, and the runs of positions whose
    members' signatures tie but whose locals or knows differ.  The members
    of any other tie are interchangeable: they have invented nothing, and
    swapping them changes nothing but their session ids."""
    order, tied = None, []
    for group in groups:
        user = users[machines[group[0]].owner]
        signed = sorted((_signature(machines[i], user), i) for i in group)
        if [i for _, i in signed] != list(group):
            order = order or list(range(len(machines)))
            for position, (_, i) in zip(group, signed):
                order[position] = i
        start = 0
        for end in range(1, len(signed) + 1):
            if end < len(signed) and signed[end][0] == signed[start][0]:
                continue
            run = [i for _, i in signed[start:end]]
            first = machines[run[0]]
            if any(
                machines[i].locals != first.locals
                or user.knows.get(machines[i].session) != user.knows.get(first.session)
                for i in run[1:]
            ):
                tied.append(group[start:end])
            start = end
    return order, tied


def _renaming(machines, order, binds, history) -> list | None:
    """Each nonce's canonical name, indexed by its own index, or None when
    every nonce has it already: the honest machines' inventions are named
    1, 2, ... in the order of the image's positions, and the intruder's
    follow in index order."""
    honest = []
    for index in order or range(len(machines)):
        bind = binds[index]
        for name, value in machines[index].locals:
            if name == bind:
                honest.append(value.ix)
                break
    if honest == list(range(1, len(honest) + 1)):
        return None
    highest = max(act.what.ix for act in history if act.__class__ is Invent)
    names = dict(zip(honest, range(1, len(honest) + 1)))
    others = [old for old in range(1, highest + 1) if old not in names]
    names.update(zip(others, range(len(honest) + 1, highest + 1)))
    table = [None] * (highest + 1)
    for old, ix in names.items():
        table[old] = Nonce(ix)
    return table


def _image(node: Config, order, table) -> Config:
    """The node with position p running machine `order[p]` under p's session
    id, and every nonce renamed by `table` (either may be None, for none)."""
    machines, state = node.machines, node.state
    sids, image = {}, []
    for position, index in enumerate(order or range(len(machines))):
        machine, session = machines[index], machines[position].session
        if index == position and table is None:
            image.append(machine)
            continue
        sids[machine.session] = session
        locals = machine.locals
        if table is not None:
            locals = tuple([
                (name, table[value.ix] if value.__class__ is Nonce else value)
                for name, value in locals
            ])
        image.append(
            RoleMachine(
                machine.owner, machine.variant, machine.kind, session,
                machine.peer, machine.pc, locals, machine.status,
            )
        )
    users = {uid: _renamed_user(user, sids, table) for uid, user in state.users.items()}
    history = state.history
    if table is not None:
        history = tuple([
            Invent(act.user, table[act.what.ix]) if act.__class__ is Invent
            else Msg(act.rec, act.sender, tuple([
                table[i.ix] if i.__class__ is Nonce else i for i in act.content
            ]))
            for act in history
        ])
    # a renaming is a bijection of the nonces 1..top, which keeps the top
    return Config(tuple(image), GlobalState(users, history, state.pkeys, state.top), node.inbox)


def _renamed_user(user: UserState, sids: dict, table) -> UserState:
    """`user` with its sessions renamed by `sids` and its nonces by `table`."""
    if table is None and sids.keys().isdisjoint(user.complete):
        return user
    return UserState(
        {sids.get(sid, sid): partner for sid, partner in user.int_partner.items()},
        {
            sids.get(sid, sid): nonces if table is None else frozenset([table[n.ix] for n in nonces])
            for sid, nonces in user.knows.items()
        },
        user.skey,
        user.conforms,
        {sids.get(sid, sid): done for sid, done in user.complete.items()},
    )


def _tied_key(node: Config, order, tied, binds) -> tuple:
    """The least orderable rendering of the node's images under every order
    of the tied runs' members; only the orders whose machines render least
    are rendered in full."""
    machines, history = node.machines, node.state.history
    base = list(order or range(len(machines)))
    candidates = []
    for choice in product(*(permutations([base[p] for p in run]) for run in tied)):
        for run, members in zip(tied, choice):
            for position, index in zip(run, members):
                base[position] = index
        table = _renaming(machines, base, binds, history)
        candidates.append((_machine_rendering(machines, base, table), list(base), table))
    least = min(rendered for rendered, _, _ in candidates)
    return min(
        _rendering(node, positions, table, rendered)
        for rendered, positions, table in candidates
        if rendered == least
    )


def _rank(item, table) -> tuple:
    """An item as an orderable tuple, a nonce renamed by `table`."""
    if item.__class__ is Nonce:
        return (1, item.ix if table is None else table[item.ix].ix)
    return (0, item)


def _action_rank(act, table) -> tuple:
    if act.__class__ is Invent:
        return (1, act.user, _rank(act.what, table))
    return (0, act.rec, act.sender, tuple([_rank(i, table) for i in act.content]))


def _machine_rendering(machines, order: list, table) -> tuple:
    """The machines of `_image(node, order, table)` as orderable tuples,
    less their session ids, which are their positions'."""
    return tuple([
        (m.pc, m.status.value, m.peer or "", tuple([(k, _rank(v, table)) for k, v in m.locals]))
        for m in (machines[index] for index in order)
    ])


def _rendering(node: Config, order: list, table, machines: tuple) -> tuple:
    """The plain key of `_image(node, order, table)` with every part
    orderable, given its machines' rendering: dicts and sets sorted, the
    history as a sorted tuple."""
    sids = {node.machines[i].session: node.machines[p].session for p, i in enumerate(order)}
    users = tuple([
        (
            tuple(sorted([(sids.get(sid, sid), p) for sid, p in u.int_partner.items()])),
            tuple(sorted([
                (sids.get(sid, sid), tuple(sorted([_rank(n, table) for n in ns])))
                for sid, ns in u.knows.items()
            ])),
            tuple(sorted([(sids.get(sid, sid), done) for sid, done in u.complete.items()])),
        )
        for u in node.state.users.values()
    ])
    actions = tuple(sorted([_action_rank(act, table) for act in node.state.history]))
    return (machines, users, actions, tuple([_action_rank(act, table) for act in _pending(node)]))


# ── the differential ─────────────────────────────────────────────────────────


def pairs(n: int) -> str:
    """n NSL senders at A and n receivers at B, none with a declared peer,
    against a search intruder."""
    sender, receiver = "role sender user=A variant=nsl\n", "role receiver user=B variant=nsl\n"
    return TWO_SENDERS.replace(2 * sender + receiver, n * sender + n * receiver)


# full explorations: (scenario text, step bound); the last lets the
# intruder invent two nonces of its own
EXPLORATIONS = {
    "two-senders": (TWO_SENDERS, 16),
    "cross-talk": (CROSS_TALK, 16),
    "two-pair": (pairs(2), 14),
    "three-pair": (pairs(3), 11),
    "two-senders-invents2": (TWO_SENDERS.replace("invents=0", "invents=2"), 10),
}


@cache
def exploration(name):
    """The searcher of a full exploration, and each node it keyed with the
    key it got from the codes carried along its links."""
    text, max_steps = EXPLORATIONS[name]
    sc = parse_scenario(text).with_max_steps(max_steps)
    keyed, real = [], search._node_key

    def keying(node, groups, binds, codes):
        key = real(node, groups, binds, codes)
        keyed.append((node, key))
        return key

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_node_key", keying)
        explore(sc, spec=SPEC_INV)
    return _Searcher(sc, SPEC_INV), keyed


def plain_data(value) -> bool:
    """Whether a value is built of tuples, ints, strs and bools only."""
    if value.__class__ is tuple:
        return all(plain_data(item) for item in value)
    return value.__class__ in (int, str, bool)


@pytest.mark.parametrize("name", EXPLORATIONS)
def test_keys_partition_the_explored_nodes_as_the_oracle_does(name):
    # every key a full exploration made: the carried key is the key encoded
    # afresh, it is plain data, and keys and oracle keys are in bijection
    searcher, keyed = exploration(name)
    groups, binds = searcher.groups, searcher.binds
    both = set()
    for node, key in keyed:
        assert _node_key(node, groups, binds) == key
        assert plain_data(key)
        both.add((key, oracle_key(node, groups, binds)))
    assert len(both) == len({key for key, _ in both}) == len({old for _, old in both})
    assert len(both) < len(keyed)  # some nodes were reached twice


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(EXPLORATIONS)), data=st.data())
def test_permuted_and_renamed_nodes_key_as_the_oracle_says(name, data):
    # a reached node and a copy of it with its interchangeable sessions
    # permuted and its nonces renamed (the intruder's too, which the keys
    # do not merge): their keys are equal exactly when their oracle keys
    # are, and so are those of the copy and another reached node
    searcher, keyed = exploration(name)
    groups, binds = searcher.groups, searcher.binds
    node = data.draw(st.sampled_from(keyed))[0]
    other = data.draw(st.sampled_from(keyed))[0]
    order = list(range(len(node.machines)))
    for group in groups:
        for position, index in zip(group, data.draw(st.permutations(group))):
            order[position] = index
    count = sum(1 for act in node.state.history if isinstance(act, Invent))
    table = [None] + [Nonce(ix) for ix in data.draw(st.permutations(range(1, count + 1)))]
    copy = _image(node, order, table if count else None)
    for one, two in ((node, copy), (copy, other)):
        same = _node_key(one, groups, binds) == _node_key(two, groups, binds)
        assert same == (oracle_key(one, groups, binds) == oracle_key(two, groups, binds))


@pytest.mark.parametrize("name", EXPLORATIONS)
def test_every_order_of_tied_sessions_keys_alike(name):
    # every sixth explored node with interchangeable sessions whose
    # signatures tie while what they hold differs (the oracle's ties):
    # permuting the sessions of each group, every way, maps it to a node its
    # key merges
    searcher, keyed = exploration(name)
    groups, binds = searcher.groups, searcher.binds
    tied = [
        (node, key) for node, key in keyed
        if _canonical_order(node.machines, node.state.users, groups)[1]
    ]
    checked = 0
    for node, key in tied[::6]:
        for choice in product(*(permutations(group) for group in groups)):
            order = list(range(len(node.machines)))
            for group, members in zip(groups, choice):
                for position, index in zip(group, members):
                    order[position] = index
            assert _node_key(_image(node, order, None), groups, binds) == key
        checked += 1
    assert checked
