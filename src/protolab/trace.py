"""Trace files: byte-stable run records.

One record per line.  Ghost data (true originators, sealed payloads) is
serialized under "ghost:" markers so downstream tools can strip it; the
`--no-ghost` rendering produces exactly that observable projection, which
is for demonstration only and cannot be replayed.

    protolab-trace v1
    level abstract
    scn <embedded scenario record>...
    init digest=<12 hex>
    event i=<n> actor=<id> stmt=<name> [arg=<token>] act=<action|-> digest=<12 hex>
    verdict spec=<id> holds=<true|false> [detail="..."]
    end events=<n>

The `level`, `init` and `end` records appear once, and a verdict names one
spec.  Each `<n>` is a count, spelled as `str` writes one: `0`, or ASCII
digits with no leading zero (`model.count`).  A nonce in any event's action
is written as its name, `n` and a count of 1 or more (`Nonce.named`); an
item that is `n` followed by digits of any other spelling, such as `n01` or
`n0`, is malformed.

Digests cover the global state, all machine states and the inbox, so a
replay diverging anywhere is caught at the first differing event.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from operator import itemgetter

from .crypto import WireMsg, payload_for_trace
from .model import (
    GlobalState,
    Invent,
    Msg,
    Nonce,
    count,
    nonce_like,
    render_content,
    render_item,
    shown,
)
from .roles import Inbox, RoleMachine
from .specs import resolve_spec_names

HEADER = "protolab-trace v1"


class TraceError(Exception):
    """Malformed or unreplayable trace file."""


# ── canonical rendering ──────────────────────────────────────────────────────


def render_action(action) -> str:
    if isinstance(action, Invent):
        return f"invent({action.user},{action.what!r})"
    if isinstance(action, Msg):
        return f"msg(rec={action.rec},ghost:sender={action.sender},{render_content(action.content)})"
    assert isinstance(action, WireMsg)
    payload = render_content(payload_for_trace(action.body))
    return (
        f"wire(enc({action.body.pk!r}),ghost:sender={action.ghost_sender},"
        f"ghost:payload={payload})"
    )


def _render_user(user) -> str:
    """A user record, without the uid that precedes it in a rendering."""
    sessions = sorted(set(user.knows) | set(user.complete) | set(user.int_partner))
    parts = []
    for sid in sessions:
        knows = ",".join(repr(n) for n in sorted(user.knows.get(sid, frozenset())))
        parts.append(
            f"{sid}:partner={user.int_partner.get(sid, '-')}"
            f":knows={{{knows}}}:complete={str(user.complete.get(sid, False)).lower()}"
        )
    return f"(conforms={str(user.conforms).lower()};{';'.join(parts)})"


def _render_machine(machine: RoleMachine) -> str:
    # an enum member's `_value_` is a plain attribute; `value` runs Python code
    locals_ = ",".join([f"{k}={render_item(v)}" for k, v in machine.locals])
    return (
        f"{machine.actor_id}:variant={machine.variant._value_}:peer={machine.peer or '-'}"
        f":pc={machine.pc}:status={machine.status._value_}:locals={{{locals_}}}"
    )


def _render_consumed(taken) -> str:
    return "{" + ";".join(str(i) for i in sorted(taken)) + "}"


class Renderings:
    """The encoded rows of the values a run's last digest covered, kept per
    section while the next digest holds the same objects, and the encoded
    history.

    These values are immutable, and a step replaces only what it changes,
    so a user record, a machine, an inbox entry or an action that outlives
    a step is the same object, and its row is reused:
    - a section's join while its container is the same object (the users
      dict, the machines, the inbox and the public keys: a step that changes
      one makes a copy, and nothing mutates one in place);
    - a row while the object at its place is the same object and the
      section's keys are the last digest's: the uids of the users, sorted
      once, the machines' positions and the inbox's uids, to which a user's
      first receive inserts one;
    - the history bytes, extended in place by the new actions when the
      history extends the last one digested (a run only appends), and
      rebuilt from empty on any other history, with the text of its last
      action, which a run's trace event takes as its `act`.
    There is no cache per object: a section keeps only the rows of the last
    digest, so a run holds no text of a value its configuration dropped.
    Each kept row is the text that rendering the same values afresh gives,
    so a digest's bytes do not depend on what was digested before it."""

    def __init__(self) -> None:
        self._last: dict[str, tuple] = {}

    def joined(self, slot: str, container, section) -> bytes:
        """`section(self, container)`, kept while `container` is the object
        last joined in `slot`."""
        hit = self._last.get(slot)
        if hit is None or hit[0] is not container:
            hit = self._last[slot] = (container, section(self, container))
        return hit[1]

    def rows(self, slot: str, keys, objs: tuple, row) -> list[bytes]:
        """`row(key, obj)`, encoded, for `keys` and `objs` taken in step.  A
        row is rendered again only where its object is not the one the last
        call for `slot` had at its place, while the keys are the last call's
        or theirs with one key inserted; any other keys render every row."""
        last_keys, last_objs, rows = self._last.get(slot, ((), (), []))
        if len(keys) == len(last_keys) + 1:
            pos = next((at for at, key in enumerate(last_keys) if keys[at] != key), len(last_keys))
            if keys[pos + 1 :] == last_keys[pos:]:
                last_keys = keys
                last_objs = last_objs[:pos] + (None,) + last_objs[pos:]
                rows = rows[:pos] + [b""] + rows[pos:]
        if keys is last_keys or keys == last_keys:
            changed = [pos for pos in range(len(objs)) if objs[pos] is not last_objs[pos]]
        else:
            rows, changed = [b""] * len(keys), range(len(keys))
        for pos in changed:
            rows[pos] = row(keys[pos], objs[pos]).encode("utf-8")
        self._last[slot] = (keys, objs, rows)
        return rows

    def keys(self, slot: str):
        """The keys of the last call of `rows` for `slot`."""
        return self._last.get(slot, ((),))[0]

    def history(self, history: tuple) -> bytearray:
        """The joined renderings of `history`'s actions, encoded."""
        last, data, tail = self._last.get("history", ((), bytearray(), ""))
        if not _extends(history, last):
            last, data, tail = (), bytearray(), ""
        texts = list(map(render_action, history[len(last) :]))
        if texts:
            if data:
                data += b";"
            data += ";".join(texts).encode("utf-8")
            tail = texts[-1]
        self._last["history"] = (history, data, tail)
        return data

    def last_action(self) -> str:
        """The rendering of the last action of the history last joined."""
        return self._last["history"][2]


def _extends(history: tuple, last: tuple) -> bool:
    """Whether `history` begins with `last`, holding its last action as the
    same object, as a run's next history does.  Identity rejects a search's
    other branches without comparing actions field by field; an equal
    history it rejects costs a rebuild."""
    n = len(last)
    return n <= len(history) and (n == 0 or history[n - 1] is last[-1]) and history[:n] == last


_first, _second = itemgetter(0), itemgetter(1)


def _user_row(uid, user) -> str:
    return uid + _render_user(user)


def _machine_row(_, machine) -> str:
    return _render_machine(machine)


def _inbox_row(uid, taken) -> str:
    return f"{uid}={_render_consumed(taken)}"


def _users_section(rendered: Renderings, users: dict) -> bytes:
    # the uids in name order, sorted again only when the set of users changes
    uids = rendered.keys("user records")
    records = tuple(map(users.get, uids))
    if len(uids) != len(users) or not all(records):
        uids = tuple(sorted(users))
        records = tuple(map(users.get, uids))
    return b"|".join(rendered.rows("user records", uids, records, _user_row))


def _machines_section(rendered: Renderings, machines: tuple) -> bytes:
    return b"|".join(rendered.rows("machine rows", range(len(machines)), machines, _machine_row))


def _inbox_section(rendered: Renderings, inbox: Inbox) -> bytes:
    consumed = inbox.consumed
    uids, taken = tuple(map(_first, consumed)), tuple(map(_second, consumed))
    return b",".join(rendered.rows("inbox entries", uids, taken, _inbox_row))


def _pkeys_section(_, pkeys: dict) -> bytes:
    return ",".join(f"{uid}={pkeys[uid]!r}" for uid in sorted(pkeys)).encode("utf-8")


def node_digest(state: GlobalState, machines, inbox: Inbox, rendered: Renderings) -> str:
    """Digest of a run node: the global state, every machine and the inbox.

    `rendered` holds the rows of the run's last digest, so a digest renders
    only what its step replaced: the new actions and a replaced user record,
    machine or inbox entry; each section of a replaced container is joined
    again from its encoded rows.  What it reuses is the text the same
    objects rendered to, so the digest is the one a fresh `Renderings`
    gives.  The hashed body is five lines, `users:`, `history:`, `pkeys:`,
    `machines:` and `inbox:`, each followed by its section's text; it is
    hashed part by part from the kept bytes, so no event copies the whole
    body."""
    digest = hashlib.sha256(b"users:")
    digest.update(rendered.joined("users", state.users, _users_section))
    digest.update(b"\nhistory:")
    digest.update(rendered.history(state.history))
    digest.update(b"\npkeys:")
    digest.update(rendered.joined("pkeys", state.pkeys, _pkeys_section))
    digest.update(b"\nmachines:")
    digest.update(rendered.joined("machines", machines, _machines_section))
    digest.update(b"\ninbox:")
    digest.update(rendered.joined("inbox", inbox, _inbox_section))
    return digest.hexdigest()[:12]


# ── documents ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TraceEvent:
    index: int
    actor: str
    stmt: str
    arg: str | None
    action_text: str  # ghost-full rendering, "-" when nothing was appended
    digest: str


@dataclass
class TraceDoc:
    level: str
    scenario_text: str
    init_digest: str
    events: list[TraceEvent] = field(default_factory=list)
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)


_GHOST_FIELD_RE = re.compile(r",ghost:[a-z]+=(\[[^\]]*\]|[^,)]+)")


def strip_ghost(action_text: str) -> str:
    return _GHOST_FIELD_RE.sub("", action_text)


def verdict_line(spec: str, holds: bool, detail: str) -> str:
    """A verdict record, as a trace and the command line write it."""
    suffix = f' detail="{detail}"' if detail else ""
    return f"verdict spec={spec} holds={str(holds).lower()}{suffix}"


def render_trace(doc: TraceDoc, no_ghost: bool = False) -> str:
    lines = [HEADER, f"level {doc.level}"]
    for line in doc.scenario_text.strip().splitlines():
        lines.append(f"scn {line}")
    lines.append(f"init digest={doc.init_digest}")
    for ev in doc.events:
        act = strip_ghost(ev.action_text) if no_ghost else ev.action_text
        arg = f" arg={ev.arg}" if ev.arg is not None else ""
        lines.append(
            f"event i={ev.index} actor={ev.actor} stmt={ev.stmt}{arg} act={act} digest={ev.digest}"
        )
    lines.extend(verdict_line(*verdict) for verdict in doc.verdicts)
    lines.append(f"end events={len(doc.events)}")
    return "\n".join(lines) + "\n"


_EVENT_RE = re.compile(
    r"^event i=(\S+) actor=(\S+) stmt=(\S+?)(?: arg=(\S+))? act=(\S+) digest=([0-9a-f]{12})$"
)
_VERDICT_RE = re.compile(r'^verdict spec=(\S+) holds=(true|false)(?: detail="(.*)")?$')
_VERDICT_SPECS = resolve_spec_names("all")
_SPEC_NAMES = ", ".join(_VERDICT_SPECS[:-1]) + " or " + _VERDICT_SPECS[-1]


def _count(value: str, record: str, field: str) -> int:
    try:
        return count(value)
    except ValueError:
        raise TraceError(f"{record}: field {field!r} must be a count, got {shown(value)}")


def parse_trace(text: str) -> TraceDoc:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise TraceError(f"header: first record must be {HEADER!r}")
    level: str | None = None
    scn_lines: list[str] = []
    init_digest: str | None = None
    events: list[TraceEvent] = []
    verdicts: list[tuple[str, bool, str]] = []
    declared_events: int | None = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("level "):
            if level is not None:
                raise TraceError("level: duplicate record")
            level = line.split(" ", 1)[1]
        elif line.startswith("scn "):
            scn_lines.append(line[4:])
        elif line.startswith("init "):
            if init_digest is not None:
                raise TraceError("init: duplicate record")
            m = re.match(r"^init digest=([0-9a-f]{12})$", line)
            if not m:
                raise TraceError(f"init: malformed record {line!r}")
            init_digest = m.group(1)
        elif line.startswith("event "):
            m = _EVENT_RE.match(line)
            if not m:
                raise TraceError(f"event: malformed record {line!r}")
            index, actor, stmt, arg, act, digest = m.groups()
            if act.startswith(("msg(", "wire(")) and "ghost:" not in act:
                # observable-only projections drop information replay needs
                raise TraceError("event: trace was rendered without ghost data; not replayable")
            events.append(TraceEvent(_count(index, "event", "i"), actor, stmt, arg, act, digest))
        elif line.startswith("verdict "):
            m = _VERDICT_RE.match(line)
            if not m:
                raise TraceError(f"verdict: malformed record {line!r}")
            spec, holds, detail = m.groups()
            if spec not in _VERDICT_SPECS:
                raise TraceError(f"verdict: field 'spec' must be {_SPEC_NAMES}, got {shown(spec)}")
            verdicts.append((spec, holds == "true", detail or ""))
        elif line.startswith("end "):
            if declared_events is not None:
                raise TraceError("end: duplicate record")
            m = re.match(r"^end events=(\S+)$", line)
            if not m:
                raise TraceError(f"end: malformed record {line!r}")
            declared_events = _count(m.group(1), "end", "events")
        else:
            raise TraceError(f"unknown record {line.split(' ', 1)[0]!r}")
    if level not in ("abstract", "concrete"):
        raise TraceError("level: missing or invalid")
    if init_digest is None:
        raise TraceError("init: record missing")
    if not scn_lines:
        raise TraceError("scn: embedded scenario missing")
    if declared_events is None or declared_events != len(events):
        raise TraceError("end: event count missing or inconsistent")
    for pos, ev in enumerate(events, start=1):
        if ev.index != pos:
            raise TraceError(f"event: index {ev.index} out of order (expected {pos})")
        if ev.action_text != "-":
            try:
                action_items(ev.action_text)
            except TraceError as exc:
                raise TraceError(f"event {pos}: field 'act': {exc}")
    return TraceDoc(
        level=level,
        scenario_text="\n".join(scn_lines) + "\n",
        init_digest=init_digest,
        events=events,
        verdicts=verdicts,
    )


# ── parsing rendered actions back into structured form (for replay) ─────────

_MSG_RE = re.compile(r"^msg\(rec=([^,]+),ghost:sender=([^,]+),\[([^\]]*)\]\)$")
_WIRE_RE = re.compile(
    r"^wire\(enc\(([^)]+)\),ghost:sender=([^,]+),ghost:payload=\[([^\]]*)\]\)$"
)
_INVENT_RE = re.compile(r"^invent\(([^)]*)\)$")


def parse_items(text: str) -> tuple:
    """The items of a rendered content: a nonce for each nonce name, a
    principal id for any other token.  A token that looks like a nonce name
    but is not one is malformed."""
    if not text:
        return ()
    items = []
    for token in text.split(","):
        try:
            items.append(Nonce.named(token) if nonce_like(token) else token)
        except ValueError:
            raise TraceError(f"malformed nonce item {token!r}")
    return tuple(items)


def action_items(act: str) -> tuple:
    """The items of a rendered action: an invention's user and nonce, or a
    message's content."""
    m = _INVENT_RE.match(act)
    if m:
        return parse_items(m.group(1))
    return parse_message_text(act)["content"]


def parse_message_text(act: str) -> dict:
    """Structured fields of a rendered message: recipient or key atom,
    ghost sender, content items."""
    m = _MSG_RE.match(act)
    if m:
        return {
            "kind": "msg",
            "rec": m.group(1),
            "sender": m.group(2),
            "content": parse_items(m.group(3)),
        }
    m = _WIRE_RE.match(act)
    if m:
        return {
            "kind": "wire",
            "pk_atom": m.group(1),
            "sender": m.group(2),
            "content": parse_items(m.group(3)),
        }
    raise TraceError(f"cannot parse message text {act!r}")
