"""Scenario files: declarative run configurations.

Line-oriented format, one record per line, `#` comments and blank lines
allowed.  Grammar:

    protolab-scenario v1
    user <id> conforms=<true|false>
    role <sender|receiver> user=<id> [peer=<id>] variant=<ns|nsl>
    intruder <none | lowe_script user=<id> a=<id> b=<id> | search user=<id>>
    bounds max_steps=<n> max_content_len=<n> max_intruder_invents=<n> max_sessions_per_user=<n>
    level <abstract|concrete>

Each bound `<n>` is a count, spelled as `str` writes one: `0`, or ASCII
digits with no leading zero (`model.count`); a sign, an underscore, a
leading zero or a non-ASCII digit is malformed.  Exactly one `intruder`
record is required.  A sender may omit `peer=` only in search scenarios,
where the explorer enumerates the choice.  Principal ids must not look like
nonce names (`n` followed by digits).  Runs are seed-free: everything
downstream is deterministic in this file plus the flags.

`max_content_len` is an assumption, not a message size: the search
intruder never forges a message kind whose receive pattern is longer than
the bound, and any bound from the longest pattern up searches alike.
NSL's message 2, `[n,n,u]`, has length 3, so NSL certified at 2 assumes
that the intruder cannot forge message 2 (at 3, nsl-ft fails, 94 states).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .model import Sid, Uid, count, nonce_like, shown
from .roles import RoleKind, Variant

HEADER = "protolab-scenario v1"

_UID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


class ScenarioError(Exception):
    """Malformed scenario; the message names the offending record or field."""


# The fields of the `bounds` record, in the order it is written.
_BOUND_FIELDS = ("max_steps", "max_content_len", "max_intruder_invents", "max_sessions_per_user")


@dataclass(frozen=True)
class SearchBounds:
    max_steps: int
    max_intruder_invents: int
    max_content_len: int
    max_sessions_per_user: int

    def __post_init__(self) -> None:
        for name in _BOUND_FIELDS:
            if getattr(self, name) < 0:
                raise ScenarioError(f"bounds: {name} must be >= 0")


def default_bounds() -> SearchBounds:
    return SearchBounds(
        max_steps=1000, max_intruder_invents=0, max_content_len=2, max_sessions_per_user=4
    )


@dataclass(frozen=True)
class RoleDecl:
    user: Uid
    kind: RoleKind
    peer: Uid | None
    variant: Variant


@dataclass(frozen=True)
class IntruderDecl:
    kind: str  # "none" | "lowe_script" | "search"
    user: Uid | None = None
    a: Uid | None = None
    b: Uid | None = None


@dataclass(frozen=True)
class Scenario:
    users: tuple[tuple[Uid, bool], ...]
    roles: tuple[RoleDecl, ...]
    intruder: IntruderDecl
    bounds: SearchBounds
    level: str

    def conforms_map(self) -> dict[Uid, bool]:
        return dict(self.users)

    def universe(self) -> list[Uid]:
        return sorted(uid for uid, _ in self.users)

    def sessions(self) -> list[Sid]:
        """Session ids in role declaration order: per-user counters."""
        counters: dict[Uid, int] = {}
        out = []
        for role in self.roles:
            counters[role.user] = counters.get(role.user, 0) + 1
            out.append(f"{role.user}#{counters[role.user]}")
        return out

    def intruder_session(self) -> Sid | None:
        if self.intruder.user is None:
            return None
        return f"{self.intruder.user}#1"

    def with_level(self, level: str) -> Scenario:
        return replace(self, level=level)

    def with_max_steps(self, max_steps: int) -> Scenario:
        return replace(self, bounds=replace(self.bounds, max_steps=max_steps))


def _parse_kv(parts: list[str], record: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ScenarioError(f"{record}: expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key in out:
            raise ScenarioError(f"{record}: duplicate field {key!r}")
        out[key] = value
    return out


def _parse_bool(value: str, record: str, field: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ScenarioError(f"{record}: field {field!r} must be true or false, got {value!r}")


def _parse_count(value: str, record: str, field: str) -> int:
    try:
        return count(value)
    except ValueError:
        raise ScenarioError(f"{record}: field {field!r} must be a count, got {shown(value)}")


def _check_uid(value: str, record: str, field: str) -> Uid:
    if not _UID_RE.match(value) or nonce_like(value):
        raise ScenarioError(f"{record}: field {field!r} is not a valid principal id: {value!r}")
    return value


def parse_scenario(text: str) -> Scenario:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or lines[0] != HEADER:
        raise ScenarioError(f"header: first record must be {HEADER!r}")

    users: list[tuple[Uid, bool]] = []
    roles: list[RoleDecl] = []
    intruders: list[IntruderDecl] = []
    bounds: SearchBounds | None = None
    level: str | None = None

    for line in lines[1:]:
        parts = line.split()
        record = parts[0]
        if record == "user":
            if len(parts) < 3:
                raise ScenarioError("user: expected 'user <id> conforms=<bool>'")
            uid = _check_uid(parts[1], "user", "id")
            if any(u == uid for u, _ in users):
                raise ScenarioError(f"user: duplicate principal {uid!r}")
            kv = _parse_kv(parts[2:], "user")
            if set(kv) != {"conforms"}:
                raise ScenarioError(f"user: unexpected fields {sorted(set(kv) - {'conforms'})}")
            users.append((uid, _parse_bool(kv["conforms"], "user", "conforms")))
        elif record == "role":
            if len(parts) < 2 or parts[1] not in ("sender", "receiver"):
                raise ScenarioError("role: expected 'role sender|receiver ...'")
            kv = _parse_kv(parts[2:], "role")
            allowed = {"user", "peer", "variant"}
            if not set(kv) <= allowed or not {"user", "variant"} <= set(kv):
                raise ScenarioError(f"role: fields must be user=, variant= and optional peer=")
            kind = RoleKind(parts[1])
            if kind is RoleKind.RECEIVER and "peer" in kv:
                raise ScenarioError("role: peer= is only meaningful on a sender")
            try:
                variant = Variant(kv["variant"])
            except ValueError:
                raise ScenarioError(f"role: field 'variant' must be ns or nsl, got {kv['variant']!r}")
            roles.append(
                RoleDecl(
                    user=_check_uid(kv["user"], "role", "user"),
                    kind=kind,
                    peer=_check_uid(kv["peer"], "role", "peer") if "peer" in kv else None,
                    variant=variant,
                )
            )
        elif record == "intruder":
            if len(parts) < 2 or parts[1] not in ("none", "lowe_script", "search"):
                raise ScenarioError("intruder: expected none, lowe_script or search")
            kv = _parse_kv(parts[2:], "intruder")
            if parts[1] == "none":
                if kv:
                    raise ScenarioError("intruder: 'none' takes no fields")
                intruders.append(IntruderDecl(kind="none"))
            elif parts[1] == "lowe_script":
                if set(kv) != {"user", "a", "b"}:
                    raise ScenarioError("intruder: lowe_script needs user=, a= and b=")
                intruders.append(
                    IntruderDecl(
                        kind="lowe_script",
                        user=_check_uid(kv["user"], "intruder", "user"),
                        a=_check_uid(kv["a"], "intruder", "a"),
                        b=_check_uid(kv["b"], "intruder", "b"),
                    )
                )
            else:
                if set(kv) != {"user"}:
                    raise ScenarioError("intruder: search needs exactly user=")
                intruders.append(
                    IntruderDecl(kind="search", user=_check_uid(kv["user"], "intruder", "user"))
                )
        elif record == "bounds":
            if bounds is not None:
                raise ScenarioError("bounds: duplicate record")
            kv = _parse_kv(parts[1:], "bounds")
            if set(kv) != set(_BOUND_FIELDS):
                raise ScenarioError(f"bounds: expected fields {sorted(_BOUND_FIELDS)}")
            bounds = SearchBounds(
                **{name: _parse_count(kv[name], "bounds", name) for name in _BOUND_FIELDS}
            )
        elif record == "level":
            if level is not None:
                raise ScenarioError("level: duplicate record")
            if len(parts) != 2 or parts[1] not in ("abstract", "concrete"):
                raise ScenarioError("level: expected abstract or concrete")
            level = parts[1]
        else:
            raise ScenarioError(f"unknown record kind {record!r}")

    if len(intruders) != 1:
        raise ScenarioError("intruder: exactly one intruder record is required")
    scenario = Scenario(
        users=tuple(users),
        roles=tuple(roles),
        intruder=intruders[0],
        bounds=bounds if bounds is not None else default_bounds(),
        level=level if level is not None else "abstract",
    )
    _validate(scenario)
    return scenario


def _validate(scenario: Scenario) -> None:
    declared = {uid for uid, _ in scenario.users}
    conforms = scenario.conforms_map()
    if not declared:
        raise ScenarioError("user: at least one principal is required")
    for role in scenario.roles:
        if role.user not in declared:
            raise ScenarioError(f"role: user {role.user!r} is not declared")
        if role.peer is not None and role.peer not in declared:
            raise ScenarioError(f"role: peer {role.peer!r} is not declared")
        if role.kind is RoleKind.SENDER and role.peer is None and scenario.intruder.kind != "search":
            raise ScenarioError("role: a sender may omit peer= only in search scenarios")
    intr = scenario.intruder
    if intr.kind != "none":
        for field in ("user", "a", "b"):
            value = getattr(intr, field)
            if value is not None and value not in declared:
                raise ScenarioError(f"intruder: field {field!r} references undeclared {value!r}")
        for first, second in (("user", "a"), ("user", "b"), ("a", "b")):
            value = getattr(intr, second)
            if value is not None and value == getattr(intr, first):
                raise ScenarioError(
                    f"intruder: field {second!r} must differ from {first!r}, both are {value!r}"
                )
        assert intr.user is not None
        if conforms[intr.user]:
            raise ScenarioError(f"intruder: user {intr.user!r} must be declared conforms=false")
        if any(role.user == intr.user for role in scenario.roles):
            raise ScenarioError(f"intruder: user {intr.user!r} cannot also hold a role")
    per_user: dict[Uid, int] = {}
    for role in scenario.roles:
        per_user[role.user] = per_user.get(role.user, 0) + 1
    for uid, held in per_user.items():
        if held > scenario.bounds.max_sessions_per_user:
            raise ScenarioError(
                f"role: user {uid!r} has {held} sessions, above max_sessions_per_user"
            )


def render_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario (used when embedding into traces)."""
    lines = [HEADER]
    for uid, flag in scenario.users:
        lines.append(f"user {uid} conforms={'true' if flag else 'false'}")
    for role in scenario.roles:
        peer = f" peer={role.peer}" if role.peer is not None else ""
        lines.append(
            f"role {role.kind.value} user={role.user}{peer} variant={role.variant.value}"
        )
    intr = scenario.intruder
    if intr.kind == "none":
        lines.append("intruder none")
    elif intr.kind == "lowe_script":
        lines.append(f"intruder lowe_script user={intr.user} a={intr.a} b={intr.b}")
    else:
        lines.append(f"intruder search user={intr.user}")
    bounds = scenario.bounds
    lines.append("bounds" + "".join(f" {name}={getattr(bounds, name)}" for name in _BOUND_FIELDS))
    lines.append(f"level {scenario.level}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
