"""Symbolic public-key encryption and the wire-level message medium.

Recipient-only readability is realised here by sealed terms: an `EncMsg`
exposes nothing but the public key it was built under, and only `dec` with
the matching secret key reveals the payload.  Wire messages carry no
recipient field at all; the recipient is implicit in the key.  The ghost
originator is retained for checking only.

Equality of sealed terms is structural, so an observer can recognise a
replayed ciphertext without being able to open it.

`abstract_of` projects a wire history to the recipient-field model;
`runner.check_refinement` compares a projected run with its twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .model import GlobalState, Invent, Item, Msg, PKey, SKey, Uid


class EmptyContent(Exception):
    """Encryption of an empty item sequence."""


class UnknownKey(Exception):
    """A wire message was built under a key no registry entry owns."""


@dataclass(frozen=True)
class DecryptFailure:
    """Returned (not raised) when a secret key does not match; roles treat
    the carrying message as unreadable."""


DECRYPT_FAILED = DecryptFailure()


@dataclass(frozen=True, slots=True)
class EncMsg:
    """Sealed term.  The payload has no public accessor; use `dec`."""

    _payload: tuple[Item, ...]
    pk: PKey

    def __post_init__(self) -> None:
        if not self._payload:
            raise EmptyContent("cannot encrypt an empty content sequence")
        object.__setattr__(self, "_payload", tuple(self._payload))

    def __repr__(self) -> str:
        return f"enc(<sealed>,{self.pk})"


@dataclass(frozen=True)
class WireMsg:
    body: EncMsg
    ghost_sender: Uid  # checking only, never readable by roles


@dataclass(frozen=True)
class KeyRegistry:
    pkeys: dict[Uid, PKey]
    skeys: dict[Uid, SKey]
    _owners: dict[PKey, Uid] = field(init=False, repr=False, compare=False)
    _secrets: dict[PKey, frozenset[SKey]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owners: dict[PKey, Uid] = {}
        secrets: dict[PKey, frozenset[SKey]] = {}
        for uid in sorted(self.pkeys, reverse=True):
            pk = self.pkeys[uid]
            owners[pk] = uid  # the lowest-named owner is written last
            secrets[pk] = secrets.get(pk, frozenset()) | {self.skeys[uid]}
        object.__setattr__(self, "_owners", owners)
        object.__setattr__(self, "_secrets", secrets)

    def owner_of_pkey(self, pk: PKey) -> Uid | None:
        """The lowest-named owner of a public key, or None."""
        return self._owners.get(pk)


def registry_from_state(state: GlobalState) -> KeyRegistry:
    return KeyRegistry(
        pkeys=dict(state.pkeys),
        skeys={uid: user.skey for uid, user in state.users.items()},
    )


def match(pk: PKey, sk: SKey, registry: KeyRegistry) -> bool:
    """Keys match exactly when one principal owns both."""
    return sk in registry._secrets.get(pk, ())


def enc(content: Sequence[Item], pk: PKey) -> EncMsg:
    return EncMsg(tuple(content), pk)


def dec(m: EncMsg, sk: SKey, registry: KeyRegistry):
    """Payload iff the keys match, otherwise the DecryptFailure value."""
    if match(m.pk, sk, registry):
        return m._payload
    return DECRYPT_FAILED


def payload_for_trace(m: EncMsg) -> tuple[Item, ...]:
    """Omniscient access for trace records and projection; the returned
    items are tagged as ghost data wherever they are rendered."""
    return m._payload


def abstract_of(wire_history: Sequence, registry: KeyRegistry) -> tuple:
    """Project a wire-level history to the recipient-field model: the
    recipient is the owner of the encryption key (lowest-named owner if the
    registry is degenerate and several share one), the sender is the ghost
    originator, the content is the sealed payload.  Inventions map to
    themselves."""
    out = []
    for act in wire_history:
        if isinstance(act, Invent):
            out.append(act)
            continue
        assert isinstance(act, WireMsg)
        owner = registry.owner_of_pkey(act.body.pk)
        if owner is None:
            raise UnknownKey(f"no registry owner for {act.body.pk!r}")
        out.append(Msg(rec=owner, sender=act.ghost_sender, content=payload_for_trace(act.body)))
    return tuple(out)


class ConcreteMedium:
    """Wire-level medium: sends encrypt for the target's public key, receives
    succeed only where decryption does."""

    level = "concrete"

    def __init__(self, registry: KeyRegistry) -> None:
        self.registry = registry
        # who can open a message under each key: every user whose secret key
        # `match`es it, which in a degenerate registry is each user sharing it
        holders: dict[SKey, list[Uid]] = {}
        for uid, sk in registry.skeys.items():
            holders.setdefault(sk, []).append(uid)
        self._keyholders = {
            pk: tuple([uid for sk in secrets for uid in holders.get(sk, ())])
            for pk, secrets in registry._secrets.items()
        }

    def send_action(self, owner: Uid, target: Uid, items: Sequence[Item]):
        return WireMsg(body=enc(tuple(items), self.registry.pkeys[target]), ghost_sender=owner)

    def readable(self, action, me: Uid):
        if isinstance(action, WireMsg):
            out = dec(action.body, self.registry.skeys[me], self.registry)
            if not isinstance(out, DecryptFailure):
                return out
        return None

    def readers(self, action) -> tuple:
        """Who can read `action`, and its content."""
        if isinstance(action, WireMsg):
            return self._keyholders.get(action.body.pk, ()), action.body._payload
        return (), None

    def is_message(self, action) -> bool:
        return isinstance(action, WireMsg)

    def replay_action(self, action, me: Uid):
        return WireMsg(body=action.body, ghost_sender=me)
