"""Sealed-term encryption, projection to the recipient-field model, and the
cross-level refinement check."""

import itertools

import pytest

from protolab.crypto import (
    DECRYPT_FAILED,
    ConcreteMedium,
    DecryptFailure,
    EmptyContent,
    KeyRegistry,
    UnknownKey,
    WireMsg,
    abstract_of,
    dec,
    enc,
    match,
    registry_from_state,
)
from protolab.intruder import closure
from protolab.invariants import no_read_others
from protolab.model import (
    Invent,
    Msg,
    Nonce,
    PKey,
    SKey,
    add_knows,
    append_action,
    initial_state,
    open_session,
)
from protolab.runner import check_refinement, execute_scripted
from protolab.scenario import load_scenario

from conftest import reads, scenario

N1, N2 = Nonce(1), Nonce(2)


def registry(*uids) -> KeyRegistry:
    state = initial_state({u: True for u in uids})
    return registry_from_state(state)


def test_decrypt_with_matching_key():
    reg = registry("A", "B")
    term = enc(["A", N1], reg.pkeys["B"])
    assert dec(term, reg.skeys["B"], reg) == ("A", N1)


def test_decrypt_with_wrong_key_fails_as_value():
    reg = registry("A", "B")
    term = enc([N1], reg.pkeys["B"])
    out = dec(term, reg.skeys["A"], reg)
    assert out is DECRYPT_FAILED
    assert isinstance(out, DecryptFailure)


def test_equal_arguments_give_equal_terms():
    reg = registry("A", "B")
    assert enc(["A", N1], reg.pkeys["B"]) == enc(["A", N1], reg.pkeys["B"])
    assert enc(["A", N1], reg.pkeys["B"]) != enc(["A", N2], reg.pkeys["B"])
    assert enc([N1], reg.pkeys["B"]) != enc([N1], reg.pkeys["A"])


def test_empty_content_rejected():
    with pytest.raises(EmptyContent):
        enc([], PKey("pk:B"))


def test_dec_enc_exhaustive_over_four_user_universe():
    reg = registry("A", "B", "C", "D")
    payload = (N1,)
    matching = 0
    for enc_uid, dec_uid in itertools.product("ABCD", repeat=2):
        term = enc(payload, reg.pkeys[enc_uid])
        out = dec(term, reg.skeys[dec_uid], reg)
        expect_success = enc_uid == dec_uid
        assert match(reg.pkeys[enc_uid], reg.skeys[dec_uid], reg) == expect_success
        if expect_success:
            matching += 1
            assert out == payload
        else:
            assert out is DECRYPT_FAILED
    assert matching == 4  # 4 of the 16 (pk, sk) combinations


def test_sealed_term_has_no_public_payload_surface():
    term = enc([N1], PKey("pk:B"))
    public = [name for name in dir(term) if not name.startswith("_")]
    assert public == ["pk"]
    assert "<sealed>" in repr(term)
    with pytest.raises(AttributeError):
        term.pk = PKey("pk:A")


def test_abstract_of_maps_wire_to_recipient_field():
    reg = registry("A", "B")
    wire = WireMsg(body=enc(["A", N1], reg.pkeys["B"]), ghost_sender="A")
    assert abstract_of([wire], reg) == (Msg(rec="B", sender="A", content=("A", N1)),)
    assert abstract_of([], reg) == ()
    assert abstract_of([Invent("A", N1)], reg) == (Invent("A", N1),)


def test_abstract_of_rejects_unregistered_key():
    reg = registry("A", "B")
    wire = WireMsg(body=enc([N1], PKey("pk:Z")), ghost_sender="A")
    with pytest.raises(UnknownKey):
        abstract_of([wire], reg)


def test_degenerate_registry_breaks_recipient_only_readability():
    # two users behind one public key: the projection resolves to one of
    # them, and the other's knowledge is no longer justified
    shared = PKey("pk:shared")
    state = initial_state({"A": True, "B": True})
    state = open_session(state, "A", "A#1")
    state = open_session(state, "B", "B#1")
    reg = KeyRegistry(
        pkeys={"A": shared, "B": shared},
        skeys={u: state.users[u].skey for u in state.users},
    )
    medium = ConcreteMedium(reg)
    state = append_action(state, Invent("A", N1))
    state = append_action(state, medium.send_action("A", "A", [N1]))
    # B can decrypt the shared-key traffic and learn the nonce
    assert reads(medium, state.history[-1], "B") == (N1,)
    state = add_knows(state, "B", "B#1", [N1])
    projected = state.__class__(
        users=state.users,
        history=abstract_of(state.history, reg),
        pkeys=state.pkeys,
        top=state.top,  # the projection holds the same nonces
    )
    report = no_read_others(projected)
    assert not report.holds
    assert "B" in report.witness


@pytest.mark.parametrize("name", ["honest-ns", "lowe-on-ns", "lowe-on-nsl"])
def test_refinement_holds_for_shipped_scenarios(name):
    sc = load_scenario(scenario(name))
    concrete = execute_scripted(sc.with_level("concrete"))
    verdict = check_refinement(concrete, execute_scripted(sc.with_level("abstract")).final_state)
    assert verdict.holds, verdict.detail
    for state in concrete.checkable_states():
        report = no_read_others(state)
        assert report.holds, report.witness


def test_refinement_detects_a_tampered_twin():
    sc = load_scenario(scenario('honest-ns'))
    concrete = execute_scripted(sc.with_level("concrete"))
    twin = execute_scripted(sc.with_level("abstract"))
    # the last event is B's finish: same history, but B's session not yet complete
    unfinished = twin.states[-2]
    verdict = check_refinement(concrete, unfinished)
    assert not verdict.holds
    assert verdict.detail == "final user records differ across levels"
    # B's reply not yet sent: the histories differ
    verdict = check_refinement(concrete, twin.states[-7])
    assert not verdict.holds
    assert "history differs" in verdict.detail


def test_concrete_attack_projects_to_the_abstract_trace():
    sc = load_scenario(scenario('lowe-on-ns'))
    concrete = execute_scripted(sc.with_level("concrete"))
    abstract = execute_scripted(sc.with_level("abstract"))
    projected = abstract_of(concrete.final_state.history, concrete.registry)
    assert projected == abstract.final_state.history
    assert concrete.final_state.users == abstract.final_state.users


def test_wire_intruder_learns_nothing_without_matching_key():
    sc = load_scenario(scenario('honest-ns'))
    run = execute_scripted(sc.with_level("concrete"))
    # give the observer its own key pair, distinct from both participants
    reg = KeyRegistry(
        pkeys={**run.registry.pkeys, "I": PKey("pk:I")},
        skeys={**run.registry.skeys, "I": SKey("sk:I")},
    )
    know = closure(run.final_state, "I", ConcreteMedium(reg))
    assert not any(isinstance(item, Nonce) for item in know.known_items)
    assert len(know.observed_opaque) == 3  # every handshake message stays sealed