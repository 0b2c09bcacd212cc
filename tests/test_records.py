"""Records: the package's value records are NamedTuples, and the few that a
tuple cannot model are written-out classes.  A frozen dataclass hashed and
compared the tuple of its fields, as a NamedTuple does, so the change of
records left every set order, digest and trace byte-identical; these tests
pin why.  A record that checks its fields checks them however it is built,
`_replace` and `_make` included."""

import itertools
from functools import cache

import pytest

import protolab.search as search
from protolab import crypto, intruder, invariants, model, roles, runner, scenario, specs, trace
from protolab.crypto import DECRYPT_FAILED, EncMsg, payload_for_trace
from protolab.intruder import Compose, InventNonce, LoweScript, ReplayOpaque, closure
from protolab.invariants import PredicateReport, inv_sigma
from protolab.model import Msg, Nonce, PKey, SKey
from protolab.roles import _NS_RECEIVER, _NS_SENDER, _NSL_RECEIVER, _NSL_SENDER
from protolab.runner import TraceRun, execute_scripted, schedule_from_doc
from protolab.scenario import ScenarioError, SearchBounds, default_bounds, load_scenario
from protolab.search import explore
from protolab.specs import evaluate_run_specs, resolve_spec_names

from conftest import scenario as scenario_path

N1 = Nonce(1)
GOLDEN_RUNS = ("honest-ns", "lowe-on-ns", "lowe-on-nsl")
LEVELS = ("abstract", "concrete")
PROGRAMS = (_NS_SENDER, _NS_RECEIVER, _NSL_SENDER, _NSL_RECEIVER)
MODULES = (model, crypto, roles, intruder, invariants, specs, scenario, trace, runner, search)
# every NamedTuple record of the package, by its public name
RECORDS = sorted(
    {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and hasattr(value, "_fields")
        and not value.__name__.startswith("_")
    },
    key=lambda cls: cls.__name__,
)


def golden_run(name: str, level: str) -> TraceRun:
    return execute_scripted(load_scenario(scenario_path(name)).with_level(level))


@cache
def offered_moves(invents: int) -> tuple:
    """The moves `legal_moves` offers at each node of ns-search, with
    `invents` inventions allowed, one tuple per call."""
    offered, real = [], search.legal_moves

    def offering(*args):
        moves = real(*args)
        offered.append(tuple(moves))
        return moves

    sc = load_scenario(scenario_path("ns-search"))
    sc = sc._replace(bounds=sc.bounds._replace(max_intruder_invents=invents))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "legal_moves", offering)
        explore(sc, spec="all")
    return tuple(offered)


def records_in(roots) -> dict:
    """Each record reachable from `roots` through containers, run records
    and verdicts, by class."""
    found, todo, seen = {}, list(roots), {}  # `seen` keeps what it holds alive, so ids stay apart
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen[id(value)] = value
        if hasattr(value.__class__, "_fields"):
            found.setdefault(value.__class__, []).append(value)
        if isinstance(value, (tuple, list, set, frozenset)):
            todo.extend(value)
        elif isinstance(value, dict):
            todo.extend(value.items())
        elif isinstance(value, TraceRun):
            todo.extend(vars(value).values())
    return found


@cache
def samples() -> dict:
    """Records of every class, from the golden runs at both levels and their
    verdicts, replayed schedules and intruder knowledge, ns-search's
    counterexample and offered moves, and the programs."""
    roots = [PROGRAMS, offered_moves(1), default_bounds()]
    for name, level in itertools.product(GOLDEN_RUNS, LEVELS):
        run = golden_run(name, level)
        verdicts = evaluate_run_specs(run, resolve_spec_names("all"))
        schedule = schedule_from_doc(run.to_doc(verdicts), run.scenario)
        roots += [run, verdicts, schedule, inv_sigma(run.checkable_states()[-1])]
        intr = run.scenario.intruder
        if intr.user is not None:
            roots.append(closure(run.final_state, intr.user, run.medium))
        if intr.kind == "lowe_script":
            roots.append(LoweScript(intr.user, intr.a, intr.b))
    roots.append(explore(load_scenario(scenario_path("ns-search")), spec="post-ns"))
    return records_in(roots)


def test_every_record_class_is_sampled():
    assert sorted(samples(), key=lambda cls: cls.__name__) == RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_hashes_and_compares_as_the_tuple_of_its_fields(cls):
    # a frozen dataclass's `__hash__` was `hash` of this tuple, and its `__eq__`
    # compared these tuples, so sets of records iterate in the order they did
    for record in samples()[cls][:50]:
        fields = tuple(getattr(record, name) for name in cls._fields)
        assert record == fields and cls._make(fields) == record
        assert not record != fields
        try:
            expected = hash(fields)
        except TypeError:  # a record holding a dict or a list has no hash
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected


def test_a_sealed_term_hashes_and_compares_as_its_payload_and_key():
    term = crypto.enc(["A", N1], PKey("pk:B"))
    assert hash(term) == hash((("A", N1), PKey("pk:B")))
    assert term == EncMsg(("A", N1), PKey("pk:B")) and term != EncMsg(("A",), PKey("pk:B"))
    assert term != (("A", N1), PKey("pk:B"))
    assert payload_for_trace(term) == ("A", N1)


def mixed_equals(values) -> list:
    """Each pair of values of different classes that compare equal."""
    buckets: dict = {}
    for _, value in {(value.__class__, value) for value in values}:
        buckets.setdefault(hash(value), []).append(value)
    return [
        (a, b)
        for bucket in buckets.values()
        for a, b in itertools.combinations(bucket, 2)
        if a.__class__ is not b.__class__ and a == b
    ]


def test_values_of_different_classes_can_compare_equal():
    # what the containers below must not hold: NamedTuples of different
    # classes with equal fields compare equal, where dataclasses did not
    pairs = mixed_equals([Nonce(3), ReplayOpaque(3), PKey("x"), SKey("x"), Nonce(3), InventNonce()])
    assert sorted(map(sorted, ([a.__class__.__name__, b.__class__.__name__] for a, b in pairs))) == [
        ["Nonce", "ReplayOpaque"],
        ["PKey", "SKey"],
    ]


@pytest.mark.parametrize("level", LEVELS)
def test_equal_actions_of_the_golden_runs_share_a_class(level):
    actions = [act for name in GOLDEN_RUNS for act in golden_run(name, level).final_state.history]
    assert len({act.__class__ for act in actions}) == 2
    assert mixed_equals(actions) == []


def test_equal_statements_of_the_programs_share_a_class():
    assert mixed_equals([stmt for program in PROGRAMS for stmt in program]) == []


@pytest.mark.parametrize("invents", [0, 1])
def test_equal_moves_offered_along_ns_search_share_a_class(invents):
    offered = offered_moves(invents)
    assert all(mixed_equals(moves) == [] for moves in offered)
    every = [move for moves in offered for move in moves]
    assert {move.__class__ for move in every} == {Compose, ReplayOpaque} | (
        {InventNonce} if invents else set()
    )
    assert mixed_equals(every) == []


def test_a_record_without_fields_is_truthy_and_equals_its_class_alone():
    # an empty tuple would be falsy and equal `()`; a dataclass without
    # fields hashed as `hash(())`
    for value in (InventNonce(), DECRYPT_FAILED):
        assert value and value != () and () != value
        assert hash(value) == hash(())
        assert value == value.__class__() and repr(value) == f"{value.__class__.__name__}()"
    assert InventNonce() != DECRYPT_FAILED


MSG = Msg("B", "A", (N1,))
REPORT = PredicateReport("unique-nonces", True)
SCENARIO = load_scenario(scenario_path("ns-search"))

CHECKED = {
    "msg-built": (lambda: Msg("B", "A", ()), ValueError, "message content must be non-empty"),
    "msg-replaced": (lambda: MSG._replace(content=()), ValueError, "must be non-empty"),
    "msg-made": (lambda: Msg._make(("B", "A", ())), ValueError, "must be non-empty"),
    "bounds-built": (lambda: SearchBounds(0, 0, -1, 0), ScenarioError, "max_content_len must"),
    "bounds-replaced": (
        lambda: default_bounds()._replace(max_intruder_invents=-1),
        ScenarioError,
        "bounds: max_intruder_invents must be >= 0",
    ),
    "scenario-with-max-steps": (
        lambda: SCENARIO.with_max_steps(-1),
        ScenarioError,
        "bounds: max_steps must be >= 0",
    ),
    "report-built": (lambda: PredicateReport("unique-nonces", False), AssertionError, None),
    "report-replaced": (lambda: REPORT._replace(holds=False), AssertionError, None),
    "report-witnessed": (lambda: REPORT._replace(witness="n1"), AssertionError, None),
}


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_is_checked_however_it_is_built(name):
    build, error, message = CHECKED[name]
    with pytest.raises(error, match=message):
        build()


def test_a_checked_record_replaced_keeps_its_class():
    assert MSG._replace(rec="C").__class__ is Msg
    assert SCENARIO.with_max_steps(3).bounds.__class__ is SearchBounds
    assert REPORT._replace(holds=False, witness="n1") == ("unique-nonces", False, "n1")
    assert REPORT._replace(holds=False, witness="n1").__class__ is PredicateReport
