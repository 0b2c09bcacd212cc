"""Scenario execution: deterministic scheduling, run records, and replay.

A run has one record, `TraceRun`: `build_execution` makes it empty at the
scenario's level (the level chooses the medium), and each `step` applies a
schedule entry and appends the trace event of that step, the same
`trace.TraceEvent` that a trace file holds and that replay compares.  A
wire-level run is projected to the recipient-field model once, by
`checkable_states`, which the specs read, and which `check_refinement`
compares with the final state of the run's recipient-field twin.

One function interprets a schedule entry: `apply_entry` maps a
configuration (machines, global state, inbox) and an entry to the next
configuration, or raises `IllegalMove` when the entry is not enabled.
Scripted runs, the re-execution of a schedule (counterexamples and replay)
and the search all step through it, each handing it what a step reads:
a run from its mail (`TraceRun.advance`), the search from its nodes.

Scripted runs use a fixed round-robin schedule: each round polls every role
machine in declaration order and then gives a scripted intruder one move.
An actor that cannot make progress is skipped silently; the run ends at the
first round in which nobody moves (quiescence).  Everything downstream of a
scenario file is deterministic, so a run record can be re-executed and
verified digest by digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .crypto import ConcreteMedium, KeyRegistry, abstract_of, registry_from_state
from .intruder import (
    Compose,
    InventNonce,
    LoweScript,
    ReplayOpaque,
    apply_move,
    closure,
)
from .model import GlobalState, Sid, Uid, count, initial_state, is_uid, open_session
from .roles import (
    ABSTRACT,
    IllegalMove,
    Inbox,
    RoleKind,
    RoleMachine,
    SetPartner,
    Status,
    Variant,
    can_fire,
    make_machine,
    step,
    takes,
)
from .scenario import (
    IntruderDecl,
    RoleDecl,
    Scenario,
    ScenarioError,
    default_bounds,
    parse_scenario,
    render_scenario,
)
from .specs import SpecVerdict
from .trace import (
    Renderings,
    TraceDoc,
    TraceError,
    TraceEvent,
    node_digest,
    parse_message_text,
)

MAX_EVENTS_VALVE = 10_000


class DeadlockError(Exception):
    """An honest pair quiesced before both machines completed."""


# Schedule entries: ("machine", index, chosen_peer | None) or ("intruder", move)
ScheduleEntry = tuple


@dataclass(frozen=True)
class Config:
    """A configuration: every role machine, the global state and the inbox."""

    machines: tuple[RoleMachine, ...]
    state: GlobalState
    inbox: Inbox


def apply_entry(
    config: Config,
    entry: ScheduleEntry,
    medium,
    intruder: tuple[Uid, Sid] | None,
    found: int | None,
    known: frozenset | None,
) -> Config:
    """The configuration after one schedule entry.  `intruder` is the
    intruder's user and session, None when the scenario has none (and so no
    schedule of it holds an intruder entry).  The caller hands it what the
    step reads, from what it carries: for a machine entry the history index
    its receive takes (`found`; None: there is none, or the step is no
    receive), and for an intruder entry the items the intruder knows before
    its move (`known`).  Raises IllegalMove if the entry is not enabled in
    `config`."""
    if entry[0] == "machine":
        _, index, chosen_peer = entry
        machine, state, inbox = step(
            config.machines[index], config.state, config.inbox, medium, chosen_peer, found
        )
        machines = config.machines[:index] + (machine,) + config.machines[index + 1 :]
        return Config(machines, state, inbox)
    _, move = entry
    state = apply_move(config.state, *intruder, move, medium, known)
    return Config(config.machines, state, config.inbox)


_INTRUDER_STMT = {InventNonce: "invent-nonce", Compose: "compose", ReplayOpaque: "replay"}
_ABORTED = Status.ABORTED


@dataclass
class TraceRun:
    """A run record, filled in as the run executes: the configuration
    reached, every state after the initial one, and each step's trace event.
    The scenario's level chose the medium.  `mail` maps a user to the
    unconsumed messages it can read, as {history index: content}, oldest
    first."""

    scenario: Scenario
    config: Config
    medium: object
    intruder: tuple[Uid, Sid] | None
    initial: GlobalState
    init_digest: str = field(init=False)
    states: list[GlobalState] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    rendered: Renderings = field(default_factory=Renderings, repr=False, compare=False)
    mail: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _checkable: list[GlobalState] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def machines(self) -> tuple[RoleMachine, ...]:
        return self.config.machines

    @property
    def inbox(self) -> Inbox:
        return self.config.inbox

    @property
    def level(self) -> str:
        return self.medium.level

    @property
    def registry(self) -> KeyRegistry | None:
        return self.medium.registry

    @property
    def final_state(self) -> GlobalState:
        return self.states[-1] if self.states else self.initial

    def digest(self) -> str:
        config = self.config
        return node_digest(config.state, config.machines, config.inbox, self.rendered)

    def found(self, index: int) -> int | None:
        """The history index the receive of machine `index` takes from its
        owner's mail (`takes`).  None when there is none or the machine is
        not running at a receive."""
        machine = self.config.machines[index]
        taken = takes(machine, self.mail.get(machine.owner, {}).items())
        return None if taken is None else taken[0]

    def advance(self, entry: ScheduleEntry) -> Config:
        """Apply one entry, handing the interpreter what its step reads (a
        receive's message, `found`; the intruder's `closure`), and keep the
        mail: drop the message consumed, and file each action appended with
        the users that can read it (`readers`)."""
        before, medium = self.config, self.medium
        found = known = None
        if entry[0] == "machine":
            found = self.found(entry[1])
        else:
            known = closure(before.state, self.intruder[0], medium).known_items
        after = self.config = apply_entry(before, entry, medium, self.intruder, found, known)
        mail = self.mail
        if found is not None:
            del mail[before.machines[entry[1]].owner][found]
        history = after.state.history
        for index in range(len(before.state.history), len(history)):
            users, content = medium.readers(history[index])
            for uid in users:
                mail.setdefault(uid, {})[index] = content
        return after

    def step(self, entry: ScheduleEntry) -> None:
        """Apply one entry (`advance`) and record its event, worked out from
        the configurations before and after it."""
        before = self.config
        after = self.advance(entry)
        if entry[0] == "machine":
            stmt = before.machines[entry[1]].current()
            machine = after.machines[entry[1]]
            actor = machine.actor_id
            # only a receive aborts
            name = "recv-abort" if machine.status is _ABORTED else stmt.name
            arg = machine.peer if isinstance(stmt, SetPartner) else None
        else:
            move = entry[1]
            actor, name = f"intruder@{self.intruder[1]}", _INTRUDER_STMT[type(move)]
            arg = str(move.index) if isinstance(move, ReplayOpaque) else None
        digest = self.digest()
        appended = len(after.state.history) > len(before.state.history)
        act = self.rendered.last_action() if appended else "-"
        self.events.append(TraceEvent(len(self.events) + 1, actor, name, arg, act, digest))
        self.states.append(after.state)

    def checkable_states(self) -> list[GlobalState]:
        """All recorded states (initial first), projected to the
        recipient-field model when the run is at the wire level.

        The projection is made once per run, and each action is projected
        once: a state whose history is a prefix of the final one takes the
        matching prefix of the final projection."""
        if self._checkable is None:
            states = [self.initial] + self.states
            if self.registry is not None:
                final = self.final_state.history
                projected = abstract_of(final, self.registry)
                states = [
                    replace(
                        s,
                        history=projected[: len(s.history)]
                        if s.history == final[: len(s.history)]
                        else abstract_of(s.history, self.registry),
                    )
                    for s in states
                ]
            self._checkable = states
        return list(self._checkable)

    def transitions(self):
        """(actor id, its session, state before, state after) per event."""
        states = self.checkable_states()
        for ev, before, after in zip(self.events, states, states[1:]):
            yield ev.actor, ev.actor.partition("@")[2], before, after

    def to_doc(self, verdicts=()) -> TraceDoc:
        return TraceDoc(
            level=self.level,
            scenario_text=render_scenario(self.scenario),
            init_digest=self.init_digest,
            events=list(self.events),
            verdicts=[(v.spec, v.holds, v.detail) for v in verdicts],
        )


def build_execution(scenario: Scenario) -> TraceRun:
    """An empty run of `scenario` at the scenario's level."""
    state = initial_state(scenario.conforms_map())
    sessions = scenario.sessions()
    machines = tuple(
        make_machine(role.user, role.kind, role.variant, session, role.peer)
        for role, session in zip(scenario.roles, sessions)
    )
    for machine in machines:
        state = open_session(state, machine.owner, machine.session)
    intruder = None
    if scenario.intruder.user is not None:
        intruder = (scenario.intruder.user, scenario.intruder_session())
        state = open_session(state, *intruder)
    medium = ABSTRACT
    if scenario.level == "concrete":
        medium = ConcreteMedium(registry_from_state(state))
    run = TraceRun(scenario, Config(machines, state, Inbox()), medium, intruder, state)
    run.init_digest = run.digest()
    return run


def execute_scripted(scenario: Scenario) -> TraceRun:
    """Run a scenario with no intruder or a scripted one to quiescence."""
    if scenario.intruder.kind == "search":
        raise ScenarioError(
            "intruder: scripted execution cannot drive a search intruder; use 'explore'"
        )
    run = build_execution(scenario)
    script = None
    if scenario.intruder.kind == "lowe_script":
        intr = scenario.intruder
        script = LoweScript(me=intr.user, victim_a=intr.a, victim_b=intr.b)
    while True:
        if len(run.events) > MAX_EVENTS_VALVE:
            raise RuntimeError("run did not quiesce (event valve hit)")
        progressed = False
        for index in range(len(run.machines)):
            if can_fire(run.config.machines[index], run.found(index)):
                run.step(("machine", index, None))
                progressed = True
        if script is not None:
            move = script.pending_move(run.final_state, run.medium)
            if move is not None:
                run.step(("intruder", move))
                progressed = True
        if not progressed:
            break
    return run


def run_honest_pair(frm: Uid, to: Uid, variant: Variant):
    """Round-robin a fresh initiator/responder pair to completion.

    Returns the final global state and the run record.  Raises
    DeadlockError if the pair quiesces before both machines complete,
    which cannot happen without interference.
    """
    users = ((frm, True),) if frm == to else ((frm, True), (to, True))
    scenario = Scenario(
        users=users,
        roles=(
            RoleDecl(user=frm, kind=RoleKind.SENDER, peer=to, variant=variant),
            RoleDecl(user=to, kind=RoleKind.RECEIVER, peer=None, variant=variant),
        ),
        intruder=IntruderDecl(kind="none"),
        bounds=default_bounds(),
        level="abstract",
    )
    run = execute_scripted(scenario)
    if not all(m.status is Status.COMPLETED for m in run.machines):
        raise DeadlockError(
            "honest pair quiesced before completion: "
            + ", ".join(f"{m.actor_id}={m.status.value}" for m in run.machines)
        )
    return run.final_state, run


def execute_schedule(scenario: Scenario, schedule) -> TraceRun:
    """Re-execute an explicit schedule (from the explorer or a parsed trace).
    Raises IllegalMove, naming the 1-based event, for an entry that is not
    enabled at that point."""
    run = build_execution(scenario)
    for event, entry in enumerate(schedule, start=1):
        try:
            run.step(entry)
        except IllegalMove as exc:
            raise IllegalMove(f"event {event}: {exc}") from None
    return run


def _actor_index_map(scenario: Scenario) -> dict[str, int]:
    out = {}
    for index, (role, session) in enumerate(zip(scenario.roles, scenario.sessions())):
        out[f"{role.kind.value}@{session}"] = index
    return out


def schedule_from_doc(doc: TraceDoc, scenario: Scenario) -> list[ScheduleEntry]:
    """Rebuild the executable schedule recorded in a trace document."""
    actor_to_index = _actor_index_map(scenario)
    intr_actor = (
        f"intruder@{scenario.intruder_session()}" if scenario.intruder.user is not None else None
    )
    declared = {uid for uid, _ in scenario.users}
    schedule: list[ScheduleEntry] = []
    for ev in doc.events:
        if ev.actor in actor_to_index:
            peer = ev.arg if ev.stmt == "set-partner" else None
            if ev.stmt == "set-partner" and peer not in declared:
                raise TraceError(
                    f"event {ev.index}: field 'arg': set-partner peer must be a declared user, "
                    f"got {peer!r}"
                )
            schedule.append(("machine", actor_to_index[ev.actor], peer))
        elif ev.actor == intr_actor:
            if ev.stmt == "invent-nonce":
                schedule.append(("intruder", InventNonce()))
            elif ev.stmt == "replay":
                try:
                    index = count(ev.arg or "")
                except ValueError:
                    raise TraceError(f"event {ev.index}: replay needs a history index")
                schedule.append(("intruder", ReplayOpaque(index)))
            elif ev.stmt == "compose":
                try:
                    parsed = parse_message_text(ev.action_text)
                except TraceError as exc:
                    raise TraceError(f"event {ev.index}: field 'act': {exc}")
                if parsed["kind"] == "msg":
                    rec = parsed["rec"]
                else:
                    atom = parsed["pk_atom"]
                    if not atom.startswith("pk:"):
                        raise TraceError(f"event {ev.index}: unrecognised key atom {atom!r}")
                    rec = atom.split(":", 1)[1]
                if rec not in declared:
                    raise TraceError(
                        f"event {ev.index}: field 'act': compose recipient {rec!r} "
                        "is not a declared user"
                    )
                if not parsed["content"]:
                    raise TraceError(f"event {ev.index}: field 'act': compose content is empty")
                for item in parsed["content"]:
                    if is_uid(item) and item not in declared:
                        raise TraceError(
                            f"event {ev.index}: field 'act': compose item {item!r} "
                            "is not a declared user"
                        )
                schedule.append(("intruder", Compose(rec=rec, content=parsed["content"])))
            else:
                raise TraceError(f"event {ev.index}: unknown intruder statement {ev.stmt!r}")
        else:
            raise TraceError(f"event {ev.index}: unknown actor {ev.actor!r}")
    return schedule


def replay_doc(doc: TraceDoc) -> tuple[int | None, TraceRun, list[ScheduleEntry]]:
    """Re-execute a parsed trace.  Returns (first divergent event index or
    None, the re-executed run, its schedule)."""
    scenario = parse_scenario(doc.scenario_text)
    schedule = schedule_from_doc(doc, scenario)
    try:
        run = execute_schedule(scenario.with_level(doc.level), schedule)
    except IllegalMove as exc:
        raise TraceError(f"trace is not executable: {exc}")
    if run.init_digest != doc.init_digest:
        return 0, run, schedule
    for executed, recorded in zip(run.events, doc.events):
        if executed != recorded:
            return recorded.index, run, schedule
    return None, run, schedule


def check_refinement(run: TraceRun, twin: GlobalState) -> SpecVerdict:
    """Check that a wire-level run projects exactly onto `twin`, the final
    state of its recipient-field twin (the run's schedule applied at the
    abstract level): identical histories and identical user records.
    Recipient-only readability of the projected states is a run obligation
    (`specs.check_lemma_suite`)."""
    projected = run.checkable_states()[-1]
    if projected.history != twin.history:
        return SpecVerdict(
            spec="refinement",
            holds=False,
            detail="projected wire history differs from the recipient-field history",
        )
    if projected.users != twin.users:
        return SpecVerdict(
            spec="refinement", holds=False, detail="final user records differ across levels"
        )
    return SpecVerdict(spec="refinement", holds=True)
