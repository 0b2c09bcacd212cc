"""Scenario execution: deterministic scheduling, run records, and replay.

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
    IllegalMove,
    IntruderMove,
    InventNonce,
    ReplayOpaque,
    apply_move,
    lowe_script,
)
from .model import GlobalState, Sid, Uid, initial_state, open_session
from .roles import (
    ABSTRACT,
    Inbox,
    RecvStmt,
    RoleMachine,
    SetPartner,
    Status,
    can_fire,
    make_machine,
    needs_peer_choice,
    step,
)
from .scenario import Scenario, ScenarioError, parse_scenario, render_scenario
from .trace import (
    Renderings,
    TraceDoc,
    TraceError,
    TraceEvent,
    node_digest,
    parse_message_text,
    render_action,
)

MAX_EVENTS_VALVE = 10_000


@dataclass(frozen=True)
class RunEvent:
    index: int
    actor: str
    session: Sid
    stmt: str
    arg: str | None
    action: object | None


@dataclass
class TraceRun:
    scenario: Scenario
    level: str
    initial: GlobalState
    states: list[GlobalState]
    events: list[RunEvent]
    machines: tuple[RoleMachine, ...]
    inbox: Inbox
    registry: KeyRegistry | None
    init_digest: str
    digests: list[str] = field(default_factory=list)
    _checkable: list[GlobalState] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def final_state(self) -> GlobalState:
        return self.states[-1] if self.states else self.initial

    def checkable_states(self) -> list[GlobalState]:
        """All recorded states (initial first), projected to the
        recipient-field model when the run is at the wire level.

        The projection is made once per run, and each action is projected
        once: a state whose history is a prefix of the final one takes the
        matching prefix of the final projection."""
        if self._checkable is None:
            states = [self.initial] + self.states
            if self.level != "abstract":
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
        states = self.checkable_states()
        for ev, before, after in zip(self.events, states, states[1:]):
            yield ev.actor, ev.session, before, after

    def to_doc(self, verdicts=()) -> TraceDoc:
        return TraceDoc(
            level=self.level,
            scenario_text=render_scenario(self.scenario),
            init_digest=self.init_digest,
            events=[
                TraceEvent(
                    index=ev.index,
                    actor=ev.actor,
                    stmt=ev.stmt,
                    arg=ev.arg,
                    action_text=render_action(ev.action) if ev.action is not None else "-",
                    digest=digest,
                )
                for ev, digest in zip(self.events, self.digests)
            ],
            verdicts=[(v.spec, v.holds, v.detail) for v in verdicts],
        )


@dataclass
class _Execution:
    scenario: Scenario
    level: str
    state: GlobalState
    machines: list[RoleMachine]
    inbox: Inbox
    medium: object
    registry: KeyRegistry | None
    intr_user: Uid | None
    intr_session: Sid | None
    events: list[RunEvent] = field(default_factory=list)
    states: list[GlobalState] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    rendered: Renderings = field(default_factory=Renderings)

    def digest(self) -> str:
        return node_digest(self.state, self.machines, self.inbox, self.rendered)

    def record(self, actor: str, session: Sid, stmt: str, arg: str | None, action) -> None:
        self.events.append(
            RunEvent(
                index=len(self.events) + 1,
                actor=actor,
                session=session,
                stmt=stmt,
                arg=arg,
                action=action,
            )
        )
        self.states.append(self.state)
        self.digests.append(self.digest())

    def step_machine(self, index: int, chosen_peer: Uid | None = None) -> None:
        machine = self.machines[index]
        stmt = machine.current()
        before_len = len(self.state.history)
        machine2, self.state, self.inbox = step(
            machine, self.state, self.inbox, self.medium, chosen_peer=chosen_peer
        )
        self.machines[index] = machine2
        name = stmt.name
        if isinstance(stmt, RecvStmt) and machine2.status is Status.ABORTED:
            name = "recv-abort"
        arg = machine2.peer if isinstance(stmt, SetPartner) else None
        action = self.state.history[-1] if len(self.state.history) > before_len else None
        self.record(machine2.actor_id, machine2.session, name, arg, action)

    def step_intruder(self, move: IntruderMove) -> None:
        assert self.intr_user is not None and self.intr_session is not None
        self.state = apply_move(self.state, self.intr_user, self.intr_session, move, self.medium)
        if isinstance(move, InventNonce):
            stmt, arg = "invent-nonce", None
        elif isinstance(move, Compose):
            stmt, arg = "compose", None
        else:
            stmt, arg = "replay", str(move.index)
        self.record(
            f"intruder@{self.intr_session}",
            self.intr_session,
            stmt,
            arg,
            self.state.history[-1],
        )

    def to_run(self, init_digest: str, initial: GlobalState) -> TraceRun:
        return TraceRun(
            scenario=self.scenario,
            level=self.level,
            initial=initial,
            states=self.states,
            events=self.events,
            machines=tuple(self.machines),
            inbox=self.inbox,
            registry=self.registry,
            init_digest=init_digest,
            digests=self.digests,
        )


def build_execution(scenario: Scenario, level: str | None = None) -> _Execution:
    level = level or scenario.level
    state = initial_state(scenario.conforms_map())
    sessions = scenario.sessions()
    machines = [
        make_machine(role.user, role.kind, role.variant, session, role.peer)
        for role, session in zip(scenario.roles, sessions)
    ]
    for machine in machines:
        state = open_session(state, machine.owner, machine.session)
    intr_user = scenario.intruder.user
    intr_session = scenario.intruder_session()
    if intr_user is not None:
        state = open_session(state, intr_user, intr_session)
    registry = registry_from_state(state) if level == "concrete" else None
    medium = ConcreteMedium(registry) if registry is not None else ABSTRACT
    return _Execution(
        scenario=scenario,
        level=level,
        state=state,
        machines=machines,
        inbox=Inbox(),
        medium=medium,
        registry=registry,
        intr_user=intr_user,
        intr_session=intr_session,
    )


def execute_scripted(scenario: Scenario, level: str | None = None) -> TraceRun:
    """Run a scenario with no intruder or a scripted one to quiescence."""
    if scenario.intruder.kind == "search":
        raise ScenarioError("intruder: scripted execution cannot drive a search intruder")
    ex = build_execution(scenario, level)
    initial = ex.state
    init_digest = ex.digest()
    script = None
    if scenario.intruder.kind == "lowe_script":
        script = lowe_script(scenario.intruder.user, scenario.intruder.a, scenario.intruder.b)
    while True:
        if len(ex.events) > MAX_EVENTS_VALVE:
            raise RuntimeError("run did not quiesce (event valve hit)")
        progressed = False
        for index in range(len(ex.machines)):
            machine = ex.machines[index]
            assert not needs_peer_choice(machine), "scripted senders have fixed partners"
            if can_fire(machine, ex.state, ex.inbox, ex.medium):
                ex.step_machine(index)
                progressed = True
        if script is not None:
            move = script.pending_move(ex.state, ex.medium)
            if move is not None:
                ex.step_intruder(move)
                progressed = True
        if not progressed:
            break
    return ex.to_run(init_digest, initial)


# Schedule entries: ("machine", index, chosen_peer | None) or ("intruder", move)
ScheduleEntry = tuple


def execute_schedule(scenario: Scenario, schedule, level: str | None = None) -> TraceRun:
    """Re-execute an explicit schedule (from the explorer or a parsed trace).
    Raises IllegalMove, naming the 1-based event, for an intruder move the
    state at that point does not allow."""
    ex = build_execution(scenario, level)
    initial = ex.state
    init_digest = ex.digest()
    for event, entry in enumerate(schedule, start=1):
        if entry[0] == "machine":
            _, index, chosen_peer = entry
            ex.step_machine(index, chosen_peer=chosen_peer)
        else:
            _, move = entry
            try:
                ex.step_intruder(move)
            except IllegalMove as exc:
                raise IllegalMove(f"event {event}: {exc}") from None
    return ex.to_run(init_digest, initial)


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
                if ev.arg is None or not ev.arg.isdigit():
                    raise TraceError(f"event {ev.index}: replay needs a history index")
                schedule.append(("intruder", ReplayOpaque(int(ev.arg))))
            elif ev.stmt == "compose":
                parsed = parse_message_text(ev.action_text)
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
                schedule.append(("intruder", Compose(rec=rec, content=parsed["content"])))
            else:
                raise TraceError(f"event {ev.index}: unknown intruder statement {ev.stmt!r}")
        else:
            raise TraceError(f"event {ev.index}: unknown actor {ev.actor!r}")
    return schedule


def replay_doc(doc: TraceDoc) -> tuple[int | None, TraceRun]:
    """Re-execute a parsed trace.  Returns (first divergent event index or
    None, the re-executed run)."""
    scenario = parse_scenario(doc.scenario_text)
    schedule = schedule_from_doc(doc, scenario)
    try:
        run = execute_schedule(scenario, schedule, level=doc.level)
    except IllegalMove as exc:
        raise TraceError(f"trace is not executable: {exc}")
    except (IndexError, KeyError, AssertionError) as exc:
        # grammatically fine but not a schedule this tool could have produced
        raise TraceError(f"trace is not executable: {exc!r}")
    if run.init_digest != doc.init_digest:
        return 0, run
    for ev, digest, recorded in zip(run.events, run.digests, doc.events):
        executed_act = render_action(ev.action) if ev.action is not None else "-"
        if (
            digest != recorded.digest
            or ev.stmt != recorded.stmt
            or ev.arg != recorded.arg
            or executed_act != recorded.action_text
        ):
            return recorded.index, run
    return None, run
