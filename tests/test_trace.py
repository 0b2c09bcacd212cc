"""Node digests: the texts a run keeps between its digests must give the
digest a fresh `Renderings` gives, in any order of configurations, and a
long run's digests must cost what each event changed.  A long run does
only the work it needs: one digest per replayed event, and one look at
each action for its inventions.  `--no-ghost` prints the observable
projection of each action."""

import hashlib
import io
import re
from dataclasses import replace

import pytest

import protolab.model as model
import protolab.trace as trace
from protolab.cli import main
from protolab.crypto import WireMsg
from protolab.model import Invent, Msg, Nonce, render_content
from protolab.roles import can_fire
from protolab.runner import TraceRun, apply_entry, build_execution, execute_scripted
from protolab.scenario import load_scenario, parse_scenario
from protolab.trace import Renderings, node_digest

from conftest import count_calls, perfbench_module, reference_find_match, scenario

# The benchmark's audit-long input: 24 intruder-free NSL pairs, 264 events.
AUDIT = perfbench_module("workloads").audit_scenario(1)
AUDIT_EVENTS = 264


def load(name):
    return parse_scenario(AUDIT) if name == "audit" else load_scenario(scenario(name))


def fresh_digest(config):
    return node_digest(config.state, config.machines, config.inbox, Renderings())


def scripted_configs(monkeypatch, sc):
    """A scripted run and the configuration after each of its events."""
    configs = []
    real_step = TraceRun.step

    def recording_step(self, entry):
        real_step(self, entry)
        configs.append(self.config)

    monkeypatch.setattr(TraceRun, "step", recording_step)
    run = execute_scripted(sc)
    monkeypatch.setattr(TraceRun, "step", real_step)
    return run, configs


@pytest.mark.parametrize("level", ["abstract", "concrete"])
@pytest.mark.parametrize("name", ["honest-ns", "honest-nsl", "lowe-on-ns", "lowe-on-nsl", "audit"])
def test_shared_renderings_give_fresh_digests(monkeypatch, name, level):
    sc = load(name).with_level(level)
    run, configs = scripted_configs(monkeypatch, sc)
    assert len(configs) == len(run.events) > 0
    assert run.init_digest == fresh_digest(build_execution(sc).config)
    for event, config in zip(run.events, configs):
        assert event.digest == fresh_digest(config), event.index


def test_renderings_fed_out_of_order_give_fresh_digests(monkeypatch):
    run, configs = scripted_configs(monkeypatch, parse_scenario(AUDIT))
    initial = build_execution(parse_scenario(AUDIT)).config

    def siblings(config, taken):
        """The configurations one other enabled machine step away."""
        enabled = []
        for index, machine in enumerate(config.machines):
            found = reference_find_match(machine, config.state, config.inbox, run.medium)
            if index != taken and can_fire(machine, found):
                enabled.append((index, found))
        return [
            apply_entry(config, ("machine", i, None), run.medium, None, found, None)
            for i, found in enabled[:2]
        ]

    def last_replaced(config):
        """The same history length, with a different last action."""
        history = config.state.history
        other = Invent("P99", Nonce(999))
        return replace(config, state=replace(config.state, history=history[:-1] + (other,)))

    first = next(i for i, m in enumerate(initial.machines) if m != configs[0].machines[i])
    order = [
        configs[40],
        configs[20],  # a shorter history after a longer one
        *siblings(configs[19], None),  # branches beside configs[20]
        configs[20],
        last_replaced(configs[20]),
        configs[20],
        *siblings(initial, first),  # beside the first event's history
        configs[-1],
        initial,
        configs[0],
        last_replaced(configs[-1]),
        configs[-1],
    ]
    shared = Renderings()
    for pos, config in enumerate(order):
        digest = node_digest(config.state, config.machines, config.inbox, shared)
        assert digest == fresh_digest(config), pos


def test_digests_render_each_appended_action_once(monkeypatch):
    # for the digest that first covers the action, whose history text also
    # gives the event's `act` text: re-joining the history at every event
    # would make the count grow with the square of the run's length
    for level in ("abstract", "concrete"):
        renders = count_calls(monkeypatch, trace.render_action)
        run = execute_scripted(parse_scenario(AUDIT).with_level(level))
        assert len(run.events) == AUDIT_EVENTS
        appended = len(run.final_state.history)
        assert 0 < renders() <= appended, (level, renders(), appended)
        monkeypatch.undo()


@pytest.mark.parametrize("level", ["abstract", "concrete"])
def test_digests_render_each_replaced_row_once(monkeypatch, level):
    # a step replaces at most one machine, one user record and one inbox
    # entry, and only a replaced row is rendered again
    machines = count_calls(monkeypatch, trace._render_machine)
    users = count_calls(monkeypatch, trace._render_user)
    entries = count_calls(monkeypatch, trace._render_consumed)
    run = execute_scripted(parse_scenario(AUDIT).with_level(level))
    assert len(run.events) == AUDIT_EVENTS
    assert 0 < machines() <= len(run.machines) + AUDIT_EVENTS
    assert 0 < users() <= len(run.initial.users) + AUDIT_EVENTS
    assert 0 < entries() <= AUDIT_EVENTS  # the inbox starts empty


# sha256 of `run --spec all --level L --trace-out` on the audit scenario,
# recorded before node digests kept renderings between events
LONG_TRACE_SHA256 = {
    "abstract": "e1fde16fffd2b91ac1f380b1a7d2d910e7bd5ce04f9085b715dd5730f8447ff5",
    "concrete": "c5b0e4617cd3d9125d6d4ef010a5164c67f4c32eb40a45081a0ebfbaca9c7ede",
}


@pytest.mark.parametrize("level", ["abstract", "concrete"])
def test_long_trace_bytes_are_pinned(tmp_path, level):
    scn, trc = tmp_path / "audit.scn", tmp_path / "audit.trc"
    scn.write_text(AUDIT, encoding="utf-8")
    argv = ["run", str(scn), "--spec", "all", "--level", level, "--trace-out", str(trc)]
    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert hashlib.sha256(trc.read_bytes()).hexdigest() == LONG_TRACE_SHA256[level]
    out = io.StringIO()
    assert main(["replay", str(trc)], out=out, err=io.StringIO()) == 0
    assert out.getvalue() == f"replay ok: {AUDIT_EVENTS} events verified\n"


def observable(action):
    """What the receiving side could see of an action: no true originator
    and no sealed payload."""
    if isinstance(action, Msg):
        return f"msg(rec={action.rec},{render_content(action.content)})"
    if isinstance(action, WireMsg):
        return f"wire(enc({action.body.pk!r}))"
    return trace.render_action(action)


@pytest.mark.parametrize("level", ["abstract", "concrete"])
@pytest.mark.parametrize("name", ["lowe-on-ns", "lowe-on-nsl"])
def test_no_ghost_prints_the_observable_projection(name, level):
    # `--no-ghost` output is the ghost-full output with each `act` stripped
    # of its ghost fields, and what is left is what the recipient can see
    argv = ["run", scenario(name), "--level", level]
    full, bare = io.StringIO(), io.StringIO()
    code = 1 if name == "lowe-on-ns" else 0  # Lowe's attack breaks NS only
    assert main(argv, out=full, err=io.StringIO()) == code
    assert main(argv + ["--no-ghost"], out=bare, err=io.StringIO()) == code
    act = re.compile(r" act=(\S+) ")
    full_lines, bare_lines = full.getvalue().splitlines(), bare.getvalue().splitlines()
    assert len(full_lines) == len(bare_lines)
    for full_line, bare_line in zip(full_lines, bare_lines):
        assert bare_line == act.sub(
            lambda m: f" act={trace.strip_ghost(m.group(1))} ", full_line
        )
    acts = [m.group(1) for m in map(act.search, bare_lines) if m and m.group(1) != "-"]
    history = execute_scripted(load(name).with_level(level)).final_state.history
    assert acts == [observable(action) for action in history]
    example = "msg(rec=B,[A,n1])" if level == "abstract" else "wire(enc(pk:B))"
    assert example in acts and "ghost:" not in bare.getvalue()


def test_a_wire_replay_digests_each_event_once(monkeypatch, tmp_path):
    # the replayed run digests its initial configuration and each event;
    # the recipient-field twin is compared by its final state alone, so it
    # digests only its initial configuration
    scn, trc = tmp_path / "audit.scn", tmp_path / "audit.trc"
    scn.write_text(AUDIT, encoding="utf-8")
    argv = ["run", str(scn), "--level", "concrete", "--trace-out", str(trc)]
    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    digests = count_calls(monkeypatch, trace.node_digest)
    out = io.StringIO()
    assert main(["replay", str(trc)], out=out, err=io.StringIO()) == 0
    assert out.getvalue() == f"replay ok: {AUDIT_EVENTS} events verified\n"
    assert 0 < digests() <= AUDIT_EVENTS + 2


def test_each_invention_scans_the_history_once(monkeypatch):
    # a run's inventions scan no action: each takes the nonce one past the
    # top its state carries
    visited = count_calls(monkeypatch, model._nonces_in_history, len)
    run = execute_scripted(parse_scenario(AUDIT))
    history = run.final_state.history
    assert sum(isinstance(act, Invent) for act in history) == 48
    assert visited() == 0
