"""Command-line driver.

    protolab run <scenario> [--spec ...] [--level ...] [--trace-out PATH] [--no-ghost]
    protolab explore <scenario> [--spec ...] [--max-steps N] [--trace-out PATH]
                     [--no-ghost]
    protolab replay <trace>

Exit codes: 0 all requested specs hold, 1 a spec is violated (run) or a
counterexample was found (explore) or a replay diverged, 2 malformed input,
3 exploration inconclusive (step bound cut live branches, or out of memory).

Output is byte-stable: identical inputs and flags produce identical traces
and identical stdout.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .model import count
from .runner import build_execution, check_refinement, execute_scripted, replay_doc
from .scenario import ScenarioError, load_scenario
from .search import explore
from .specs import SPEC_CHOICES, SPEC_INV, evaluate_run_specs, resolve_spec_names
from .trace import TraceError, parse_trace, render_trace, verdict_line

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3

# Malformed input, which `main` reports as "error: ..." with exit 2 whichever
# command raised it: scenario and trace errors, unreadable paths (missing, a
# directory, unwritable), and text that is not UTF-8 (UnicodeDecodeError is a
# ValueError).
INPUT_ERRORS = (ScenarioError, TraceError, OSError, ValueError)


def _emit_trace(text: str, trace_out: str | None, out) -> None:
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)


def cmd_run(args, out) -> int:
    scenario = load_scenario(args.scenario)
    if args.level:
        scenario = scenario.with_level(args.level)
    run = execute_scripted(scenario)
    verdicts = evaluate_run_specs(run, resolve_spec_names(args.spec))
    text = render_trace(run.to_doc(verdicts), no_ghost=args.no_ghost)
    _emit_trace(text, args.trace_out, out)
    if args.trace_out:
        for verdict in verdicts:
            out.write(verdict_line(verdict.spec, verdict.holds, verdict.detail) + "\n")
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_VIOLATION


def cmd_explore(args, out) -> int:
    scenario = load_scenario(args.scenario)
    if args.max_steps is not None:
        scenario = scenario.with_max_steps(args.max_steps)
    verdict = explore(scenario, spec=args.spec)
    out.write(f"states explored: {verdict.states}\n")
    out.write(verdict_line(verdict.spec, verdict.holds, verdict.detail) + "\n")
    if verdict.inconclusive:
        return EXIT_INCONCLUSIVE
    if verdict.holds:
        return EXIT_OK
    run = verdict.counterexample
    text = render_trace(run.to_doc([verdict]), no_ghost=args.no_ghost)
    # an unwritable --trace-out is reported after the verdict lines
    _emit_trace(text, args.trace_out, out)
    return EXIT_VIOLATION


def cmd_replay(args, out) -> int:
    with open(args.trace, "r", encoding="utf-8") as handle:
        doc = parse_trace(handle.read())
    divergence, run, schedule = replay_doc(doc)
    if divergence is not None:
        out.write(f"replay diverged at event {divergence}\n")
        return EXIT_VIOLATION
    # `inv` comes first and once: its suite decides before any recorded verdict
    recorded = [spec for spec, _, _ in doc.verdicts if spec != SPEC_INV]
    inv, *others = evaluate_run_specs(run, [SPEC_INV, *recorded])
    if not inv.holds:
        out.write(f"replay obligation failed: {inv.detail}\n")
        return EXIT_VIOLATION
    recomputed = {v.spec: v.holds for v in (inv, *others)}
    for spec, holds, _ in doc.verdicts:
        if recomputed[spec] != holds:
            out.write(f"replay verdict mismatch for {spec}\n")
            return EXIT_VIOLATION
    if doc.level == "concrete":
        # the wire run must project onto its recipient-field twin exactly;
        # the twin is only its final state, so it records no events
        twin = build_execution(run.scenario.with_level("abstract"))
        for entry in schedule:
            twin.advance(entry)
        refinement = check_refinement(run, twin.config.state)
        if not refinement.holds:
            out.write(f"replay refinement mismatch between levels: {refinement.detail}\n")
            return EXIT_VIOLATION
    out.write(f"replay ok: {len(run.events)} events verified\n")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="protolab",
        description="Run, explore and replay symbolic protocol scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scripted scenario")
    run_p.add_argument("scenario")
    run_p.add_argument("--spec", choices=SPEC_CHOICES, default="all")
    run_p.add_argument("--level", choices=("abstract", "concrete"), default=None)
    run_p.add_argument("--trace-out", default=None)
    run_p.add_argument("--no-ghost", action="store_true")

    explore_p = sub.add_parser("explore", help="bounded exhaustive search")
    explore_p.add_argument("scenario")
    explore_p.add_argument("--spec", choices=SPEC_CHOICES, default="all")
    explore_p.add_argument("--max-steps", type=count, default=None)
    explore_p.add_argument("--trace-out", default=None)
    explore_p.add_argument("--no-ghost", action="store_true")

    replay_p = sub.add_parser("replay", help="re-execute and verify a trace")
    replay_p.add_argument("trace")
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "explore": cmd_explore, "replay": cmd_replay}[args.command]
    try:
        return command(args, out)
    except INPUT_ERRORS as exc:
        err.write(f"error: {exc}\n")
        return EXIT_MALFORMED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
