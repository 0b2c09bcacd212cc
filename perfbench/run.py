"""protolab benchmark: time to verdict on four workloads, per-layer spans from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout.  NAME is one of attack-ns,
certify-nsl, scale-nsl, audit-long, or `all` (each workload in a fresh
process, one after another).  A workload process is single-threaded and
runs a closed loop with one client: each cycle calls `protolab.cli.main`
for the workload's operations one after another, and a new cycle starts
only while it is expected to end within S seconds (one always runs).
Every result is checked against a hand-written known answer.

--trace 0 reports the end-to-end metrics.  Their times are wall times
rescaled to a reference machine speed sampled during each operation (see
speed.py); the raw wall times are printed next to them.  --trace 1 runs one
untraced reference cycle, then traced cycles, and reports the per-layer
metrics and the tracing overhead; its spans are written to .perfbench_out/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe, reference_seconds, time_kernel
from tracer import Tracer, median_metrics
from workloads import WORKLOADS, Op, Outcome, Plan, expect_code

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # a run must end within 180 s; an operation still going then fails
SETUP_SAMPLES = 7
SETUP_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); import protolab.cli; print(time.perf_counter())"
_STATES_RE = re.compile(r"^states explored: (\d+)$", re.M)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Session:
    """Runs operations through the CLI entry point and counts attempts and failures."""

    def __init__(self, started: float):
        self.started = started
        self.probe: SpeedProbe | None = None  # rescales timed operations while set
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timed_out = False

    def run(self, op: Op) -> Outcome:
        import protolab.cli  # looked up per call, so the tracer's wrapper is used

        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        code = None
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.5))
        if self.probe is not None:
            self.probe.begin()
        start = time.perf_counter()
        try:
            code = protolab.cli.main(list(op.argv), out=out, err=err)
        except OpTimeout:
            problems.append("timed out")
            self.timed_out = True
        except SystemExit as exc:
            code = exc.code
        except Exception:
            problems.append("raised " + traceback.format_exc(limit=4).replace("\n", " | "))
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = Outcome(code, out.getvalue(), err.getvalue(), seconds, problems)
        if self.probe is not None and op.timed:
            outcome.ref_seconds = self.probe.rescale(seconds)
        self.record(op, outcome, op.expect)
        return outcome

    def record(self, op: Op, outcome: Outcome, expect) -> None:
        self.attempted += 1
        problems = outcome.problems or expect(outcome)
        if problems:
            self.failed += 1
            self.problems += [f"{op.argv[0]} {Path(op.argv[1]).name}: {p}" for p in problems]


@dataclass
class Cycle:
    timed: dict[str, float]  # wall seconds per timed kind (explore, run, replay)
    ref: dict[str, float]  # the same at reference speed, when the speed was sampled
    outcomes: list[Outcome]
    digests: dict[str, str]  # of the files the cycle wrote
    expansions: list[int]  # states explored, per explore


def file_digests(plan: Plan) -> dict[str, str]:
    return {
        f"sha256:{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "missing"
        for p in plan.stable_files
    }


def run_cycle(session: Session, plan: Plan, tracer: Tracer | None = None, index: int = 0) -> Cycle:
    timed: dict[str, float] = {}
    ref: dict[str, float] = {}
    outcomes = []
    for op in plan.ops:
        if tracer is not None:
            tracer.begin_op(index)
        outcome = session.run(op)
        outcomes.append(outcome)
        if op.timed:
            timed[op.timed] = timed.get(op.timed, 0.0) + outcome.seconds
            if outcome.ref_seconds is not None:
                ref[op.timed] = ref.get(op.timed, 0.0) + outcome.ref_seconds
        if session.timed_out:
            break
    expansions = [int(n) for o in outcomes for n in _STATES_RE.findall(o.out)]
    cycle = Cycle(timed, ref, outcomes, file_digests(plan), expansions)
    gc.collect()
    return cycle


def run_cycles(session: Session, plan: Plan, seconds: int, since: float,
               tracer: Tracer | None = None, limit: int | None = None) -> list[Cycle]:
    """Cycles, with the machine speed sampled, while the next one is expected
    to end within `seconds` of `since`; at most `limit` of them."""
    cycles: list[Cycle] = []
    session.probe = SpeedProbe()
    session.probe.start()
    first = time.perf_counter()
    try:
        while True:
            cycles.append(run_cycle(session, plan, tracer, len(cycles)))
            now = time.perf_counter()
            if (session.timed_out or len(cycles) == limit
                    or now - since + (now - first) / len(cycles) > seconds):
                return cycles
    finally:
        session.probe.stop()
        session.probe = None


def agreed_outputs(session: Session, cycles: list[Cycle]) -> dict:
    """Outputs that must repeat exactly in every cycle; returns them."""
    digests = {tuple(sorted(c.digests.items())) for c in cycles}
    expansions = {tuple(c.expansions) for c in cycles}
    if len(digests) > 1:
        session.problems.append("written traces differ between cycles")
    if len(expansions) > 1:
        session.problems.append(f"state counts differ between cycles: {sorted(expansions)}")
    values = dict(cycles[0].digests)
    if cycles[0].expansions:
        values["search.expansions"] = sum(cycles[0].expansions)
    return values


def code_digest() -> str:
    """Digest of everything that decides the outputs: program, inputs, benchmark code."""
    digest = hashlib.sha256()
    for base, pattern in (("src", "*.py"), ("scenarios", "*"), ("tests/golden", "*"), ("perfbench", "*.py")):
        for path in sorted((ROOT / base).rglob(pattern)):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_stable(key: str, values: dict) -> list[str]:
    """Compare deterministic outputs with those earlier runs of the same code
    and input recorded in this checkout, then record any new ones."""
    store_path = OUT / "stable.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(key, {})
    problems = [
        f"{name} is {value}, an earlier run had {known[name]}"
        for name, value in sorted(values.items())
        if name in known and known[name] != value
    ]
    known.update({k: v for k, v in values.items() if k not in known})
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return problems


def negative_self_test(plan: Plan, work: Path, started: float, sample: tuple[Op, Outcome]) -> Session:
    """Feed the checker a trace with one digest byte flipped and a wrong
    expectation; each must count as a failed operation."""
    tally = Session(started)
    text = Path(plan.self_test.argv[1]).read_text(encoding="utf-8")
    at = text.index(" digest=", text.index("\nevent ")) + len(" digest=")
    corrupt = work / "corrupt.trc"
    corrupt.write_text(text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1 :], encoding="utf-8")
    tally.run(Op(["replay", str(corrupt)], plan.self_test.expect))
    op, outcome = sample
    tally.record(op, outcome, lambda o: expect_code(o, 2))  # no operation here legitimately exits 2
    return tally


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until protolab.cli is
    imported: as wall time, and at reference speed from kernel timings taken
    just before and after each launch."""
    walls, refs = [], []
    for _ in range(SETUP_SAMPLES):
        kernels = [time_kernel() for _ in range(5)]
        launched = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        wall = float(done.stdout.split()[-1]) - launched
        kernels += [time_kernel() for _ in range(5)]
        walls.append(wall)
        refs.append(reference_seconds(wall, kernels))
    return walls, refs


def describe(name: str, values: list[float]) -> str:
    return (
        f"{name}: median {statistics.median(values):.4f} s over {len(values)} samples"
        f" (min {min(values):.4f}, max {max(values):.4f})"
    )


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(cycles: list[Cycle], lines: list[str]) -> dict:
    setup = measure_setup()
    for kind in cycles[0].ref:
        lines.append(describe(f"{kind}_s at reference speed", [c.ref[kind] for c in cycles]))
        lines.append(describe(f"{kind}_s wall", [c.timed[kind] for c in cycles]))
    verdicts = [sum(c.ref.values()) for c in cycles]
    lines.append(describe("verdict_s at reference speed", verdicts))
    lines.append(describe("setup_s at reference speed", setup[1]))
    lines.append(describe("setup_s wall", setup[0]))
    return {
        "verdict_s": statistics.median(verdicts),
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(session: Session, plan: Plan, seconds: int, since: float, reference: Cycle,
              lines: list[str], spans_path: Path) -> tuple[dict, dict]:
    """Traced cycles after the untraced reference; returns the per-layer
    metrics and the counters that must repeat across runs."""
    tracer = Tracer()
    tracer.install()
    traced = run_cycles(session, plan, seconds, since, tracer)
    lines.append(f"{len(traced)} traced cycle(s); spans kept in memory until the run ends")
    if tracer.missing:
        lines.append(f"not traced, absent from protolab: {', '.join(tracer.missing)}")
    if session.timed_out:
        return {}, {}
    agreed_outputs(session, [reference] + traced)
    metrics, problems = median_metrics(tracer.summarize())
    session.problems += problems
    for kind in reference.ref:
        diff = statistics.median(c.ref[kind] for c in traced) - reference.ref[kind]
        lines.append(
            f"tracing overhead on {kind}_s: {diff:+.4f} s at reference speed"
            f" (traced minus untraced; {reference.ref[kind]:.4f} s untraced)"
        )
    lines.append("wait time: none; one client, single-threaded, nothing queues")
    metrics["trace_overhead_s"] = (
        statistics.median(sum(c.ref.values()) for c in traced) - sum(reference.ref.values())
    )
    tracer.write(spans_path)
    return metrics, {k: v for k, v in metrics.items() if not k.endswith("_s")}


def measure(session: Session, plan: Plan, work: Path, seconds: int, trace: bool,
            lines: list[str], name: str) -> dict:
    since = time.perf_counter()
    cycles = run_cycles(session, plan, seconds, since, limit=1 if trace else None)
    kind = "untraced reference" if trace else "timed"
    lines.append(f"{len(cycles)} {kind} cycle(s) of {len(plan.ops)} operations")
    if session.timed_out:
        return {}
    stable = agreed_outputs(session, cycles)
    for op in plan.extra_ops:
        session.run(op)
    tally = negative_self_test(plan, work, session.started, (plan.ops[0], cycles[-1].outcomes[0]))
    lines.append(
        f"negative self-test: {tally.failed} of {tally.attempted} deliberately broken"
        f" operations counted failed (fail_ratio {tally.failed}/{tally.attempted})"
    )
    if (tally.attempted, tally.failed) != (2, 2):
        session.problems.append("negative self-test: a broken operation passed as correct")
    if trace:
        metrics, counters = per_layer(session, plan, seconds, since, cycles[0], lines,
                                      OUT / f"spans-{name}.bin")
        stable.update(counters)
    else:
        metrics = end_to_end(cycles, lines)
    if not session.timed_out:
        session.problems += check_stable(f"{name} {plan.input_key} {code_digest()}", stable)
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.perf_counter()
    if not (SRC / "protolab" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no protolab source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import protolab.cli

    if not Path(protolab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported protolab from {protolab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[name].plan(ROOT, work, seed)
    session = Session(started)
    lines = [f"workload {name}, seed {seed}: closed loop, one client, single-threaded"]
    metrics = measure(session, plan, work, seconds, trace, lines, name)

    units = declared_units(trace)
    if not session.timed_out and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    ratio = session.failed / max(session.attempted, 1)
    lines.append(f"fail_ratio: {session.failed}/{session.attempted} = {ratio:.4f}")
    lines += [f"{metric}: {value} {units[metric]}" for metric, value in metrics.items()]
    lines += [f"problem: {p}" for p in session.problems]
    print("\n".join(lines))
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh process; the last line sums them up."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=200)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
