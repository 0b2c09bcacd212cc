"""Behaviour sweep: run a fixed list of `protolab` commands through
`cli.main`, in one process, and print one line per command: its argv, its
exit code, and the SHA-256 of its stdout, of its stderr and of the trace it
wrote (`-`: none).

    python tools/sweep.py > sweep.txt

It imports the package from the `src/` of the checkout it sits in.  The
commands run in a new temporary directory that holds copies of the shipped
scenarios (`scenarios/`), the golden and tampered traces (`golden/`,
`tampered/`) and the scenarios derived from them (`derived/`), and write
their traces to `traces/`.  Every path a line names is relative to that
directory, so the output of two checkouts compares with `diff`: a refactor
that keeps the behaviour keeps every line.

The commands: `run` of every shipped scenario under every spec, both levels
and `--no-ghost`; `explore` of every shipped scenario under every spec, of
the search scenarios at more step bounds and content bounds and with one
intruder invention, and of the multi-session search scenarios the tests
pin; and `replay` of the goldens,
the tampered traces and every trace a command above wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from protolab.cli import main  # noqa: E402  (the checkout's own package)
from protolab.specs import SPEC_CHOICES  # noqa: E402

SEARCH_HEADER = "protolab-scenario v1\nuser A conforms=true\nuser B conforms=true\n"
SEARCH_BOUNDS = (
    "bounds max_steps={} max_content_len=2 max_intruder_invents=0 max_sessions_per_user=4\n"
)

# Multi-session scenarios, at the step bounds the search tests pin: two NSL
# senders at A and one receiver at B, with the intruder; two of each; two
# NSL sessions from A to B with no intruder; and one honest NS pair.  Three
# and four of each, at 14 and 12 steps, have runs of three and four tied
# interchangeable sessions for the node key to order.
INLINE = {
    "two-senders": SEARCH_HEADER
    + "user I conforms=false\n"
    + "role sender user=A variant=nsl\n" * 2
    + "role receiver user=B variant=nsl\n"
    + "intruder search user=I\n"
    + SEARCH_BOUNDS.format(16),
    "two-pairs": SEARCH_HEADER
    + "user I conforms=false\n"
    + "role sender user=A variant=nsl\n" * 2
    + "role receiver user=B variant=nsl\n" * 2
    + "intruder search user=I\n"
    + SEARCH_BOUNDS.format(20),
    "three-pairs": SEARCH_HEADER
    + "user I conforms=false\n"
    + "role sender user=A variant=nsl\n" * 3
    + "role receiver user=B variant=nsl\n" * 3
    + "intruder search user=I\n"
    + SEARCH_BOUNDS.format(14),
    "four-pairs": SEARCH_HEADER
    + "user I conforms=false\n"
    + "role sender user=A variant=nsl\n" * 4
    + "role receiver user=B variant=nsl\n" * 4
    + "intruder search user=I\n"
    + SEARCH_BOUNDS.format(12),
    "cross-talk": SEARCH_HEADER
    + "role sender user=A peer=B variant=nsl\n"
    + "role receiver user=B variant=nsl\n" * 2
    + "role sender user=A peer=B variant=nsl\n"
    + "intruder none\n"
    + SEARCH_BOUNDS.format(22),
    "honest": SEARCH_HEADER
    + "role sender user=A peer=B variant=ns\n"
    + "role receiver user=B variant=ns\n"
    + "intruder none\n"
    + SEARCH_BOUNDS.format(14),
}

# content bounds below, at and past the longest receive pattern (3, NSL's
# message 2)
CONTENT_BOUNDS = (1, 3, 999999999)
SEARCH_STEPS = [str(steps) for steps in range(17)] + ["+14"]  # the last, a usage error


def prepare(work: Path) -> dict[str, list[str]]:
    """Fill `work` with the inputs, and return the names of its scenario
    files by kind: "scripted", "search" (shipped) and "derived"."""
    shutil.copytree(ROOT / "scenarios", work / "scenarios")
    shutil.copytree(ROOT / "tests" / "golden", work / "golden")
    shutil.copytree(ROOT / "tests" / "tampered", work / "tampered")
    (work / "derived").mkdir()
    (work / "traces").mkdir()
    shipped = sorted(f"scenarios/{p.name}" for p in (work / "scenarios").glob("*.scn"))
    search = [s for s in shipped if "intruder search" in (work / s).read_text()]
    derived = []
    for name, text in INLINE.items():
        derived.append(f"derived/{name}.scn")
        (work / derived[-1]).write_text(text)
    for path in search:
        text = (work / path).read_text()
        for bound in CONTENT_BOUNDS:
            derived.append(f"derived/{Path(path).stem}-content{bound}.scn")
            (work / derived[-1]).write_text(
                text.replace("max_content_len=2", f"max_content_len={bound}")
            )
        # one intruder invention, at a step bound that lets the search use it
        derived.append(f"derived/{Path(path).stem}-invents1.scn")
        (work / derived[-1]).write_text(
            text.replace("max_intruder_invents=0", "max_intruder_invents=1").replace(
                "max_steps=14", "max_steps=16"
            )
        )
    return {
        "scripted": [s for s in shipped if s not in search],
        "search": search,
        "derived": derived,
    }


def commands(scenarios: dict[str, list[str]], traces: list[str]) -> list[list[str]]:
    """The argv of every command: a replay of each of `traces`, then the
    runs and explores of `scenarios`.  `sweep` adds a replay of each trace
    these write, after the command that wrote it."""
    argvs = [["replay", trace] for trace in traces]
    argvs += [["run", path] for path in scenarios["search"]]  # exit 2: not scripted
    for path in scenarios["scripted"] + scenarios["search"]:
        stem = Path(path).stem
        for spec in SPEC_CHOICES:
            for level in ("abstract", "concrete") if path in scenarios["scripted"] else ():
                for ghost in ([], ["--no-ghost"]):
                    argvs.append(["run", path, "--spec", spec, "--level", level, *ghost])
                    name = f"traces/run-{stem}-{spec}-{level}{'-noghost' if ghost else ''}.trc"
                    argvs.append(argvs[-1] + ["--trace-out", name])
            for ghost in ([], ["--no-ghost"]):
                name = f"traces/explore-{stem}-{spec}{'-noghost' if ghost else ''}.trc"
                argvs.append(["explore", path, "--spec", spec, *ghost, "--trace-out", name])
    for path in scenarios["search"]:
        stem = Path(path).stem
        for steps in SEARCH_STEPS:
            name = f"traces/explore-{stem}-steps{steps}.trc"
            argvs.append(["explore", path, "--max-steps", steps])
            argvs.append(["explore", path, "--max-steps", steps, "--trace-out", name])
    for path in scenarios["derived"]:
        for spec in ("post-ns", "all"):
            name = f"traces/explore-{Path(path).stem}-{spec}.trc"
            argvs.append(["explore", path, "--spec", spec, "--trace-out", name])
    return argvs


def _digest(data: str | None) -> str:
    return "-" if data is None else hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_one(argv: list[str]) -> tuple[str, str | None]:
    """The line for `argv`, run in the current directory, and the trace it
    wrote (None: none)."""
    trace = argv[argv.index("--trace-out") + 1] if "--trace-out" in argv else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):  # argparse writes usage errors there
        try:
            code = main(argv, out=out, err=err)
        except SystemExit as exc:
            code = exc.code
    written = Path(trace).read_text(encoding="utf-8") if trace and Path(trace).exists() else None
    line = (
        f"{' '.join(argv)} exit={code} out={_digest(out.getvalue())} "
        f"err={_digest(err.getvalue())} trace={_digest(written)}"
    )
    return line, trace if written is not None else None


def sweep(select=None):
    """Yield the line of every command, in a new temporary directory;
    `select`, if given, keeps the argvs for which it is true."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="protolab-sweep-") as tmp:
        work = Path(tmp)
        try:
            os.chdir(work)
            scenarios = prepare(work)
            inputs = sorted(
                f"{folder}/{p.name}"
                for folder in ("golden", "tampered")
                for p in (work / folder).glob("*.trc")
            )
            for argv in commands(scenarios, inputs):
                if select is not None and not select(argv):
                    continue
                line, written = run_one(argv)
                yield line
                if written is not None:
                    yield run_one(["replay", written])[0]
        finally:
            os.chdir(here)


if __name__ == "__main__":
    for line in sweep():
        print(line, flush=True)
