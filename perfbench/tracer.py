"""Spans around protolab's layer functions, recorded from outside the program.

A protolab module imports the functions it calls by name, so a call goes
through the caller's own global binding.  `Tracer.install` therefore
replaces *every* binding of each traced function object in every loaded
protolab module, not just the one in the defining module.

Each span stores its name, start, end, parent span and operation id in
flat arrays (about 26 bytes a span: the delivery filter alone is called
hundreds of thousands of times in one search).  Spans stay in memory until
`write` dumps them at the end of the run.  A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# Layer functions whose calls become spans, by protolab module.
TRACED = {
    "cli": ("main",),
    "scenario": ("load_scenario",),
    "search": ("explore", "_node_key"),
    "intruder": ("legal_moves", "closure", "apply_move"),
    "roles": ("kinds_match", "can_fire", "step"),
    "model": ("state_key",),
    "invariants": ("dyn_inv", "unique_nonces", "no_read_others", "inv_sigma", "no_app_leaks"),
    "specs": ("check_post_ns_all", "check_nsl_ft_all", "check_lemma_suite", "evaluate_run_specs"),
    "runner": ("execute_scripted", "execute_schedule", "replay_doc"),
    "trace": ("node_digest", "render_trace", "parse_trace"),
    "crypto": ("abstract_of",),
}

# Spans reported as `<name>.calls` and `<name>.self_s`.
REPORTED_SPANS = (
    "intruder.legal_moves", "intruder.closure",
    "roles.kinds_match", "roles.can_fire", "roles.step",
    "search.explore", "search._node_key",
    "model.state_key",
    "invariants.dyn_inv", "invariants.unique_nonces", "invariants.no_read_others",
    "invariants.inv_sigma", "invariants.no_app_leaks",
    "specs.check_post_ns_all", "specs.check_nsl_ft_all",
    "specs.check_lemma_suite", "specs.evaluate_run_specs",
    "runner.execute_scripted", "runner.execute_schedule", "runner.replay_doc",
    "trace.node_digest", "trace.render_trace", "trace.parse_trace",
    "crypto.abstract_of",
    "scenario.load_scenario",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        # op id -> cycle index, and per-op values seen by result hooks
        self.op_cycle: dict[int, int] = {}
        self.moves_generated: dict[int, int] = {}
        self.expansions: dict[int, int] = {}
        self.events: dict[int, int] = {}
        self.node_keys: dict[int, set] = {}
        self.missing: list[str] = []  # traced names the program no longer defines

    def begin_op(self, cycle: int) -> None:
        self.op_id += 1
        self.op_cycle[self.op_id] = cycle

    def _wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op, start, end, stack = (
            self.name_id, self.parent, self.op, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _add(self, table: dict, value: int) -> None:
        table[self.op_id] = table.get(self.op_id, 0) + value

    def install(self) -> None:
        """Replace every binding of the traced functions in loaded protolab modules."""
        hooks = {
            "intruder.legal_moves": lambda moves: self._add(self.moves_generated, len(moves)),
            "search.explore": lambda verdict: self._add(self.expansions, verdict.states),
            "search._node_key": lambda key: self.node_keys.setdefault(self.op_id, set()).add(key),
            "runner.execute_scripted": lambda run: self._add(self.events, len(run.events)),
            "runner.execute_schedule": lambda run: self._add(self.events, len(run.events)),
        }
        modules = [m for n, m in sys.modules.items() if n == "protolab" or n.startswith("protolab.")]
        for mod_name, fn_names in TRACED.items():
            defining = sys.modules.get(f"protolab.{mod_name}")
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(defining, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    bound = [attr for attr, value in vars(module).items() if value is original]
                    for attr in bound:
                        setattr(module, attr, wrapper)

    def summarize(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each traced cycle: cycle index -> name -> value."""
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        explore_id = self.names.index("search.explore") if "search.explore" in self.names else -1
        apply_id = self.names.index("intruder.apply_move") if "intruder.apply_move" in self.names else -1
        cycles: dict[int, dict[str, float]] = {}
        for c in set(self.op_cycle.values()):
            metrics = {}
            for name in REPORTED_SPANS:
                metrics[f"{name}.calls"] = 0
                metrics[f"{name}.self_s"] = 0.0
            metrics["intruder.moves_delivered"] = 0
            cycles[c] = metrics
        reported = set(REPORTED_SPANS)
        names, name_id, parent, op_cycle = self.names, self.name_id, self.parent, self.op_cycle
        for i in range(n):
            metrics = cycles[op_cycle[self.op[i]]]
            name = names[name_id[i]]
            if name in reported:
                metrics[f"{name}.calls"] += 1
                metrics[f"{name}.self_s"] += dur[i] - child[i]
            # a move the search delivered is one it applied
            if name_id[i] == apply_id and parent[i] >= 0 and name_id[parent[i]] == explore_id:
                metrics["intruder.moves_delivered"] += 1
        for c, metrics in cycles.items():
            ops = [o for o, oc in op_cycle.items() if oc == c]
            expansions = sum(self.expansions.get(o, 0) for o in ops)
            distinct = len(set().union(*(self.node_keys.get(o, set()) for o in ops)))
            generated = sum(self.moves_generated.get(o, 0) for o in ops)
            metrics["search.expansions"] = expansions
            metrics["search.distinct_states"] = distinct
            metrics["search.reexpansion_ratio"] = expansions / distinct if distinct else 0.0
            metrics["intruder.moves_generated"] = generated
            metrics["intruder.delivery_ratio"] = (
                metrics["intruder.moves_delivered"] / generated if generated else 0.0
            )
            metrics["runner.events"] = sum(self.events.get(o, 0) for o in ops)
        return cycles

    def write(self, path) -> None:
        """Dump the spans: one JSON header line, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "op_cycle": {str(k): v for k, v in self.op_cycle.items()},
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.op, self.start, self.end):
                arr.tofile(handle)


def median_metrics(cycles: dict[int, dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced cycles; counts must agree exactly.
    Returns the metrics and a list of determinism problems."""
    values = list(cycles.values())
    problems = []
    out = {}
    for name in values[0]:
        column = [v[name] for v in values]
        if name.endswith("_s"):
            out[name] = statistics.median(column)
        else:
            if len(set(column)) > 1:
                problems.append(f"{name} differs between traced cycles: {column}")
            out[name] = column[0]
    return out, problems
