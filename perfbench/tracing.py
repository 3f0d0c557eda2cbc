"""Spans around cellform's public entry points, recorded from outside.

The tracer swaps a timing wrapper in for each entry point the solve path
calls, keeps every span in memory as [name, start, end, parent, op, extra]
and turns them into per-layer self times once the run ends. extra holds
the SubproblemStats counts of a bnb.subproblem span, and for a fit_parts
call that names the ratio to beat, whether it beat it. A span's layer is
the part of its name before the first dot; "harness.op" is the benchmark's
own remainder around the layer calls.

Wrapped, and where the caller looks them up:
  cellform.load_instance              instances.load
  cellform.heuristic_solve            heuristic.solve
  cellform.fit_parts, heuristic.fit_parts
                                      heuristic.fit_parts (_climb's lookup)
  cellform.solve                      dinkelbach.solve
  the subsolver hook of solve         bnb.subproblem (reads SubproblemStats)
  bnb.optimal_parts                   bnb.leaf, only directly under a
                                      bnb.subproblem span; the heuristic's
                                      own calls get no span of their own
  cellform.write_solution, parse_solution, check_feasible
                                      solutions.write/parse/check
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, EXTRA = range(6)

LAYERS = ("instances", "heuristic", "dinkelbach", "bnb", "solutions", "harness")


class Tracer:
    def __init__(self, cf):
        self.cf = cf
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int):
        self._op = index
        idx = self._open("harness.op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_fit_parts(self, fn):
        def traced(inst, machine_cell, regime, lam=None):
            idx = self._open("heuristic.fit_parts")
            try:
                sol = fn(inst, machine_cell, regime, lam)
            finally:
                self._close(idx)
            # a candidate move is a call that names the ratio to beat
            if lam is not None:
                self.spans[idx][EXTRA] = sol.efficacy > lam
            return sol
        return traced

    def _wrap_leaf(self, fn):
        timed = self._wrap("bnb.leaf", fn)

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][NAME] == "bnb.subproblem":
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)
        return traced

    def subsolver(self, inst, lam, regime, incumbent_F, time_limit, node_limit):
        """The hook dinkelbach.solve calls once per round."""
        idx = self._open("bnb.subproblem")
        try:
            res = self.cf.solve_subproblem(
                inst, lam, regime, incumbent_F=incumbent_F,
                time_limit=time_limit, node_limit=node_limit)
        finally:
            self._close(idx)
        st = res.stats
        self.spans[idx][EXTRA] = {
            "nodes": st.nodes, "leaves": st.leaves,
            "pruned_bound": st.pruned_bound, "pruned_void": st.pruned_void,
            "max_depth": st.max_depth, "truncated": bool(res.truncated),
            "engine": st.engine}
        return res

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        cf = self.cf
        heuristic = importlib.import_module("cellform.heuristic")
        bnb = importlib.import_module("cellform.bnb")
        for attr, name in (("load_instance", "instances.load"),
                           ("heuristic_solve", "heuristic.solve"),
                           ("solve", "dinkelbach.solve"),
                           ("write_solution", "solutions.write"),
                           ("parse_solution", "solutions.parse"),
                           ("check_feasible", "solutions.check")):
            self._patch(cf, attr, self._wrap(name, getattr(cf, attr)))
        fit = self._wrap_fit_parts(heuristic.fit_parts)
        self._patch(cf, "fit_parts", fit)
        self._patch(heuristic, "fit_parts", fit)
        self._patch(bnb, "optimal_parts", self._wrap_leaf(bnb.optimal_parts))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START]) - child[i] for i, s in enumerate(spans)]


def breakdown(spans, count_ops: int) -> dict[str, float]:
    """Per-layer metrics. Times are per-op means over every traced op;
    counts are per-op means over the first count_ops ops, which every
    traced run completes, so they repeat exactly for a seed."""
    selfs = self_times(spans)
    n = sum(1 for s in spans if s[NAME] == "harness.op")
    counted = set(range(count_ops))
    layer_s = dict.fromkeys(LAYERS, 0.0)
    total = {}
    for s, t in zip(spans, selfs):
        layer_s[s[NAME].split(".", 1)[0]] += t
        total[s[NAME]] = total.get(s[NAME], 0.0) + (s[END] - s[START])
    op_s = total["harness.op"]

    fit = [s for s in spans if s[NAME] == "heuristic.fit_parts"]
    candidates = [s[EXTRA] for s in fit if s[OP] in counted and s[EXTRA] is not None]
    rounds = [s for s in spans
              if s[NAME] == "bnb.subproblem" and s[EXTRA] is not None]
    counted_rounds = [s[EXTRA] for s in rounds if s[OP] in counted]

    def per_op(key):
        return sum(r[key] for r in counted_rounds) / count_ops

    nodes = sum(r["nodes"] for r in counted_rounds)
    pruned = sum(r["pruned_bound"] + r["pruned_void"] for r in counted_rounds)
    all_nodes = sum(s[EXTRA]["nodes"] for s in rounds)
    return {
        "instances.parse_s": layer_s["instances"] / n,
        "heuristic.seed_s": layer_s["heuristic"] / n,
        "heuristic.share": layer_s["heuristic"] / op_s,
        "heuristic.fit_parts_calls":
            sum(1 for s in fit if s[OP] in counted) / count_ops,
        "heuristic.fit_parts_us":
            1e6 * total.get("heuristic.fit_parts", 0.0) / max(len(fit), 1),
        "heuristic.improving_ratio":
            sum(candidates) / len(candidates) if candidates else 0.0,
        "dinkelbach.rounds": len(counted_rounds) / count_ops,
        "dinkelbach.self_s": layer_s["dinkelbach"] / n,
        "bnb.nodes": nodes / count_ops,
        "bnb.max_depth": max((r["max_depth"] for r in counted_rounds), default=0),
        "bnb.nodes_per_s": all_nodes / total.get("bnb.subproblem", 1.0),
        "bnb.subproblem_s": total.get("bnb.subproblem", 0.0) / n,
        "bnb.truncated_rounds": per_op("truncated"),
        "bnb.leaves": per_op("leaves"),
        "bnb.leaf_eval_s": total.get("bnb.leaf", 0.0) / n,
        "bnb.pruned_bound": per_op("pruned_bound"),
        "bnb.pruned_void": per_op("pruned_void"),
        "bnb.prune_ratio": pruned / nodes if nodes else 0.0,
        "bnb.share": layer_s["bnb"] / op_s,
        "solutions.verify_s": layer_s["solutions"] / n,
        "harness.self_s": layer_s["harness"] / n,
        "trace.op_s": op_s / n,
    }
