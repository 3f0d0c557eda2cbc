#!/usr/bin/env python3
"""cellform benchmark: wall time from an instance file to a re-verified
optimal .sol, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

One client runs a closed loop: the next op starts when the last one has
ended. Each op takes the steps `cellform solve` takes: load the .cfp, seed
(multi-start heuristic or the planted grouping), run the Dinkelbach loop,
write the .sol, re-read it and check it. The benchmark times the op with
time.perf_counter(). Inputs are generated from --seed (see workloads.py);
the solver is imported from ./src, so no install step is needed.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same op
sequence twice, untraced then traced, each for half of --seconds (the
traced half always completes the workload's count window), and reports the
per-layer breakdown. Metric names and units come from BENCHMARK.json; see
DESIGN.md for what each should move.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every op verified, 1
when an op or the set-up check failed, 2 when the benchmark cannot run
here (no ./src/cellform, no bundled A2 instance). Each run also writes
.perfbench-out/result-<workload>-s<seed>-t<trace>.json (environment, notes,
every op) and, when traced, the spans next to it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer, breakdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
A2 = ROOT / "data" / "testset_a" / "A2.cfp"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 3
HEURISTIC_RESTARTS = 8


class BenchError(RuntimeError):
    """The run cannot give a valid result: the set-up check failed, the
    references are stale, or BENCHMARK.json lists other metrics."""


@dataclass
class OpResult:
    index: int          # position in the run's op sequence
    pool_index: int     # position in the workload's op pool
    row: str
    regime: str
    seconds: float
    status: str = ""
    efficacy: float = 0.0
    ratio: str = ""     # exact efficacy in lowest terms
    nodes: int = 0
    rounds: int = 0
    error: str = ""


def load_cellform():
    """Import cellform from this checkout's src/, never from elsewhere."""
    if not (SRC / "cellform" / "__init__.py").is_file() or not A2.is_file():
        print(f"error: {ROOT} holds no src/cellform package and bundled A2 "
              "instance; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cellform

    if Path(cellform.__file__).resolve().parent != SRC / "cellform":
        print(f"error: imported cellform from {cellform.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return cellform


def solve_file(cf, cfp: Path, sol_path: Path, regime, make_seed,
               node_limit: int | None, subsolver=None):
    """One op, as `cellform solve` runs it. Returns (seconds, seed, outcome,
    re-read solution, feasible, violations). Every layer is looked up on the
    cellform package at call time, so the tracer can stand in for it."""
    extra = {"subsolver": subsolver} if subsolver is not None else {}
    t0 = perf_counter()
    inst = cf.load_instance(cfp)
    seed = make_seed(inst)
    out = cf.solve(inst, regime, seed_solution=seed, node_limit=node_limit,
                   **extra)
    sol_path.write_text(cf.write_solution(out.solution))
    reread = cf.parse_solution(sol_path.read_text(), inst)
    feasible, violations = cf.check_feasible(inst, reread, regime)
    return perf_counter() - t0, seed, out, reread, feasible, violations


def verify(cf, seed, out, reread, feasible, violations, node_limit,
           reference) -> str:
    """The correctness gate of one op; an empty string means it passed."""
    if not feasible:
        return "written solution is infeasible: " + "; ".join(violations)
    if (reread.n1_in, reread.n0_in) != (out.solution.n1_in, out.solution.n0_in):
        return "written solution does not re-verify to the reported counts"
    if out.solution.efficacy < seed.efficacy:
        return f"result {out.solution.efficacy} is worse than its seed {seed.efficacy}"
    if node_limit is None and out.status is not cf.SolveStatus.OPTIMAL:
        return f"status {out.status.value} without a budget"
    if (reference is not None and out.status is cf.SolveStatus.OPTIMAL
            and out.solution.efficacy != reference):
        return f"optimum {out.solution.efficacy} misses reference {reference}"
    return ""


class Bench:
    def __init__(self, cf, workload, seed: int, workdir: Path):
        self.cf = cf
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops = []
        self.references: dict[int, object] = {}
        self.notes: list[str] = []

    # -- set-up ----------------------------------------------------------

    def set_up(self, ops_of) -> list[float]:
        """Generate and write the op pool, then warm up on A2 in both
        regimes against the oracle. Repeated; returns each repeat's time."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.ops = ops_of(self.workload, self.seed)
            for op in self.ops:
                (self.workdir / f"{op.planted.instance.name}.cfp").write_text(
                    self.cf.write_instance(op.planted.instance))
            self._warm_up()
            times.append(perf_counter() - t0)
        return times

    def _warm_up(self) -> None:
        cf = self.cf
        inst = cf.load_instance(A2)
        for regime in (cf.Regime.NO_RESIDUAL, cf.Regime.ALLOW_RESIDUAL):
            cfg = cf.SearchConfig(regime=regime)
            _, seed, out, reread, ok, violations = solve_file(
                cf, A2, self.workdir / f"A2.{regime.value}.sol", regime,
                lambda i, cfg=cfg: cf.heuristic_solve(i, cfg), None)
            want = cf.oracle_solve(inst, regime).efficacy
            error = verify(cf, seed, out, reread, ok, violations, None, want)
            if error:
                raise BenchError(f"A2 {regime.value}: {error}")

    def load_references(self) -> None:
        w = self.workload
        if w.node_limit is not None:
            self.notes.append("no reference optima: every op is budgeted")
            return
        try:
            refs = json.loads(REFERENCES.read_text())
        except FileNotFoundError:
            refs = {}
        entry = refs.get("workloads", {}).get(w.name)
        if refs.get("seed") != self.seed or entry is None:
            self.notes.append(
                f"seed {self.seed} has no recorded reference optima; ran the "
                "checks that need none (feasible, re-verified, not worse than "
                "the seed, proven)")
            return
        if entry["rows"] != [r.label for r in w.rows] or entry["pool"] != w.pool_size:
            raise BenchError(f"{REFERENCES.name} was made for other "
                             f"{w.name} rows; regenerate it")
        self.references = {int(k): self.cf.parse_ratio(v)
                           for k, v in entry["optima"].items()}
        self.notes.append(f"checked Optimal ops against {len(self.references)} "
                          f"reference optima of seed {self.seed}")

    # -- ops -------------------------------------------------------------

    def run_op(self, index: int, subsolver=None) -> OpResult:
        cf, w = self.cf, self.workload
        pool_index = index % len(self.ops)
        op = self.ops[pool_index]
        planted, regime = op.planted, op.regime
        if w.seed_by == "heuristic":
            cfg = cf.SearchConfig(regime=regime, restarts=HEURISTIC_RESTARTS,
                                  rng_seed=planted.gen_seed)

            def make_seed(inst):
                return cf.heuristic_solve(inst, cfg)
        else:
            def make_seed(inst):
                return cf.fit_parts(inst, list(planted.machine_cell), regime)

        name = planted.instance.name
        res = OpResult(index, pool_index, planted.row.label, regime.value, 0.0)
        t0 = perf_counter()
        try:
            seconds, seed, out, reread, ok, violations = solve_file(
                cf, self.workdir / f"{name}.cfp",
                self.workdir / f"{name}.{regime.value}.sol",
                regime, make_seed, w.node_limit, subsolver)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            res.seconds = perf_counter() - t0
            res.error = f"raised {type(exc).__name__}: {exc}"
            return res
        res.seconds = seconds
        res.status = out.status.value
        res.efficacy = float(out.solution.efficacy)
        res.ratio = str(out.solution.efficacy)
        res.nodes = out.nodes
        res.rounds = out.iterations
        res.error = verify(cf, seed, out, reread, ok, violations, w.node_limit,
                           self.references.get(pool_index))
        if res.error:
            print(f"error: op {index} ({name}, {regime.value}): {res.error}",
                  file=sys.stderr)
        return res

    def closed_loop(self, seconds: float, min_ops: int = 1, tracer=None
                    ) -> tuple[list[OpResult], float]:
        results: list[OpResult] = []
        start = perf_counter()
        while len(results) < min_ops or perf_counter() - start < seconds:
            i = len(results)
            if tracer is None:
                results.append(self.run_op(i))
            else:
                with tracer.op(i):
                    results.append(self.run_op(i, tracer.subsolver))
        return results, perf_counter() - start


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(bench: Bench, results: list[OpResult], elapsed: float,
               setup_s: float) -> dict[str, float]:
    w = bench.workload
    times = [r.seconds for r in results]
    good = [r for r in results if not r.error]
    tail = percentile(times, w.tail_pct)
    beyond = sum(1 for t in times if t > tail)
    bench.notes.append(f"solve_s.tail is p{w.tail_pct} of {len(times)} ops "
                       f"({beyond} beyond it)")
    if beyond < 10:
        bench.notes.append(f"warning: fewer than 10 ops beyond p{w.tail_pct}")
    return {
        "solves_per_min": 60.0 * len(good) / elapsed,
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": tail,
        "mean_efficacy": statistics.fmean(r.efficacy for r in good) if good else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def outcome_ratios(results: list[OpResult]) -> dict[str, float]:
    """Ops ending Optimal, and ops that failed, each over ops attempted."""
    n = len(results)
    return {"proven_ratio": sum(1 for r in results
                                if r.status == "Optimal" and not r.error) / n,
            "failed_ratio": sum(1 for r in results if r.error) / n}


def environment(cf) -> dict[str, str]:
    a2 = cf.load_instance(A2)
    engine = cf.solve_subproblem(a2, cf.Ratio(1, 2), cf.Regime.NO_RESIDUAL).stats.engine
    env = {"python": platform.python_version(), "nproc": str(os.cpu_count()),
           "engine": engine, "cellform": cf.__version__}
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            env[dist] = "absent"
    return env


def measure_per_layer(bench: Bench, seconds: float, tag: str
                      ) -> tuple[list[OpResult], dict[str, float]]:
    """Untraced, then traced, over the same op sequence from op 0."""
    count_ops = bench.workload.count_ops
    untraced, _ = bench.closed_loop(seconds / 2)
    tracer = Tracer(bench.cf)
    tracer.install()
    try:
        traced, _ = bench.closed_loop(seconds / 2, count_ops, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    metrics = breakdown(tracer.spans, count_ops)
    n = min(len(untraced), len(traced))
    metrics["trace.overhead"] = (sum(r.seconds for r in untraced[:n])
                                 / sum(r.seconds for r in traced[:n]))
    results = untraced + traced
    metrics["outcome.proven_ratio"] = outcome_ratios(traced[:count_ops])["proven_ratio"]
    metrics["outcome.failed_ratio"] = outcome_ratios(results)["failed_ratio"]
    return results, metrics


def run_workload(cf, workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    from workloads import ops_of

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    kind = "per_layer" if trace else "end_to_end"
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        bench = Bench(cf, workload, seed, Path(tmp))
        setup_s = statistics.median(bench.set_up(ops_of))
        bench.load_references()
        env = environment(cf)
        if trace:
            results, metrics = measure_per_layer(bench, seconds, tag)
            shown = {}
        else:
            results, elapsed = bench.closed_loop(seconds)
            metrics = end_to_end(bench, results, elapsed, setup_s)
            shown = outcome_ratios(results)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"computed metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {kind} {sorted(units)}")
    failed = sum(1 for r in results if r.error)
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(results)} ops, {failed} failed")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in bench.notes:
        print(f"note: {note}")
    for name, value in shown.items():
        print(f"  {name:28s} {value:.6g} ratio")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = dict(result, workload=workload.name, seed=seed, trace=int(trace),
                  environment=env, notes=bench.notes,
                  ops=[r.__dict__ for r in results])
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cf = load_cellform()
    from workloads import WORKLOADS  # imports cellform, so only after the above

    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    any_failed = False
    for name in names:
        try:
            result = run_workload(cf, WORKLOADS[name], args.seed, seconds,
                                  bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        any_failed |= result["failed"] > 0
        print(json.dumps(result), flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
