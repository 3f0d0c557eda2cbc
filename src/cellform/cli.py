"""Command-line interface.

Subcommands: validate, efficacy, solve, oracle, bench, export-lp.
Exit codes: 0 success, 1 parse/expectation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from . import bench as benchmod
from .bnb import SubproblemResult, SubproblemStats
from .dinkelbach import remaining, solve as dinkelbach_solve
from .heuristic import SearchConfig, heuristic_solve
from .instances import FormatError, load_instance, validate_instance
from .model import (build_model, decode, export_lp, objective_value,
                    read_assignment)
from .oracle import OracleSizeError, oracle_solve
from .rational import Ratio, parse_ratio
from .solutions import (Regime, check_feasible, efficacy_ratio,
                        parse_solution, report_line, write_solution)

log = logging.getLogger(__name__)


def _add_regime(parser):
    parser.add_argument(
        "--regime", choices=[r.value for r in Regime],
        default="no-residual",
        help="no-residual: every cell needs a machine and a part; "
             "allow-residual: label 0 and one-sided cells permitted")


def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def cmd_validate(args) -> int:
    paths: list[Path] = []
    had_dir = False
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            had_dir = True
            paths.extend(sorted(p.glob("*.cfp")))
        else:
            paths.append(p)
    ok = failed = 0
    for p in paths:
        try:
            inst = load_instance(p)
        except (OSError, FormatError) as exc:
            print(f"{p}: error: {exc}")
            failed += 1
            continue
        rep = validate_instance(inst)
        print(f"{p}: m={inst.m} p={inst.p} n1={inst.n1} "
              f"density={rep.density} (= {rep.density.to_4dp()}) ok")
        for w in rep.warnings:
            print(f"  warning: {w}")
        ok += 1
    if had_dir or len(paths) != 1:
        print(f"{len(paths)} files, {ok} ok, {failed} failed")
    return 1 if failed else 0


def cmd_efficacy(args) -> int:
    inst = load_instance(args.instance)
    sol = parse_solution(Path(args.solution).read_text(), inst)
    print(report_line(inst, sol))
    for regime in Regime:
        feasible, violations = check_feasible(inst, sol, regime)
        verdict = "feasible" if feasible else \
            "infeasible (" + "; ".join(violations) + ")"
        print(f"{regime.value}: {verdict}")
    return 0


def _solve_report(inst, out, seed_ms: int, seed_nodes: int) -> str:
    """time_ms and nodes are the exact rounds' wall time and nodes, seed_ms
    and seed_nodes the heuristic seed's (0 for a given ratio)."""
    sol = out.solution
    raw = efficacy_ratio(inst.n1, sol.n1_in, sol.n0_in)
    return (f"status={out.status.value} efficacy={raw} ({raw.to_4dp()}) "
            f"cells={sol.c} iters={out.iterations} nodes={out.nodes} "
            f"time_ms={out.time_ms} seed_ms={seed_ms} seed_nodes={seed_nodes}")


def _lp_subsolver(lp_dir: Path, stem: str):
    """Manual loop: write one .lp per round, wait for a `name value`
    assignment file next to it, read the point back as the round's
    answer. An improving answer need only beat incumbent_F, but one at
    F = 0 is taken as the proof, so it must be a true maximum. An answer
    below incumbent_F raises RuntimeError."""
    counter = {"round": 0}

    def run(inst, lam, regime, incumbent_F, time_limit, node_limit
            ) -> SubproblemResult:
        counter["round"] += 1
        tag = f"{stem}.iter{counter['round']}"
        model = build_model(inst, lam, regime)
        lp_path = lp_dir / f"{tag}.lp"
        lp_path.write_text(export_lp(model))
        want = lp_dir / f"{tag}.assign"
        print(f"wrote {lp_path}", file=sys.stderr)
        print(f"solve it with an external solver, save variable values to "
              f"{want} (one 'name value' per line), then press Enter",
              file=sys.stderr)
        while True:
            try:
                input()
            except EOFError:
                raise RuntimeError(
                    f"no assignment supplied for {want}") from None
            if want.exists():
                break
            print(f"still waiting for {want}", file=sys.stderr)
        assign = read_assignment(want.read_text(), inst)
        sol = decode(inst, assign, regime)
        F = objective_value(model, assign)
        if incumbent_F is not None and F < incumbent_F:
            raise RuntimeError(f"{want} has F={F}, below the incumbent's "
                               f"{incumbent_F}")
        return SubproblemResult(F, sol, False, SubproblemStats())

    return run


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    t0 = time.monotonic()  # --time-limit covers the seed and the proof
    regime = Regime(args.regime)
    out_path = Path(args.output) if args.output else \
        Path(args.instance).with_suffix(".sol")

    seed_solution = None
    seed_lambda = None
    seed_ms = seed_nodes = 0
    if args.seed_lambda == "heuristic":
        # the seed's tree is the solve's first search: it may use both
        # whole budgets, and the exact rounds get what it left of them
        seed_solution = heuristic_solve(inst, SearchConfig(
            regime=regime, restarts=args.restarts,
            time_budget=remaining(args.time_limit, t0), rng_seed=args.seed,
            node_limit=args.node_limit))
        seed_ms = int(round((time.monotonic() - t0) * 1000))
        seed_nodes = seed_solution.tree_nodes
    elif args.seed_lambda == "zero":
        seed_lambda = Ratio(0, 1)
    else:
        seed_lambda = parse_ratio(args.seed_lambda)

    subsolver = None
    if args.backend == "lp-export":
        lp_dir = Path(args.lp_dir) if args.lp_dir else out_path.parent
        lp_dir.mkdir(parents=True, exist_ok=True)
        subsolver = _lp_subsolver(lp_dir, Path(args.instance).stem)

    out = dinkelbach_solve(
        inst, regime, seed_lambda=seed_lambda, seed_solution=seed_solution,
        subsolver=subsolver,
        time_limit=remaining(args.time_limit, t0),
        node_limit=None if args.node_limit is None
        else args.node_limit - seed_nodes)

    out_path.write_text(write_solution(out.solution))
    print(f"wrote {out_path}", file=sys.stderr)
    report = _solve_report(inst, out, seed_ms, seed_nodes)
    print(report)

    # the written file must reproduce the reported numbers exactly
    reread = parse_solution(out_path.read_text(), inst)
    feasible, violations = check_feasible(inst, reread, regime)
    raw = efficacy_ratio(inst.n1, reread.n1_in, reread.n0_in)
    if not feasible or f"efficacy={raw} " not in report:
        print("error: written solution fails re-verification: "
              + "; ".join(violations), file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    regime = Regime(args.regime)
    try:
        sol = oracle_solve(inst, regime)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report_line(inst, sol))
    if args.output:
        Path(args.output).write_text(write_solution(sol))
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    entries = benchmod.read_manifest(args.manifest)
    rows = benchmod.run_bench(entries, time_limit=args.time_limit,
                              restarts=args.restarts)
    print(benchmod.format_text(rows))
    if args.csv:
        Path(args.csv).write_text(benchmod.format_csv(rows))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 1 if benchmod.failed(rows) else 0


def cmd_export_lp(args) -> int:
    inst = load_instance(args.instance)
    regime = Regime(args.regime)
    lam = parse_ratio(args.lam)
    model = build_model(inst, lam, regime)
    out_path = Path(args.output) if args.output else \
        Path(args.instance).with_suffix(".lp")
    out_path.write_text(export_lp(model))
    print(f"wrote {out_path} ({len(model.var_names)} variables, "
          f"{len(model.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellform",
        description="Exact cell formation solver maximizing grouping efficacy")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-iteration progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and sanity-check instance files")
    p.add_argument("paths", nargs="+",
                   help=".cfp files or directories of them")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("efficacy",
                       help="efficacy and feasibility of a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_efficacy)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("instance")
    _add_regime(p)
    p.add_argument("--seed-lambda", default="heuristic",
                   help="starting ratio: 'heuristic', 'zero', a rational "
                        "like 15/24, or a decimal like 0.6957")
    p.add_argument("--time-limit", type=seconds, default=None, metavar="SEC",
                   help="wall-clock budget of the heuristic seed and the "
                        "exact rounds together")
    p.add_argument("--node-limit", type=count, default=None, metavar="N",
                   help="node budget of the heuristic seed's search and "
                        "the exact rounds together")
    p.add_argument("--backend", choices=("internal", "lp-export"),
                   default="internal",
                   help="lp-export writes one .lp per iteration and waits "
                        "for an externally produced assignment file")
    p.add_argument("--lp-dir", default=None,
                   help="directory for lp-export round files")
    p.add_argument("-o", "--output", default=None,
                   help="solution file path (default: instance with .sol)")
    p.add_argument("--restarts", type=count, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="heuristic rng seed")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle",
                       help="exact optimum by enumerating machine partitions, "
                            "up to 8 machines x 48 parts")
    p.add_argument("instance")
    _add_regime(p)
    p.add_argument("-o", "--output", default=None,
                   help="also write the optimal solution file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a benchmark manifest")
    p.add_argument("manifest")
    p.add_argument("--time-limit", type=seconds, default=60.0, metavar="SEC",
                   help="per-instance budget, heuristic seed included "
                        "(default 60)")
    p.add_argument("--restarts", type=count, default=8)
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write results as CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the 0-1 model as an .lp file")
    p.add_argument("instance")
    _add_regime(p)
    p.add_argument("--lambda", dest="lam", default="0",
                   help="ratio, e.g. 15/24 or 0.625 (default 0)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_lp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, format="%(message)s",
        level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (OSError, FormatError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
