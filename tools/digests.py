"""Digest the results of a benchmark workload's first ops, to check that a
change to the solver leaves its output and its search counts as they were.

Each op runs the pipeline the benchmark times (perfbench/run.py): the
instance through the .cfp text, the workload's seed (the heuristic at 8
restarts seeded with the generator seed, or the planted grouping fitted
with its best parts), then the solve under the workload's node budget and
the .sol text. The ops are perfbench/workloads.ops_of's pool, in order.

One sha256 covers every op's status, exact efficacy and groupings, the
seed tree's nodes, the solve's nodes and rounds, each round's nodes,
entered nodes, leaves and prunes, and the .sol text. The totals are
printed with it.

Usage: python tools/digests.py --workload W [--seed S] [--ops N]
(run from anywhere; the solver is imported from this checkout's src/)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cellform as cf  # noqa: E402
from workloads import WORKLOADS, ops_of  # noqa: E402

RESTARTS = 8  # the heuristic seed's restarts, as perfbench/run.py runs it
TOTALS = ("seed_nodes", "nodes", "rounds", "entered", "leaves", "pruned")


def run_op(workload, op) -> tuple[str, dict[str, int]]:
    """One op's digest text and its counts."""
    planted, regime = op.planted, op.regime
    inst = cf.parse_instance(cf.write_instance(planted.instance),
                             planted.instance.name)
    if workload.seed_by == "heuristic":
        seed = cf.heuristic_solve(inst, cf.SearchConfig(
            regime=regime, restarts=RESTARTS, rng_seed=planted.gen_seed))
    else:
        seed = cf.fit_parts(inst, list(planted.machine_cell), regime)
    out = cf.solve(inst, regime, seed_solution=seed,
                   node_limit=workload.node_limit)
    sol = out.solution
    rounds = [(r.nodes, r.entered, r.leaves, r.pruned) for r in out.history]
    text = (f"{out.status.value} {sol.efficacy} {sol.machine_cell} "
            f"{sol.part_cell} {seed.tree_nodes} {out.nodes} "
            f"{out.iterations} {rounds}\n{cf.write_solution(sol)}\n")
    counts = {"seed_nodes": seed.tree_nodes, "nodes": out.nodes,
              "rounds": out.iterations,
              "entered": sum(r[1] for r in rounds),
              "leaves": sum(r[2] for r in rounds),
              "pruned": sum(r[3] for r in rounds)}
    return text, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="the first N ops of the pool (default: all)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed < 0 or args.ops is not None and args.ops < 1:
        parser.error("--seed must be >= 0 and --ops >= 1")
    ops = ops_of(workload, args.seed)[:args.ops]
    digest = hashlib.sha256()
    totals = dict.fromkeys(TOTALS, 0)
    for op in ops:
        text, counts = run_op(workload, op)
        digest.update(text.encode())
        for name, n in counts.items():
            totals[name] += n
    print(f"{workload.name} seed {args.seed}: {len(ops)} ops")
    print("  ".join(f"{name} {totals[name]}" for name in TOTALS))
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
