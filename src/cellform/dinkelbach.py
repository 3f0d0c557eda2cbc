"""Parametric outer loop: exact efficacy maximization via repeated subproblems.

Each round looks for a grouping with F(lambda) = q*n1_in - p*(n0_in + n1)
> 0 at the current ratio lambda = p/q. Once an incumbent exists its value 0
is the baseline, and the first grouping found with F > 0 is enough to raise
lambda strictly (Dinkelbach 1967). The loop polishes every grouping a round
returns with the heuristic climb, under what is left of the time limit, and
the polished grouping's efficacy (kept as the unreduced pair straight from
the counts) becomes the next lambda.

By default a solve grows one bnb.Tree. A round without an incumbent (no
seed, or a bare seed ratio) is a fresh full search for the maximum; from
the first round with an incumbent on, every round resumes that one
depth-first search at the raised lambda instead of restarting it from the
root. A resumed round without a node budget first tries to finish the
search depth by depth, one stacked bound call per depth, with the same
node counts (see the bnb module); the round that proves the last lambda
usually ends that way. Resuming stays exact because every bound, and
every leaf's F scaled by 1/q, does not increase in lambda: each is a sum
of terms a - lambda*(1 - a), or a max of such sums, as the bound's future
term (the best grouping of the machines not yet placed) is. What a round
pruned or passed at F <= 0 stays so at any higher ratio. The round in
which the search completes without a leaf above 0 therefore proves the
last lambda optimal, as does a full search whose maximum is exactly F = 0.
Seeding above the optimum makes the first maximum negative, in which case
the argmax restarts the loop from below. Every lambda after the first is
the efficacy of a real grouping, so the sequence is strictly increasing
and finite.

A seed from heuristic_solve carries the Tree that tried to certify it. The
solve takes it over as its one tree when it searched the same instance
object in the same regime at a ratio no higher than the seed's, which is
the tree's own resume rule: a certified seed's tree has finished, so its
first round returns at once and proves the seed in no node instead of
twice, and a seed whose tree ran out of budget is searched on from where
it stopped. A seed reused after its tree moved above it gets a
fresh tree. Since the seed's tree is the solve's first search, a caller
with one time limit gives the seed all of it and the rounds what the seed
left (see remaining); the seed itself is bounded by work, not by a share
of the time.

A subsolver passed to solve replaces the tree with one call per round, each
a search of its own at that round's lambda; it ignores the seed's tree.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum

from .bnb import Tree, solve_subproblem
from .heuristic import climb
from .instances import Instance
from .rational import Ratio
from .solutions import (Regime, Solution, canonicalize, check_feasible,
                        efficacy, efficacy_ratio)

log = logging.getLogger(__name__)

_MAX_ROUNDS = 10_000  # safety valve; the ratio sequence is finite


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    TIME_LIMIT = "TimeLimit"
    NODE_LIMIT = "NodeLimit"


@dataclass
class IterationRecord:
    index: int
    lam: Ratio
    F: int
    nodes: int  # visited and cut since the last raise of lambda
    entered: int  # nodes whose children the search sorted
    time_ms: int
    leaves: int
    pruned: int  # nodes cut by the bound
    polish_ms: int  # wall time of the climb from the round's grouping
    polished: Ratio | None  # the climb's efficacy; None without a grouping


@dataclass
class SolveOutcome:
    status: SolveStatus
    solution: Solution
    lambda_final: Ratio
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    nodes: int = 0
    time_ms: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def trivial_solution(inst: Instance) -> Solution:
    """Everything in one cell. Feasible in both regimes."""
    sol = Solution(1, [1] * inst.m, [1] * inst.p)
    efficacy(inst, sol)
    return sol


def raw_ratio(inst: Instance, sol: Solution) -> Ratio:
    """The efficacy of sol as the unreduced pair n1_in / (n1 + n0_in)."""
    efficacy(inst, sol)
    return efficacy_ratio(inst.n1, sol.n1_in, sol.n0_in)


def remaining(time_limit: float | None, t0: float) -> float | None:
    """What is left now of a time_limit that started at monotonic time t0
    (None = unlimited): a heuristic seed's budget at t0, and the exact
    rounds' after the seed."""
    if time_limit is None:
        return None
    return max(0.0, time_limit - (time.monotonic() - t0))


def _one_tree(inst: Instance, regime: Regime, tree: Tree | None,
              lam: Ratio):
    """The default subsolver: a fresh full search while the solve has no
    incumbent, then one Tree that every later round resumes: tree, the
    seed's, if it searched inst in regime at a ratio no higher than lam,
    the seed's ratio, so that Tree.run may resume it; else a fresh one."""
    if (tree is None or tree.inst is not inst
            or tree.no_res != (regime is Regime.NO_RESIDUAL)
            or tree.lam is not None and tree.lam > lam):
        tree = Tree(inst, regime)

    def run(inst, lam, regime, incumbent_F, time_limit, node_limit):
        if incumbent_F is None:
            return solve_subproblem(inst, lam, regime, None, time_limit,
                                    node_limit)
        return tree.run(lam, incumbent_F, time_limit, node_limit)

    return run


def solve(
    inst: Instance,
    regime: Regime,
    seed_lambda: Ratio | None = None,
    seed_solution: Solution | None = None,
    subsolver=None,
    time_limit: float | None = None,
    node_limit: int | None = None,
) -> SolveOutcome:
    """Maximize grouping efficacy exactly, or return the best grouping found
    within the budget.

    Seeds: a seed_solution supplies both the starting ratio (its unreduced
    efficacy pair) and the incumbent, and must be feasible in the regime
    (ValueError lists its violations); a bare seed_lambda only shifts the
    first round's ratio and may not exceed 1. With neither, the loop starts
    at 0/1. A seed_solution from heuristic_solve hands over its tree (see
    the module docstring). time_limit is a shared wall-clock budget in
    seconds; node_limit caps the nodes of the solve's rounds, not those a
    seed's tree spent before, and each round gets what the rounds before it
    left; the outcome's nodes counts the same. A round the node budget
    stops ends the solve as NodeLimit, one the clock stops as TimeLimit.
    subsolver replaces the solve's one search tree with one call per round,
    with the positional arguments of bnb.solve_subproblem: (inst, lam,
    regime, incumbent_F, time_limit, node_limit). Given incumbent_F, an
    answer need only beat it; an answer with F == 0 is taken as the proof,
    so it must be a true maximum. Every grouping a subsolver returns is
    polished with the heuristic climb.
    """
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    if seed_lambda is not None and seed_lambda > 1:
        raise ValueError(f"efficacy cannot exceed 1, got {seed_lambda}")

    incumbent: Solution | None = None
    if seed_solution is not None:
        incumbent = canonicalize(seed_solution)
        feasible, violations = check_feasible(inst, incumbent, regime)
        if not feasible:
            raise ValueError("infeasible seed_solution: "
                             + "; ".join(violations))
        lam = raw_ratio(inst, incumbent)
    elif seed_lambda is not None:
        lam = seed_lambda
    else:
        lam = Ratio(0, 1)
    if subsolver is None:
        subsolver = _one_tree(
            inst, regime, None if seed_solution is None else seed_solution.tree,
            lam)

    history: list[IterationRecord] = []
    total_nodes = 0
    status = SolveStatus.TIME_LIMIT
    rounds = 0

    while rounds < _MAX_ROUNDS:
        left = remaining(time_limit, t0)
        if left is not None and left <= 0:
            break
        budget = None if node_limit is None else node_limit - total_nodes
        rounds += 1
        it_t0 = time.monotonic()
        res = subsolver(inst, lam, regime,
                        0 if incumbent is not None else None,
                        left, budget)
        it_s = time.monotonic() - it_t0
        st = res.stats
        total_nodes += st.nodes
        F = res.best_F if res.best_F is not None else 0
        polish_ms, polished = 0, None
        if res.solution is not None:
            polish_t0 = time.monotonic()
            # the climb's result is never worse than the round's grouping
            incumbent = canonicalize(climb(inst, res.solution.machine_cell,
                                           regime, deadline))
            polished = efficacy_ratio(inst.n1, incumbent.n1_in,
                                      incumbent.n0_in)
            polish_ms = int(round((time.monotonic() - polish_t0) * 1000))
        rec = IterationRecord(rounds, lam, F, st.nodes, st.entered,
                              int(round(it_s * 1000)), st.leaves,
                              st.pruned_bound, polish_ms, polished)
        history.append(rec)
        log.info("iter=%d lambda=%s F=%d nodes=%d entered=%d leaves=%d "
                 "pruned=%d nodes_per_s=%d time_ms=%d polish_ms=%d "
                 "polished=%s",
                 rounds, lam, F, rec.nodes, rec.entered, rec.leaves, rec.pruned,
                 rec.nodes / it_s if it_s > 0 else 0, rec.time_ms,
                 rec.polish_ms, "-" if polished is None else polished)

        if res.truncated:
            if node_limit is not None and total_nodes >= node_limit:
                status = SolveStatus.NODE_LIMIT
            break
        if res.solution is None:
            # Nothing beats the baseline: either the incumbent's 0
            # (optimality certificate) or, with no incumbent, an empty
            # search on a degenerate budget - handled below.
            if incumbent is not None:
                status = SolveStatus.OPTIMAL
            break
        if F == 0:
            # The round's maximum attains lambda: seeded exactly at the
            # optimum, or an external answer at the incumbent's 0.
            status = SolveStatus.OPTIMAL
            break
        # F > 0 improves; F < 0 (seed above optimum) restarts from the
        # argmax ratio. Both continue from the polished incumbent's pair.
        lam = polished

    if incumbent is None:
        incumbent = trivial_solution(inst)
    return SolveOutcome(
        status=status,
        solution=incumbent,
        lambda_final=lam,
        iterations=rounds,
        history=history,
        nodes=total_nodes,
        time_ms=int(round((time.monotonic() - t0) * 1000)),
    )
