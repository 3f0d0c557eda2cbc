"""Parametric outer loop: exact efficacy maximization via repeated subproblems.

Each round solves max F(lambda) = q*n1_in - p*(n0_in + n1) at the current
ratio lambda = p/q. A positive maximum yields a strictly better grouping
whose efficacy becomes the next lambda (kept as the unreduced pair straight
from the counts); a zero maximum certifies the incumbent optimal. Seeding
above the optimum makes the first maximum negative, in which case the
argmax ratio restarts the loop from below. Every lambda after the first
improvement step is the efficacy of a real grouping, so the sequence is
strictly increasing and finite.

Once an incumbent exists its value 0 is passed down as the baseline, so the
subproblem only has to look for strict improvements - that is where the
bound prune gets its teeth.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum

from .bnb import solve_subproblem
from .instances import Instance
from .rational import Ratio
from .solutions import Regime, Solution, canonicalize, efficacy

log = logging.getLogger(__name__)

_MAX_ROUNDS = 10_000  # safety valve; the ratio sequence is finite
_SEED_SHARE = 0.5     # of time_limit, for a seed without a limit of its own


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    TIME_LIMIT = "TimeLimit"
    NODE_LIMIT = "NodeLimit"


@dataclass
class IterationRecord:
    index: int
    lam: Ratio
    F: int
    nodes: int
    time_ms: int
    leaves: int
    pruned: int  # nodes cut by the bound


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
    den = inst.n1 + sol.n0_in
    if den == 0:
        return Ratio(0, 1)
    return Ratio(sol.n1_in, den)


def seed_budget(time_limit: float | None,
                heuristic_time: float | None) -> float | None:
    """The heuristic seed's share of a solve's total time_limit (None =
    unlimited): the earlier of heuristic_time and the total when
    heuristic_time is set, else _SEED_SHARE of the total, so that a short
    budget still leaves the exact rounds time to improve or prove the
    seed."""
    if heuristic_time is None:
        return None if time_limit is None else _SEED_SHARE * time_limit
    return heuristic_time if time_limit is None else min(heuristic_time,
                                                         time_limit)


def remaining(time_limit: float | None, t0: float) -> float | None:
    """What is left now of a time_limit that started at monotonic time t0
    (None = unlimited); the exact rounds get this after the seed."""
    if time_limit is None:
        return None
    return max(0.0, time_limit - (time.monotonic() - t0))


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
    efficacy pair) and the incumbent; a bare seed_lambda only shifts the
    first round's ratio and may not exceed 1. With neither, the loop starts
    at 0/1. time_limit is a shared wall-clock budget in seconds; node_limit
    applies per round.
    A round the node budget stops ends the solve as NodeLimit, one the
    clock stops as TimeLimit.
    subsolver replaces bnb.solve_subproblem and is called with the same
    positional arguments: (inst, lam, regime, incumbent_F, time_limit,
    node_limit).
    """
    t0 = time.monotonic()
    if seed_lambda is not None and seed_lambda > 1:
        raise ValueError(f"efficacy cannot exceed 1, got {seed_lambda}")
    if subsolver is None:
        subsolver = solve_subproblem

    incumbent: Solution | None = None
    if seed_solution is not None:
        incumbent = canonicalize(seed_solution.copy())
        lam = raw_ratio(inst, incumbent)
    elif seed_lambda is not None:
        lam = seed_lambda
    else:
        lam = Ratio(0, 1)

    history: list[IterationRecord] = []
    total_nodes = 0
    status = SolveStatus.TIME_LIMIT
    rounds = 0

    while rounds < _MAX_ROUNDS:
        left = remaining(time_limit, t0)
        if left is not None and left <= 0:
            break
        rounds += 1
        it_t0 = time.monotonic()
        res = subsolver(inst, lam, regime,
                        0 if incumbent is not None else None,
                        left, node_limit)
        it_s = time.monotonic() - it_t0
        st = res.stats
        total_nodes += st.nodes
        F = res.best_F if res.best_F is not None else 0
        rec = IterationRecord(rounds, lam, F, st.nodes, int(round(it_s * 1000)),
                              st.leaves, st.pruned_bound)
        history.append(rec)
        log.info("iter=%d lambda=%s F=%d nodes=%d leaves=%d pruned=%d "
                 "nodes_per_s=%d time_ms=%d", rounds, lam, F, rec.nodes,
                 rec.leaves, rec.pruned, rec.nodes / it_s if it_s > 0 else 0,
                 rec.time_ms)

        if res.solution is not None:
            incumbent = res.solution
            next_lam = raw_ratio(inst, incumbent)
        if res.truncated:
            if node_limit is not None and res.stats.nodes >= node_limit:
                status = SolveStatus.NODE_LIMIT
            break
        if res.solution is None:
            # Exact maximum equals the baseline: either the incumbent's 0
            # (optimality certificate) or, with no incumbent, an empty
            # search on a degenerate budget - handled below.
            if incumbent is not None:
                status = SolveStatus.OPTIMAL
            break
        if F == 0:
            # Seeded exactly at the optimum: the argmax attains lambda.
            status = SolveStatus.OPTIMAL
            break
        # F > 0 improves; F < 0 (seed above optimum) restarts from the
        # argmax ratio. Both continue from the new incumbent's pair.
        lam = next_lam

    if incumbent is None:
        incumbent = trivial_solution(inst)
    efficacy(inst, incumbent)
    return SolveOutcome(
        status=status,
        solution=incumbent,
        lambda_final=lam,
        iterations=rounds,
        history=history,
        nodes=total_nodes,
        time_ms=int(round((time.monotonic() - t0) * 1000)),
    )
