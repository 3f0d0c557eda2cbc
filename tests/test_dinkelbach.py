import logging
import random
import time
from fractions import Fraction

from cellform.bnb import solve_subproblem
from cellform.dinkelbach import (
    SolveStatus,
    raw_ratio,
    remaining,
    seed_budget,
    solve,
    trivial_solution,
)
from cellform.oracle import oracle_solve
from cellform.rational import Ratio
from cellform.solutions import Regime, Solution, check_feasible

from helpers import random_instance


def test_trivial_solution(ref_instance):
    sol = trivial_solution(ref_instance)
    assert sol.machine_cell == [1] * 5 and sol.part_cell == [1] * 7
    assert sol.efficacy == Ratio(20, 35)


def test_raw_ratio_is_unreduced(ref_instance, two_cell):
    r = raw_ratio(ref_instance, two_cell)
    assert (r.num, r.den) == (15, 24)


def test_two_cell_seed_converges_in_two_rounds(ref_instance, two_cell):
    out = solve(ref_instance, Regime.NO_RESIDUAL, seed_solution=two_cell)
    assert out.status is SolveStatus.OPTIMAL
    assert out.optimal
    assert out.solution.efficacy == Ratio(16, 23)
    assert out.iterations == 2
    lams = [(rec.lam.num, rec.lam.den) for rec in out.history]
    assert lams == [(15, 24), (16, 23)]
    assert [rec.F for rec in out.history] == [39, 0]
    assert out.lambda_final == Ratio(16, 23)
    assert out.nodes == sum(rec.nodes for rec in out.history)


def test_zero_seed_carries_raw_pairs(ref_instance):
    out = solve(ref_instance, Regime.NO_RESIDUAL, seed_lambda=Ratio(0, 1))
    assert out.status is SolveStatus.OPTIMAL
    assert out.solution.efficacy == Ratio(16, 23)
    # iteration 2 runs at the single-cell cover's unreduced pair, 20/35
    second = out.history[1].lam
    assert (second.num, second.den) == (20, 35)


def test_seed_above_optimum_recovers(ref_instance):
    out = solve(ref_instance, Regime.NO_RESIDUAL, seed_lambda=Ratio(9, 10))
    assert out.status is SolveStatus.OPTIMAL
    assert out.solution.efficacy == Ratio(16, 23)
    assert out.history[0].F < 0


def test_lambda_strictly_increases_on_positive_rounds():
    rng = random.Random(17)
    for trial in range(15):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6),
                               rng.choice((0.3, 0.5, 0.8)), name=f"d{trial}")
        for regime in Regime:
            out = solve(inst, regime)
            assert out.status is SolveStatus.OPTIMAL
            for a, b in zip(out.history, out.history[1:]):
                if a.F > 0:
                    assert Fraction(b.lam.num, b.lam.den) > Fraction(
                        a.lam.num, a.lam.den)
            assert out.history[-1].F == 0
            ok, problems = check_feasible(inst, out.solution, regime)
            assert ok, problems


def test_matches_oracle_from_any_seed(ref_instance):
    opt = oracle_solve(ref_instance, Regime.NO_RESIDUAL).efficacy
    for seed in (None, Ratio(0, 1), Ratio(1, 2), Ratio(15, 24), Ratio(1, 1)):
        out = solve(ref_instance, Regime.NO_RESIDUAL, seed_lambda=seed)
        assert out.status is SolveStatus.OPTIMAL
        assert out.solution.efficacy == opt


def test_zero_budget_times_out(ref_instance):
    out = solve(ref_instance, Regime.NO_RESIDUAL, time_limit=0.0)
    assert out.status is SolveStatus.TIME_LIMIT
    assert not out.optimal
    assert out.iterations == 0 and out.history == []
    # fallback incumbent is still a feasible grouping
    ok, _ = check_feasible(ref_instance, out.solution, Regime.NO_RESIDUAL)
    assert ok
    assert out.solution.efficacy == Ratio(20, 35)


def test_budget_split_between_seed_and_proof():
    # without a limit of its own the seed gets half the total, so the proof
    # keeps time; with one it stops at the earlier of its limit and the total
    assert seed_budget(None, None) is None
    assert seed_budget(5.0, None) == 2.5
    assert seed_budget(0.0, None) == 0.0
    assert seed_budget(None, 2.0) == 2.0
    assert seed_budget(5.0, 2.0) == 2.0
    assert seed_budget(1.0, 2.0) == 1.0
    # the proof gets what is left, never less than nothing
    assert remaining(None, 0.0) is None
    assert remaining(1.0, time.monotonic() - 5.0) == 0.0
    assert 0.0 < remaining(60.0, time.monotonic()) <= 60.0


def test_node_budget_downgrades_status(ref_instance, two_cell):
    out = solve(ref_instance, Regime.NO_RESIDUAL, seed_solution=two_cell,
                node_limit=2)
    assert out.status is SolveStatus.NODE_LIMIT
    # the seed is never lost, whatever the budget
    assert out.solution.efficacy >= Ratio(15, 24)


def test_seed_solution_protects_incumbent(ref_instance, two_cell):
    out = solve(ref_instance, Regime.NO_RESIDUAL, seed_solution=two_cell,
                time_limit=0.0)
    assert out.status is SolveStatus.TIME_LIMIT
    assert (out.solution.n1_in, out.solution.n0_in) == (15, 4)


def test_custom_subsolver_is_used(ref_instance):
    calls = []

    def spy(inst, lam, regime, incumbent_F, time_limit, node_limit):
        calls.append((str(lam), incumbent_F))
        return solve_subproblem(inst, lam, regime, incumbent_F=incumbent_F,
                                time_limit=time_limit, node_limit=node_limit)

    out = solve(ref_instance, Regime.NO_RESIDUAL, subsolver=spy,
                seed_lambda=Ratio(15, 24))
    assert out.status is SolveStatus.OPTIMAL
    assert calls[0] == ("15/24", None)
    assert calls[1] == ("16/23", 0)  # incumbent baseline after round one


def test_status_strings():
    assert SolveStatus.OPTIMAL.value == "Optimal"
    assert SolveStatus.TIME_LIMIT.value == "TimeLimit"
    assert SolveStatus.NODE_LIMIT.value == "NodeLimit"
    assert SolveStatus.INFEASIBLE.value == "Infeasible"


def test_iteration_log_lines(ref_instance, two_cell, caplog):
    with caplog.at_level(logging.INFO, logger="cellform.dinkelbach"):
        out = solve(ref_instance, Regime.NO_RESIDUAL, seed_solution=two_cell)
    lines = [r.getMessage() for r in caplog.records]
    assert any(l.startswith("iter=1 lambda=15/24 F=39 nodes=") for l in lines)
    assert any(l.startswith("iter=2 lambda=16/23 F=0 nodes=") for l in lines)
    # the search counters of each round reach its record and its log line
    for rec, line in zip(out.history, lines):
        st = solve_subproblem(ref_instance, rec.lam, Regime.NO_RESIDUAL,
                              incumbent_F=0).stats
        assert (rec.nodes, rec.leaves, rec.pruned) == (
            st.nodes, st.leaves, st.pruned_bound + st.pruned_void)
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["leaves"] == str(rec.leaves)
        assert fields["pruned"] == str(rec.pruned)
        assert int(fields["nodes_per_s"]) >= 0
    assert out.history[0].leaves > 0 and out.history[0].pruned > 0
