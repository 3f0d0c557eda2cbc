import logging
import random
import time
from fractions import Fraction

import cellform
from cellform import dinkelbach
from cellform.bnb import solve_subproblem
from cellform.dinkelbach import (
    SolveStatus,
    raw_ratio,
    remaining,
    seed_budget,
    solve,
    trivial_solution,
)
from cellform.heuristic import SearchConfig, climb, fit_parts, heuristic_solve
from cellform.instances import Instance
from cellform.oracle import oracle_solve
from cellform.rational import Ratio
from cellform.solutions import Regime, Solution, check_feasible

from helpers import planted_instance, random_instance


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
    # round 1's argmax at 0/1 is the single-cell cover (20/35); the climb
    # polishes it to the optimum, whose pair is already in lowest terms
    assert [(r.lam.num, r.lam.den) for r in out.history] == [(0, 1), (16, 23)]
    # one cell of all 3 machines and parts 2, 4, 5 holds all 6 ones and 3
    # voids: round 2 runs at the unreduced 6/9, not 2/3
    tri = Instance("tri", 3, 5, ((0, 0, 0, 1, 1), (0, 1, 0, 0, 1),
                                 (0, 1, 0, 1, 0)))
    out = solve(tri, Regime.ALLOW_RESIDUAL, seed_lambda=Ratio(0, 1))
    assert out.status is SolveStatus.OPTIMAL
    second = out.history[1].lam
    assert (second.num, second.den) == (6, 9)
    polished = out.history[0].polished
    assert (polished.num, polished.den) == (6, 9)


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


def test_iteration_log_lines(ref_instance, two_cell, caplog):
    with caplog.at_level(logging.INFO, logger="cellform.dinkelbach"):
        out = solve(ref_instance, Regime.NO_RESIDUAL, seed_solution=two_cell)
    lines = [r.getMessage() for r in caplog.records]
    assert any(l.startswith("iter=1 lambda=15/24 F=39 nodes=") for l in lines)
    assert any(l.startswith("iter=2 lambda=16/23 F=0 nodes=") for l in lines)
    # round 1's grouping is polished (to the optimum); the proof round
    # returns none, so it has nothing to polish
    assert out.history[0].polished == Ratio(16, 23)
    assert out.history[1].polished is None and out.history[1].polish_ms == 0
    assert lines[0].endswith(" polished=16/23")
    assert lines[1].endswith(" polish_ms=0 polished=-")
    # the search counters of each round reach its record and its log line
    for rec, line in zip(out.history, lines):
        st = solve_subproblem(ref_instance, rec.lam, Regime.NO_RESIDUAL,
                              incumbent_F=0).stats
        assert (rec.nodes, rec.leaves, rec.pruned) == (
            st.nodes, st.leaves, st.pruned_bound)
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["leaves"] == str(rec.leaves)
        assert fields["pruned"] == str(rec.pruned)
        assert int(fields["nodes_per_s"]) >= 0
        assert fields["polish_ms"] == str(rec.polish_ms)
    assert out.history[0].leaves > 0 and out.history[0].pruned > 0


# ------------------------------------------------- inexact rounds, polish


def test_inexact_rounds_keep_the_optimum_and_raise_lambda(monkeypatch):
    # every round's answer and its polish, seen from outside the loop
    answers, polishes = [], []

    def spy(inst, lam, regime, incumbent_F, time_limit, node_limit):
        res = solve_subproblem(inst, lam, regime, incumbent_F=incumbent_F,
                               time_limit=time_limit, node_limit=node_limit)
        answers.append(res.solution)
        return res

    def spy_climb(inst, machine_cell, regime, deadline):
        sol = climb(inst, machine_cell, regime, deadline)
        polishes.append(sol)
        return sol

    monkeypatch.setattr(dinkelbach, "climb", spy_climb)
    rng = random.Random(71)
    for trial in range(10):
        inst = random_instance(rng, rng.randrange(3, 7), rng.randrange(3, 8),
                               rng.choice((0.3, 0.5, 0.7)), name=f"p{trial}")
        for regime in Regime:
            opt = oracle_solve(inst, regime).efficacy
            seeds = {"none": {}, "zero": {"seed_lambda": Ratio(0, 1)},
                     "ratio": {"seed_lambda": rng.choice(
                         (Ratio(1, 3), Ratio(1, 2), Ratio(9, 10)))},
                     "heuristic": {"seed_solution": heuristic_solve(
                         inst, SearchConfig(regime, restarts=2,
                                            rng_seed=trial))}}
            for name, seed in seeds.items():
                answers.clear()
                polishes.clear()
                out = solve(inst, regime, subsolver=spy, **seed)
                where = (inst.a, regime, name)
                assert out.status is SolveStatus.OPTIMAL, where
                assert out.solution.efficacy == opt, where
                for a, b in zip(out.history, out.history[1:]):
                    if a.F > 0:
                        assert b.lam > a.lam, where
                # every round that returned a grouping was polished, and
                # the polish never lost to it
                returned = [sol for sol in answers if sol is not None]
                assert len(polishes) == len(returned), where
                for sol, polished in zip(returned, polishes):
                    assert polished.efficacy >= sol.efficacy, where
                # each later lambda is the raw pair of a feasible grouping:
                # the polish of the round before it
                for rec, nxt, polished in zip(out.history, out.history[1:],
                                              polishes):
                    assert check_feasible(inst, polished, regime)[0], where
                    assert (nxt.lam.num, nxt.lam.den) == (
                        polished.n1_in, inst.n1 + polished.n0_in), where
                    assert rec.polished == nxt.lam, where


def _keyword_subsolver(inst, lam, regime, incumbent_F, time_limit,
                       node_limit):
    """Built like the benchmark tracer's hook: the package's
    solve_subproblem, with the four budget arguments as keywords."""
    return cellform.solve_subproblem(
        inst, lam, regime, incumbent_F=incumbent_F, time_limit=time_limit,
        node_limit=node_limit)


def test_keyword_subsolver_matches_the_default_path():
    # the traced benchmark calls the subproblem through the subsolver hook,
    # so that path must run the same rounds as the default one
    for gen in ((5, 10, 15, 4, .7, .12), (6, 10, 15, 4, .7, .12),
                (7, 12, 18, 4, .6, .15)):
        inst, planted = planted_instance(*gen)
        for regime in Regime:
            for node_limit in (None, 500):
                seed = fit_parts(inst, planted, regime)
                runs = [solve(inst, regime, seed_solution=seed,
                              node_limit=node_limit, subsolver=sub)
                        for sub in (None, _keyword_subsolver)]
                default, traced = (
                    [(r.lam.num, r.lam.den, r.F, r.nodes, r.leaves, r.pruned,
                      r.polished) for r in out.history] for out in runs)
                assert default == traced, (gen, regime, node_limit)
                assert runs[0].status is runs[1].status
                assert (runs[0].solution.machine_cell
                        == runs[1].solution.machine_cell)


def test_climb_past_its_deadline_only_places_the_parts():
    inst, planted = planted_instance(0, 20, 30, 6, .8, .08)
    one_cell = [1] * inst.m
    for regime in Regime:
        sol = climb(inst, one_cell, regime, time.monotonic())
        assert sol == fit_parts(inst, one_cell, regime)
        assert climb(inst, one_cell, regime, None).efficacy > sol.efficacy


def test_time_limit_holds_through_the_polish(monkeypatch):
    # seeded far below the optimum, the solve runs improving rounds and
    # their polishes until the clock stops a round
    deadlines = []

    def spy_climb(inst, machine_cell, regime, deadline):
        deadlines.append(deadline)
        return climb(inst, machine_cell, regime, deadline)

    monkeypatch.setattr(dinkelbach, "climb", spy_climb)
    inst, _ = planted_instance(0, 20, 30, 6, .8, .08)
    for regime in Regime:
        seed = trivial_solution(inst)
        deadlines.clear()
        t0 = time.monotonic()
        out = solve(inst, regime, seed_solution=seed, time_limit=1.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.5, elapsed
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.solution.efficacy > seed.efficacy
        assert any(rec.polished is not None for rec in out.history)
        # every polish ran under the solve's own deadline, which is 1 s
        # after the solve started
        assert deadlines
        assert all(t0 + 1.0 <= d <= t0 + elapsed + 1.0 for d in deadlines), (
            t0, elapsed, deadlines)


def test_node_limit_still_ends_a_round():
    inst, planted = planted_instance(0, 20, 30, 6, .8, .08)
    for regime in Regime:
        seed = fit_parts(inst, planted, regime)
        out = solve(inst, regime, seed_solution=seed, node_limit=2000)
        assert out.status is SolveStatus.NODE_LIMIT
        assert out.history[-1].nodes == 2000
        assert all(rec.nodes <= 2000 for rec in out.history)
        assert out.solution.efficacy >= seed.efficacy
