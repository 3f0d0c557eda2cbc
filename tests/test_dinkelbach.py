import logging
import random
import time
from fractions import Fraction

import pytest

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


def test_an_infeasible_seed_is_rejected():
    # the allow-residual optimum leaves a part residual and a cell without
    # parts; taken as a no-residual seed it would be reported Optimal at 3/4,
    # above the no-residual optimum 3/7
    inst = Instance("s", 5, 3, ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 0),
                                (0, 0, 0)))
    seed = oracle_solve(inst, Regime.ALLOW_RESIDUAL)
    assert seed.efficacy == Ratio(3, 4)
    with pytest.raises(ValueError) as err:
        solve(inst, Regime.NO_RESIDUAL, seed_solution=seed)
    assert str(err.value) == ("infeasible seed_solution: part 1 is residual; "
                              "cell 1 has no parts")
    out = solve(inst, Regime.NO_RESIDUAL)
    assert out.optimal and out.solution.efficacy == Ratio(3, 7)
    assert solve(inst, Regime.ALLOW_RESIDUAL, seed_solution=seed).optimal


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
    # each log line carries its round's record, and the records add up to
    # the solve: round 2 resumes round 1's tree, so it is no fresh search
    assert len(lines) == len(out.history)
    for rec, line in zip(out.history, lines):
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["iter"] == str(rec.index)
        assert fields["lambda"] == str(rec.lam)
        assert fields["F"] == str(rec.F)
        assert fields["nodes"] == str(rec.nodes)
        assert fields["leaves"] == str(rec.leaves)
        assert fields["pruned"] == str(rec.pruned)
        assert int(fields["nodes_per_s"]) >= 0
        assert fields["time_ms"] == str(rec.time_ms)
        assert fields["polish_ms"] == str(rec.polish_ms)
    assert sum(rec.nodes for rec in out.history) == out.nodes
    # round 1 dives best bound first and walks 5 nodes to its leaf; the 2
    # children it cut on the way count as nodes and prunes at once
    first = out.history[0]
    assert (first.nodes, first.leaves, first.pruned) == (7, 1, 2)


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


def test_keyword_subsolver_and_the_tree_keep_the_same_contract():
    # the traced benchmark calls the subproblem through the subsolver hook,
    # one fresh search per round, while the default path resumes one tree:
    # their rounds differ, but not the optimum, the budget or the seed
    for gen in ((5, 10, 15, 4, .7, .12), (6, 10, 15, 4, .7, .12),
                (7, 12, 18, 4, .6, .15)):
        inst, planted = planted_instance(*gen)
        for regime in Regime:
            seed = fit_parts(inst, planted, regime)
            for node_limit in (None, 500):
                runs = [solve(inst, regime, seed_solution=seed,
                              node_limit=node_limit, subsolver=sub)
                        for sub in (None, _keyword_subsolver)]
                where = (gen, regime, node_limit)
                for out in runs:
                    assert out.solution.efficacy >= seed.efficacy, where
                    assert out.nodes == sum(r.nodes for r in out.history)
                    if node_limit is not None:
                        assert out.nodes <= node_limit, where
                if node_limit is None:
                    assert runs[0].status is SolveStatus.OPTIMAL, where
                    assert runs[1].status is SolveStatus.OPTIMAL, where
                    assert (runs[0].solution.efficacy
                            == runs[1].solution.efficacy), where


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
    # the budget is the whole solve's: the round that exhausts it ends the
    # solve at exactly node_limit nodes over all its rounds
    inst, planted = planted_instance(0, 20, 30, 6, .8, .08)
    for regime in Regime:
        seed = fit_parts(inst, planted, regime)
        out = solve(inst, regime, seed_solution=seed, node_limit=2000)
        assert out.status is SolveStatus.NODE_LIMIT
        assert out.nodes == 2000
        assert sum(rec.nodes for rec in out.history) == out.nodes
        assert out.solution.efficacy >= seed.efficacy


def test_solve_matches_the_oracle_on_random_instances():
    # the resumed tree proves the same optima as brute force, from a
    # one-cell seed (the tree from round 1) and unseeded (a full search
    # first, then the tree); shapes up to 6x6 and 5x7, since the oracle
    # alone takes seconds on a 6x7 in allow-residual
    rng = random.Random(101)
    for trial in range(40):
        m = rng.randrange(2, 7)
        p = rng.randrange(2, 7 if m == 6 else 8)
        inst = random_instance(rng, m, p, rng.choice((0.3, 0.5, 0.7)),
                               name=f"o{trial}")
        for regime in Regime:
            opt = oracle_solve(inst, regime).efficacy
            for seed in (trivial_solution(inst), None):
                out = solve(inst, regime, seed_solution=seed)
                where = (inst.a, regime, seed is None)
                assert out.status is SolveStatus.OPTIMAL, where
                assert out.solution.efficacy == opt, where
                assert check_feasible(inst, out.solution, regime)[0], where


def test_planted_solves_are_pinned():
    # the shape of the benchmark's proof-planted ops: a planted seed on a
    # noisy 10x15/k4, run to a proof; the total nodes are machine-independent
    want_optima = {
        Regime.NO_RESIDUAL: ["7/12", "31/48", "26/41", "27/46", "14/25",
                             "11/18", "2/3", "30/47", "9/14", "36/61"],
        Regime.ALLOW_RESIDUAL: ["7/12", "31/48", "26/41", "13/22", "13/23",
                                "11/18", "2/3", "30/47", "9/14", "36/61"],
    }
    want_nodes = {Regime.NO_RESIDUAL: 10474, Regime.ALLOW_RESIDUAL: 9588}
    for regime in Regime:
        nodes, optima = 0, []
        for gen_seed in range(10):
            inst, planted = planted_instance(gen_seed, 10, 15, 4, .7, .12)
            out = solve(inst, regime,
                        seed_solution=fit_parts(inst, planted, regime))
            assert out.status is SolveStatus.OPTIMAL
            nodes += out.nodes
            optima.append(str(out.solution.efficacy))
        assert optima == want_optima[regime]
        assert nodes == want_nodes[regime], regime


def test_baseline_row_solve_is_pinned():
    # a heuristic-seeded proof of the planted 16x24/k5 .8/.08 baseline row;
    # its node count is where a weaker bound shows first
    inst, _ = planted_instance(0, 16, 24, 5, .8, .08)
    regime = Regime.NO_RESIDUAL
    seed = heuristic_solve(inst, SearchConfig(regime=regime, restarts=8,
                                              rng_seed=0))
    out = solve(inst, regime, seed_solution=seed)
    assert out.status is SolveStatus.OPTIMAL
    assert out.solution.efficacy == seed.efficacy == Ratio(55, 93)
    assert out.nodes == 54370
