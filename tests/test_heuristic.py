import logging
import random
from fractions import Fraction

import numpy as np
import pytest

from cellform import heuristic
from cellform.bnb import (SubproblemResult, SubproblemStats, Tree,
                          child_bounds, label_cap, make_weights, optimal_parts)
from cellform.heuristic import SearchConfig, climb, fit_parts, heuristic_solve
from cellform.instances import Instance
from cellform.oracle import oracle_solve
from cellform.rational import Ratio, parse_ratio
from cellform.solutions import (Regime, canonicalize, check_feasible,
                                efficacy, renumber)

from helpers import (pair_counts, part_vectors, planted_instance,
                     random_instance, split_halves, unscreened_climb,
                     unscreened_heuristic_solve, unscreened_moves)


def frac(r):
    return Fraction(r.num, r.den)


def test_config_validates_restarts():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)


def test_fit_parts_is_part_optimal(monkeypatch):
    # for a fixed machine grouping, a placement that beats the ratio lam is
    # the best placement; otherwise no placement beats lam, and one
    # parametric round said so. Under allow-residual some machines are
    # residual and join no cell
    rounds = 0

    def counted(*args):
        nonlocal rounds
        rounds += 1
        return optimal_parts(*args)

    monkeypatch.setattr(heuristic, "optimal_parts", counted)
    rng = random.Random(13)
    for _ in range(40):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 5), 0.5)
        for regime in Regime:
            k = rng.randrange(1, min(inst.m, inst.p) + 1)
            low = 0 if regime is Regime.ALLOW_RESIDUAL else 1
            mc = [rng.randrange(low, k + 1) for _ in range(inst.m)]
            mc[:k] = range(1, k + 1)  # every cell nonempty
            best = Fraction(0)
            for pc in part_vectors(k, inst.p, regime):
                n1_in, n0_in = pair_counts(inst, mc, pc)
                if inst.n1 + n0_in:
                    best = max(best, Fraction(n1_in, inst.n1 + n0_in))
            # below, at and above the best placement's efficacy
            for lam in (best / 2, best, (best + 1) / 2):
                rounds = 0
                sol = fit_parts(inst, mc, regime,
                                Ratio(lam.numerator, lam.denominator))
                ok, problems = check_feasible(inst, sol, regime)
                assert ok, problems
                stored = (sol.n1_in, sol.n0_in, sol.efficacy)
                got = frac(efficacy(inst, sol))
                assert (sol.n1_in, sol.n0_in, sol.efficacy) == stored
                if got > lam:
                    assert got == best, (inst.a, mc, regime, lam)
                else:
                    assert best <= lam, (inst.a, mc, regime, lam)
                if lam >= best:
                    assert rounds == 1, (inst.a, mc, regime, lam)


def test_finds_reference_optimum(ref_instance):
    for regime in Regime:
        sol = heuristic_solve(ref_instance, SearchConfig(regime=regime))
        assert sol.efficacy >= Fraction(15, 24)  # the two-cell grouping's value
        assert sol.efficacy == Fraction(16, 23)  # and in fact the optimum


def test_output_is_feasible():
    rng = random.Random(23)
    for trial in range(25):
        inst = random_instance(rng, rng.randrange(1, 8), rng.randrange(1, 8),
                               rng.choice((0.2, 0.5, 0.8)), name=f"h{trial}")
        for regime in Regime:
            sol = heuristic_solve(inst, SearchConfig(regime=regime, restarts=3,
                                                     rng_seed=trial))
            ok, problems = check_feasible(inst, sol, regime)
            assert ok, problems
            # stored counts are consistent
            stored = (sol.n1_in, sol.n0_in)
            efficacy(inst, sol)
            assert (sol.n1_in, sol.n0_in) == stored


def test_deterministic_per_seed(ref_instance):
    cfg = SearchConfig(regime=Regime.NO_RESIDUAL, restarts=5, rng_seed=99)
    a = heuristic_solve(ref_instance, cfg)
    b = heuristic_solve(ref_instance, cfg)
    assert a.machine_cell == b.machine_cell
    assert a.part_cell == b.part_cell
    assert a.efficacy == b.efficacy


def test_single_row_or_column_shortcut():
    row = Instance("r", 1, 5, ((1, 0, 1, 1, 0),))
    sol = heuristic_solve(row, SearchConfig(regime=Regime.NO_RESIDUAL))
    assert sol.c == 1 and sol.machine_cell == [1]
    assert sol.part_cell == [1] * 5
    col = Instance("c", 5, 1, ((1,), (1,), (0,), (1,), (0,)))
    sol = heuristic_solve(col, SearchConfig(regime=Regime.NO_RESIDUAL))
    assert sol.c == 1 and sol.part_cell == [1]


def test_never_beats_the_oracle_and_usually_matches():
    rng = random.Random(33)
    matches = 0
    runs = 0
    for trial in range(30):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6),
                               rng.choice((0.3, 0.5, 0.7)), name=f"o{trial}")
        for regime in Regime:
            opt = frac(oracle_solve(inst, regime).efficacy)
            got = frac(heuristic_solve(
                inst, SearchConfig(regime=regime, restarts=6,
                                   rng_seed=trial)).efficacy)
            assert got <= opt
            runs += 1
            matches += got == opt
    assert matches >= 0.9 * runs, f"only {matches}/{runs} matched the optimum"


def test_time_budget_still_returns_feasible(ref_instance):
    cfg = SearchConfig(regime=Regime.NO_RESIDUAL, restarts=50, time_budget=0.0)
    sol = heuristic_solve(ref_instance, cfg)
    ok, problems = check_feasible(ref_instance, sol, Regime.NO_RESIDUAL)
    assert ok, problems


# (generator args, regime, canonical machine_cell, efficacy, fit_parts
# calls, optimal_parts rounds, seed-tree nodes) with rng_seed=0 and 8
# restarts; the counts are the machine-independent cost of the seed, so a
# change to the move order, the acceptance rule, the screen of _moves, the
# tree's starts and budget or the parametric loop of fit_parts must update
# this table knowingly. Every row is certified before its first random
# restart, after one to three climbs from the tree's groupings; fit_parts
# is called on the one-cell grouping and on the neighbours that pass the
# screen
PINNED_RESULTS = [
    ((1, 8, 10, 3, .7, .15), "no-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 4, 9, 84),
    ((1, 8, 10, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 4, 10, 84),
    ((2, 9, 12, 3, .7, .15), "no-residual", [1, 1, 2, 3, 2, 4, 1, 2, 1], "23/35", 8, 14, 260),
    ((2, 9, 12, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 2, 4, 1, 2, 1], "2/3", 7, 16, 189),
    ((3, 10, 12, 4, .7, .12), "no-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "5/8", 27, 38, 346),
    ((3, 10, 12, 4, .7, .12), "allow-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "20/31", 5, 12, 156),
    ((7, 10, 12, 4, .6, .2), "no-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 4, 8, 1971),
    ((7, 10, 12, 4, .6, .2), "allow-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 5, 14, 2006),
]


def test_results_are_pinned(monkeypatch):
    calls = rounds = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fit_parts(*args, **kwargs)

    def counted_rounds(*args):
        nonlocal rounds
        rounds += 1
        return optimal_parts(*args)

    monkeypatch.setattr(heuristic, "fit_parts", counted)
    monkeypatch.setattr(heuristic, "optimal_parts", counted_rounds)
    for gen, regime, machine_cell, eff, *counts in PINNED_RESULTS:
        inst, _ = planted_instance(*gen)
        calls = rounds = 0
        sol = heuristic_solve(inst, SearchConfig(regime=Regime(regime),
                                                 restarts=8, rng_seed=0))
        assert (sol.machine_cell, sol.efficacy, [calls, rounds,
                                                 sol.tree_nodes]) == (
            machine_cell, parse_ratio(eff), counts), (gen, regime)
        assert sol.tree.d < 0, (gen, regime)  # the tree finished: certified


def test_screen_never_skips_a_winner():
    # _moves drops a neighbour only when its relaxed value shows that no
    # part placement beats the grouping's efficacy lam; the neighbours it
    # keeps come in the order of the unscreened stream. Under
    # allow-residual a second grouping puts some machines in no cell
    rng = random.Random(41)
    shapes = [(1, 1), (1, 6), (6, 1), (7, 9)]
    shapes += [(rng.randrange(1, 8), rng.randrange(1, 10)) for _ in range(150)]
    skipped = {"in cells": 0, "with residual machines": 0}
    for trial, (m, p) in enumerate(shapes):
        inst = random_instance(rng, m, p, rng.choice((0.3, 0.5, 0.7)))
        for regime in Regime:
            cap = label_cap(inst, regime)
            k = (1, cap, rng.randint(1, cap))[trial % 3]
            cells = heuristic._random_machine_cells(m, k, rng)
            groupings = {"in cells": cells}
            if regime is Regime.ALLOW_RESIDUAL and m > 1:
                out = rng.sample(range(m), rng.randrange(1, m))
                groupings["with residual machines"] = renumber(
                    [0 if i in out else c for i, c in enumerate(cells)])
            for kind, cells in groupings.items():
                sol = fit_parts(inst, cells, regime)
                lam = sol.efficacy
                every = [c for batch in unscreened_moves(
                    inst, sol.machine_cell, cap) for c in batch]
                kept = [c for batch in heuristic._moves(inst, sol, cap, None)
                        for c in batch]
                rest = iter(every)
                assert all(c in rest for c in kept), (inst.a, regime, cells)
                for cand_cells in every:
                    if cand_cells not in kept:
                        skipped[kind] += 1
                        cand = fit_parts(inst, renumber(cand_cells), regime,
                                         lam)
                        assert not cand.efficacy > lam, (inst.a, regime,
                                                         cells, cand_cells)
    assert skipped["in cells"] > 1000, skipped
    assert skipped["with residual machines"] > 300, skipped


def test_large_cell_split_keeps_its_poles():
    # the Hamming matrix picks the same poles and halves as a pairwise loop
    rng = random.Random(8)
    for trial in range(30):
        inst = random_instance(rng, rng.randrange(11, 17), rng.randrange(2, 9),
                               rng.choice((0.2, 0.5)))
        rows = sorted(rng.sample(range(inst.m), rng.randrange(11, inst.m + 1)))
        masks = heuristic._split_candidates(np.array(rows), inst.matrix)
        assert [sorted(np.array(rows)[masks[0]].tolist())] == \
            [sorted(h) for h in split_halves(rows, inst.a)], inst.a


def test_climb_matches_the_unscreened_climb():
    # the screen only drops neighbours that cannot win, so from every random
    # start a restart draws the climb accepts the groupings of one that fits
    # every neighbour, and ends on the same grouping, part labels included
    for restarts, step in ((2, 1), (8, 2)):
        for n in range(0, 40, step):
            m, p = 6 + n * 6 // 39, 8 + n * 10 // 39
            inst, _ = planted_instance(100 + n, m, p, 2 + n % 3, .75, .1)
            for regime in Regime:
                rng = random.Random(n)
                for _ in range(restarts):
                    start = heuristic._random_machine_cells(
                        m, rng.randint(1, min(m, p)), rng)
                    got = climb(inst, start, regime, None)
                    want = unscreened_climb(inst, start, regime)
                    assert (got.machine_cell, got.part_cell, got.efficacy) == (
                        want.machine_cell, want.part_cell, want.efficacy), (
                            n, regime, start)


def test_relocations_and_merges_score_as_one_node_each(monkeypatch):
    # the stacked child_bounds calls of _moves give, slab by slab, the
    # bounds of one call per machine (per merged cell) on the sums with its
    # row taken out, up to the last cell that machine may move to
    calls = []

    def spy(*args):
        calls.append(child_bounds(*args))
        return calls[-1]

    monkeypatch.setattr(heuristic, "child_bounds", spy)
    rng = random.Random(17)
    seen = {"singleton": 0, "k=cap": 0, "merges": 0}
    for trial in range(120):
        inst = random_instance(rng, rng.randrange(2, 9), rng.randrange(2, 9),
                               rng.choice((0.3, 0.5, 0.7)))
        for regime in Regime:
            cap = label_cap(inst, regime)
            k = (cap, rng.randint(1, cap))[trial % 2]
            sol = fit_parts(inst, heuristic._random_machine_cells(inst.m, k, rng),
                            regime)
            calls.clear()
            list(heuristic._moves(inst, sol, cap, None))
            lam = sol.efficacy
            w = make_weights(inst, lam)
            ones, zeros = heuristic._counts(inst, sol.machine_cell)
            sums = lam.den * ones - lam.num * zeros
            const = lam.num * inst.n1
            size = np.bincount(sol.machine_cell)
            relocations, *merges = calls
            for i, src in enumerate(sol.machine_cell):
                top = k if size[src] == 1 else min(k + 1, cap)
                one = np.vstack((sums, np.zeros((1, inst.p), np.int64)))[:top]
                one[src - 1] -= w[i]
                assert relocations[i][:top] == child_bounds(
                    one, w[i], -const), (inst.a, regime, i)
                seen["singleton"] += bool(size[src] == 1)
            seen["k=cap"] += k == cap
            if k > 1:
                for d in range(k):
                    one = sums.copy()
                    one[d] = 0
                    assert merges[0][d] == child_bounds(one, sums[d], -const), (
                        inst.a, regime, d)
                seen["merges"] += 1
    assert min(seen.values()) >= 20, seen


def test_a_climb_cut_by_the_deadline_still_gives_a_checked_answer(monkeypatch):
    # the clock runs out partway through a restart; the answer is still a
    # canonical grouping whose counts re-verify
    gen, regime, *_ = PINNED_RESULTS[2]
    inst, _ = planted_instance(*gen)
    cfg = SearchConfig(regime=Regime(regime), restarts=8, rng_seed=0,
                       time_budget=60)
    polls = 0
    expire_at = None

    def expired():
        return expire_at is not None and polls > expire_at

    def clock(deadline):
        nonlocal polls
        polls += 1
        return expired()

    climbs = []  # per climb: whether it was cut

    def spy(*args):
        sol = climb(*args)
        climbs.append(expired())
        return sol

    monkeypatch.setattr(heuristic, "_past", clock)
    monkeypatch.setattr(heuristic, "climb", spy)
    heuristic_solve(inst, cfg)
    total = polls
    cut = 0
    for expire_at in range(total // 8, total, total // 8):
        polls = 0
        climbs.clear()
        sol = heuristic_solve(inst, cfg)
        cut += climbs[-1]
        assert canonicalize(sol) == sol
        stored = (sol.n1_in, sol.n0_in, sol.efficacy)
        assert efficacy(inst, sol) == sol.efficacy
        assert (sol.n1_in, sol.n0_in, sol.efficacy) == stored
    assert cut >= 5, cut


def test_climb_ends_on_the_last_grouping_it_scores(monkeypatch):
    # _moves scores the neighbours of each grouping on the climb's path, in
    # climb order; the last one scored is the climb's result, whose cell
    # count the spy records, and the same start gives the same climb
    scored = []

    def spy(inst, sol, cap, deadline):
        scored.append(max(sol.machine_cell))
        return moves(inst, sol, cap, deadline)

    moves = heuristic._moves
    monkeypatch.setattr(heuristic, "_moves", spy)
    rng = random.Random(29)
    lengths = set()
    for trial in range(30):
        inst, _ = planted_instance(trial, 9, 12, 3, .7, .15)
        for regime in Regime:
            start = heuristic._random_machine_cells(
                inst.m, rng.randint(1, 5), rng)
            scored.clear()
            sol = climb(inst, start, regime, None)
            assert scored[-1] == sol.c, (inst.a, regime)
            assert climb(inst, start, regime, None) == sol
            lengths.add(len(scored))
    assert len(lengths) >= 3 and max(lengths) >= 4, lengths


def _summaries(caplog):
    # the one line per call: climbs from tree groupings, random climbs run
    # and restarts, tree nodes and budget and whether the tree certified
    # the seed
    return [r.args for r in caplog.records if r.name == "cellform.heuristic"]


class Stalled:
    """A seed tree whose every run stops on its budget without a grouping."""

    def __init__(self, inst, regime):
        pass

    def run(self, lam, incumbent_F=None, time_limit=None, node_limit=None):
        return SubproblemResult(incumbent_F, None, True, SubproblemStats())


def test_a_certified_seed_is_optimal(caplog):
    # a tree run that completes without a grouping at the seed's efficacy
    # proves that no grouping beats it, so the seed is the oracle's optimum;
    # the tree's budget is restarts * m**2 * cap nodes, so on these
    # sizes most seeds are proven before the first random restart
    rng = random.Random(61)
    certified = early = 0
    for trial in range(40):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 7),
                               rng.choice((0.3, 0.5, 0.7)))
        for regime in Regime:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
                sol = heuristic_solve(inst, SearchConfig(
                    regime=regime, restarts=4, rng_seed=trial))
            [(_, randoms, restarts, nodes, budget, verdict)] = (
                _summaries(caplog))
            where = (inst.a, regime)
            assert restarts == 4, where
            assert budget == 4 * inst.m ** 2 * label_cap(inst, regime)
            assert nodes == sol.tree_nodes <= budget, where
            if verdict == "yes":
                certified += 1
                early += randoms == 0
                assert sol.efficacy == oracle_solve(inst, regime).efficacy, (
                    where)
            else:
                # only a tree that spent its budget stalls, and then every
                # restart runs
                assert randoms == restarts and nodes == budget, where
    assert certified >= 60 and early >= 40, (certified, early)


def test_the_tree_never_leaves_the_seed_below_the_restarts(monkeypatch,
                                                           caplog):
    # a tree that never returns a grouping makes every restart climb from
    # the random groupings rng_seed draws. The real tree starts climbs of
    # its own, but it ends the call only on a proof, and once it stalls the
    # same restarts climb from the same groupings; so the seed is never
    # worse than with the stalled tree
    rng = random.Random(83)
    better = unclimbed = 0
    for trial in range(100):
        if trial % 2:
            inst = random_instance(rng, rng.randrange(2, 9),
                                   rng.randrange(2, 11),
                                   rng.choice((0.3, 0.5, 0.7)))
        else:
            m = rng.randrange(6, 13)
            inst, _ = planted_instance(trial, m, m + rng.randrange(0, 5),
                                       rng.randrange(2, 5), .7, .15)
        for regime in Regime:
            cfg = SearchConfig(regime=regime, restarts=rng.randint(1, 8),
                               rng_seed=trial)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
                got = heuristic_solve(inst, cfg)
                with monkeypatch.context() as patch:
                    patch.setattr(heuristic, "Tree", Stalled)
                    want = heuristic_solve(inst, cfg)
            [(_, randoms, *_), (from_tree, *stalled)] = _summaries(caplog)
            assert from_tree == 0 and stalled[0] == cfg.restarts
            assert got.efficacy >= want.efficacy, (inst.a, regime,
                                                   cfg.restarts)
            better += got.efficacy > want.efficacy
            unclimbed += cfg.restarts - randoms
    assert better >= 5 and unclimbed >= 700, (better, unclimbed)


def test_a_seed_that_cannot_be_certified_runs_every_climb(monkeypatch, caplog):
    # planted 24x40/k7 is too hard for the tree's budget of
    # 8 * 24**2 * 24 nodes: the tree stalls after spending all of it,
    # never more, all 8 restarts climb, and the seed is at least their
    # multi-start answer. With a tree that never returns a grouping the
    # seed is exactly the answer of the climbs without screen or tree
    inst, _ = planted_instance(0, 24, 40, 7, .75, .08)
    regime = Regime.NO_RESIDUAL
    budget = 8 * 24 ** 2 * 24
    nodes = 0

    class Counted(Tree):
        def run(self, *args, **kwargs):
            nonlocal nodes
            res = super().run(*args, **kwargs)
            nodes += res.stats.nodes
            assert nodes <= budget
            return res

    cfg = SearchConfig(regime=regime, restarts=8, rng_seed=0)
    monkeypatch.setattr(heuristic, "Tree", Counted)
    with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
        got = heuristic_solve(inst, cfg)
    [(from_tree, *summary, verdict)] = _summaries(caplog)
    assert from_tree >= 1 and verdict == "no"
    assert summary == [8, 8, nodes, budget] and got.tree_nodes == budget
    want = unscreened_heuristic_solve(inst, regime, 8, 0)
    assert got.efficacy >= want.efficacy
    monkeypatch.setattr(heuristic, "Tree", Stalled)
    got = heuristic_solve(inst, cfg)
    assert (got.machine_cell, got.part_cell, got.efficacy) == (
        want.machine_cell, want.part_cell, want.efficacy)
