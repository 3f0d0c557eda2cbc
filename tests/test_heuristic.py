import random
from fractions import Fraction

import numpy as np
import pytest

from cellform import heuristic
from cellform.bnb import child_bounds, label_cap, make_weights, optimal_parts
from cellform.heuristic import SearchConfig, climb, fit_parts, heuristic_solve
from cellform.instances import Instance
from cellform.oracle import oracle_solve
from cellform.rational import Ratio, parse_ratio
from cellform.solutions import (Regime, canonicalize, check_feasible,
                                efficacy, renumber)

from helpers import (pair_counts, part_vectors, planted_instance,
                     random_instance, split_halves, unscreened_heuristic_solve,
                     unscreened_moves)


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
# calls, optimal_parts rounds) with rng_seed=0 and 8 restarts; the counts
# are the machine-independent cost of the climb, so a change to the move
# order, the acceptance rule, the screen of _moves, the climb memo or the
# parametric loop of fit_parts must update this table knowingly. fit_parts
# is called only on the neighbours that pass the screen (1204-1898 calls
# per row without it, with the same groupings), and not at all past a
# grouping that an earlier restart's finished climb passed through
# (40-201 calls per row; 58-231 without the memo)
PINNED_RESULTS = [
    ((1, 8, 10, 3, .7, .15), "no-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 74, 139),
    ((1, 8, 10, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 58, 123),
    ((2, 9, 12, 3, .7, .15), "no-residual", [1, 1, 2, 3, 2, 4, 1, 2, 1], "23/35", 78, 128),
    ((2, 9, 12, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 2, 4, 5, 2, 1], "2/3", 40, 87),
    ((3, 10, 12, 4, .7, .12), "no-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "5/8", 201, 290),
    ((3, 10, 12, 4, .7, .12), "allow-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "20/31", 83, 174),
    # here the climb takes a split whose batch holds several improving ones
    ((7, 10, 12, 4, .6, .2), "no-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 96, 185),
    ((7, 10, 12, 4, .6, .2), "allow-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 90, 187),
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
    for gen, regime, machine_cell, eff, want_calls, want_rounds in PINNED_RESULTS:
        inst, _ = planted_instance(*gen)
        calls = rounds = 0
        sol = heuristic_solve(inst, SearchConfig(regime=Regime(regime),
                                                 restarts=8, rng_seed=0))
        assert (sol.machine_cell, sol.efficacy, calls, rounds) == (
            machine_cell, parse_ratio(eff), want_calls, want_rounds), (gen, regime)


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


def test_climb_matches_the_unscreened_climb(monkeypatch):
    # the screen only drops neighbours that cannot win, and a later restart
    # that reaches a grouping an earlier finished climb passed through takes
    # that climb's result; so the answer is the one of a climb without
    # screen or memo, part labels included; at 2 and at 8 restarts some
    # climbs hit the memo
    hits = 0

    def spy(inst, cells, regime, deadline, memo):
        nonlocal hits
        known = set(memo)
        sol = climb(inst, cells, regime, deadline, memo)
        # a finished climb stores its end grouping, so a later climb ends
        # on a known grouping only if it reached the memo
        hits += tuple(sol.machine_cell) in known
        return sol

    monkeypatch.setattr(heuristic, "climb", spy)
    for restarts, step in ((2, 1), (8, 2)):
        hits = 0
        for n in range(0, 40, step):
            m, p = 6 + n * 6 // 39, 8 + n * 10 // 39
            inst, _ = planted_instance(100 + n, m, p, 2 + n % 3, .75, .1)
            for regime in Regime:
                got = heuristic_solve(inst, SearchConfig(
                    regime=regime, restarts=restarts, rng_seed=n))
                want = unscreened_heuristic_solve(inst, regime, restarts, n)
                assert (got.machine_cell, got.part_cell, got.efficacy) == (
                    want.machine_cell, want.part_cell, want.efficacy), (
                        restarts, n, regime)
        assert hits > 0, restarts


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


def test_a_cut_climb_stores_nothing_and_the_memo_dies_with_the_call(monkeypatch):
    # the clock runs out partway through a restart; the answer is still a
    # canonical grouping whose counts re-verify, the cut climb adds nothing
    # to the memo, and a later call without a budget is unaffected
    gen, regime, machine_cell, eff, want_calls, _ = PINNED_RESULTS[2]
    inst, _ = planted_instance(*gen)
    regime = Regime(regime)
    cfg = SearchConfig(regime=regime, restarts=8, rng_seed=0, time_budget=60)
    polls = 0
    expire_at = None

    def expired():
        return expire_at is not None and polls > expire_at

    def clock(deadline):
        nonlocal polls
        polls += 1
        return expired()

    climbs = []  # per climb: whether it grew the memo, whether it was cut

    def spy(inst, cells, regime, deadline, memo):
        before = len(memo)
        sol = climb(inst, cells, regime, deadline, memo)
        climbs.append((len(memo) > before, expired()))
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
        assert not any(grew for grew, was_cut in climbs if was_cut), expire_at
        cut += climbs[-1][1]
        assert canonicalize(sol) == sol
        stored = (sol.n1_in, sol.n0_in, sol.efficacy)
        assert efficacy(inst, sol) == sol.efficacy
        assert (sol.n1_in, sol.n0_in, sol.efficacy) == stored
    assert cut >= 5, cut
    monkeypatch.undo()

    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fit_parts(*args, **kwargs)

    monkeypatch.setattr(heuristic, "fit_parts", counted)
    sol = heuristic_solve(inst, SearchConfig(regime=regime, restarts=8,
                                             rng_seed=0))
    assert (sol.machine_cell, sol.efficacy, calls) == (
        machine_cell, parse_ratio(eff), want_calls)


def test_a_memo_hit_at_the_end_grouping_keeps_the_climbs_own_parts():
    # fit_parts from different ratios may break part ties differently: this
    # start is its own climb's end, fitted from 0 to parts [3, 2, 1], and
    # from 1/32 to [2, 3, 1] at the same efficacy. A result stored for it
    # by a climb that arrived from 1/32 must not replace the climb's own fit
    inst = Instance("tie", 4, 3, ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 0)))
    start, regime = [1, 2, 1, 3], Regime.NO_RESIDUAL
    want = climb(inst, start, regime, None)
    other = fit_parts(inst, start, regime, Ratio(1, 32))
    assert (want.machine_cell, want.part_cell, want.efficacy) == (
        start, [3, 2, 1], Ratio(1, 4))
    assert (other.part_cell, other.efficacy) == ([2, 3, 1], Ratio(1, 4))
    assert climb(inst, start, regime, None, {tuple(start): other}) == want


def test_a_memo_hit_before_the_end_takes_the_stored_result():
    # a climb that reaches a grouping whose stored result ends elsewhere
    # returns that result as it is and stores its own path under it
    inst, _ = planted_instance(5, 9, 12, 3, .75, .1)
    for regime in Regime:
        start = [1] * inst.m
        plain = climb(inst, start, regime, None)
        assert plain.machine_cell != start
        stored = fit_parts(inst, [1, 2] * 4 + [3], regime)
        memo = {tuple(plain.machine_cell): stored}
        assert climb(inst, start, regime, None, memo) is stored
        assert tuple(start) in memo and all(v is stored for v in memo.values())
