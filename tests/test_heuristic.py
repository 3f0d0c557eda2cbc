import random
from fractions import Fraction

import numpy as np
import pytest

from cellform import heuristic
from cellform.bnb import label_cap, optimal_parts
from cellform.heuristic import SearchConfig, fit_parts, heuristic_solve
from cellform.instances import Instance
from cellform.oracle import oracle_solve
from cellform.rational import Ratio, parse_ratio
from cellform.solutions import Regime, check_feasible, efficacy, renumber

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
# order, the acceptance rule, the screen of _moves or the parametric loop
# of fit_parts must update this table knowingly. fit_parts is called only
# on the neighbours that pass the screen (1204-1898 calls per row without
# it, with the same groupings)
PINNED_RESULTS = [
    ((1, 8, 10, 3, .7, .15), "no-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 82, 154),
    ((1, 8, 10, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 4, 1, 4, 5], "2/3", 63, 133),
    ((2, 9, 12, 3, .7, .15), "no-residual", [1, 1, 2, 3, 2, 4, 1, 2, 1], "23/35", 122, 192),
    ((2, 9, 12, 3, .7, .15), "allow-residual", [1, 1, 2, 3, 2, 4, 5, 2, 1], "2/3", 58, 123),
    ((3, 10, 12, 4, .7, .12), "no-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "5/8", 231, 327),
    ((3, 10, 12, 4, .7, .12), "allow-residual", [1, 2, 1, 3, 2, 3, 4, 5, 3, 6], "20/31", 91, 190),
    # here the climb takes a split whose batch holds several improving ones
    ((7, 10, 12, 4, .6, .2), "no-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 109, 210),
    ((7, 10, 12, 4, .6, .2), "allow-residual", [1, 2, 3, 4, 3, 1, 2, 2, 4, 2], "25/46", 100, 207),
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
    # keeps come in the order of the unscreened stream
    rng = random.Random(41)
    shapes = [(1, 1), (1, 6), (6, 1), (7, 9)]
    shapes += [(rng.randrange(1, 8), rng.randrange(1, 10)) for _ in range(150)]
    skipped = 0
    for trial, (m, p) in enumerate(shapes):
        inst = random_instance(rng, m, p, rng.choice((0.3, 0.5, 0.7)))
        for regime in Regime:
            cap = label_cap(inst, regime)
            k = (1, cap, rng.randint(1, cap))[trial % 3]
            sol = fit_parts(inst, heuristic._random_machine_cells(m, k, rng),
                            regime)
            lam = sol.efficacy
            every = [c for batch in unscreened_moves(inst, sol.machine_cell, cap)
                     for c in batch]
            kept = [c for batch in heuristic._moves(inst, sol, cap, None)
                    for c in batch]
            rest = iter(every)
            assert all(c in rest for c in kept), (inst.a, regime)
            for cells in every:
                if cells not in kept:
                    skipped += 1
                    cand = fit_parts(inst, renumber(cells), regime, lam)
                    assert not cand.efficacy > lam, (inst.a, regime, cells)
    assert skipped > 1000


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
    # the screen only drops neighbours that cannot win, so the climb
    # accepts the same groupings as one that fits every neighbour
    for n in range(40):
        m, p = 6 + n * 6 // 39, 8 + n * 10 // 39
        inst, _ = planted_instance(100 + n, m, p, 2 + n % 3, .75, .1)
        for regime in Regime:
            got = heuristic_solve(inst, SearchConfig(regime=regime, restarts=2,
                                                     rng_seed=n))
            want = unscreened_heuristic_solve(inst, regime, 2, n)
            assert (got.machine_cell, got.part_cell, got.efficacy) == (
                want.machine_cell, want.part_cell, want.efficacy), (n, regime)
