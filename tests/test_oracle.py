import ast
import hashlib
import random
from fractions import Fraction

import pytest

from cellform.dinkelbach import SolveStatus, solve
from cellform.heuristic import SearchConfig, heuristic_solve
from cellform import oracle
from cellform.instances import Instance
from cellform.oracle import OracleSizeError, oracle_solve
from cellform.solutions import Regime, canonicalize, check_feasible, efficacy

from helpers import naive_best, planted_instance, random_instance


def frac(r):
    return Fraction(r.num, r.den)


def test_hand_case_2x2():
    inst = Instance("h", 2, 2, ((1, 1), (1, 0)))
    # single cell: 3 ones, 1 void, 3/4; any split is worse
    for regime in Regime:
        sol = oracle_solve(inst, regime)
        assert frac(sol.efficacy) == Fraction(3, 4)
        assert sol.c == 1


def test_hand_case_diagonal():
    inst = Instance("d", 3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for regime in Regime:
        sol = oracle_solve(inst, regime)
        assert sol.efficacy == 1
        assert sol.c == 3


def test_hand_case_needs_residual():
    # the lone machine 3 only adds voids; parking it helps
    inst = Instance("r", 3, 2, ((1, 0), (0, 1), (0, 0)))
    no = oracle_solve(inst, Regime.NO_RESIDUAL)
    al = oracle_solve(inst, Regime.ALLOW_RESIDUAL)
    assert frac(al.efficacy) == Fraction(1)
    assert frac(no.efficacy) == Fraction(2, 3)
    # machine 3 ends up alone, either residual or in a machine-only cell
    assert al.n0_in == 0


def test_matches_naive_enumeration_small():
    rng = random.Random(1234)
    for trial in range(30):
        m = rng.randrange(2, 5)
        p = rng.randrange(2, 5)
        inst = random_instance(rng, m, p, rng.choice((0.2, 0.5, 0.8)),
                               name=f"t{trial}")
        for regime in Regime:
            sol = oracle_solve(inst, regime)
            assert frac(sol.efficacy) == naive_best(inst, regime), (
                inst.a, regime)


def test_returned_solution_is_feasible_and_consistent():
    rng = random.Random(77)
    for _ in range(20):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6), 0.5)
        for regime in Regime:
            sol = oracle_solve(inst, regime)
            ok, problems = check_feasible(inst, sol, regime)
            assert ok, problems
            stored = sol.efficacy
            assert efficacy(inst, sol) == stored


def test_result_is_canonical():
    rng = random.Random(15)
    for _ in range(10):
        inst = random_instance(rng, 4, 4, 0.5)
        for regime in Regime:
            sol = oracle_solve(inst, regime)
            canon = canonicalize(sol)
            assert sol.machine_cell == canon.machine_cell
            assert sol.part_cell == canon.part_cell


def test_allow_residual_dominates():
    rng = random.Random(99)
    for _ in range(25):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6),
                               rng.choice((0.2, 0.5, 0.8)))
        no = oracle_solve(inst, Regime.NO_RESIDUAL)
        al = oracle_solve(inst, Regime.ALLOW_RESIDUAL)
        assert frac(al.efficacy) >= frac(no.efficacy)


def test_shares_no_code_with_the_solver():
    # the oracle checks the solver, so it must not reuse the solver's parts
    tree = ast.parse(open(oracle.__file__).read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert imported == {"__future__", "numpy", "instances", "partitions",
                        "solutions"}


def test_size_guard():
    big = Instance("big", 9, 2, tuple((1,) * 2 for _ in range(9)))
    with pytest.raises(OracleSizeError):
        oracle_solve(big, Regime.NO_RESIDUAL)
    wide = Instance("wide", 2, 49, tuple((1,) * 49 for _ in range(2)))
    with pytest.raises(OracleSizeError):
        oracle_solve(wide, Regime.NO_RESIDUAL)
    # explicit limit override is honored
    sol = oracle_solve(big, Regime.NO_RESIDUAL, limit=(9, 2))
    assert sol.efficacy == 1


def sweep_rows():
    """One row per (instance, regime) of a seeded sweep: m 2-6, p 2-7,
    densities .2/.5/.8, both regimes, the oracle's grouping and counts."""
    rng = random.Random(2017)
    for m in range(2, 7):
        for p in range(2, 8):
            for density in (0.2, 0.5, 0.8):
                inst = random_instance(rng, m, p, density)
                for regime in Regime:
                    sol = oracle_solve(inst, regime)
                    yield (f"{m}x{p} {density} {regime.value} "
                           f"{sol.machine_cell} {sol.part_cell} "
                           f"{sol.n1_in} {sol.n0_in}")


# Made by the former oracle, which enumerated every part labeling of every
# machine partition: the sha256 of the 180 sweep rows joined by newlines,
# and a few of those rows. Ties must break the same way.
SWEEP_SHA256 = \
    "9212522c36ceb2e0cc7081041fa56ef5f227b8ae886bcacb99984cb720559ad7"
SWEEP_ROWS = {
    0: "2x2 0.2 no-residual [1, 2] [1, 2] 1 1",
    59: "3x5 0.8 allow-residual [1, 1, 1] [1, 1, 1, 1, 0] 10 2",
    99: "4x6 0.5 allow-residual [1, 1, 1, 1] [1, 1, 0, 1, 1, 0] 12 4",
    149: "6x2 0.8 allow-residual [1, 2, 1, 2, 2, 1] [1, 2] 6 0",
    179: "6x7 0.8 allow-residual [1, 1, 1, 1, 1, 1] [1, 1, 1, 1, 1, 1, 1] 34 8",
}


def test_sweep_matches_the_pinned_enumeration():
    rows = list(sweep_rows())
    assert len(rows) == 180
    for index, row in SWEEP_ROWS.items():
        assert rows[index] == row
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == SWEEP_SHA256


# name: (matrix, {regime: (machine_cell, part_cell, n1_in, n0_in)}), the
# groupings pinned from the former enumerating oracle
EDGE_CASES = {
    "1x1": (((1,),), {
        Regime.NO_RESIDUAL: ([1], [1], 1, 0),
        Regime.ALLOW_RESIDUAL: ([1], [1], 1, 0)}),
    "1xp": (((1, 0, 1, 1, 0),), {
        Regime.NO_RESIDUAL: ([1], [1, 1, 1, 1, 1], 3, 2),
        Regime.ALLOW_RESIDUAL: ([1], [1, 0, 1, 1, 0], 3, 0)}),
    # cell 2 holds machines but gets no part
    "mx1": (((1,), (0,), (1,), (1,), (0,)), {
        Regime.NO_RESIDUAL: ([1, 1, 1, 1, 1], [1], 3, 2),
        Regime.ALLOW_RESIDUAL: ([1, 2, 1, 1, 2], [1], 3, 0)}),
    "all-ones": (((1, 1, 1, 1),) * 3, {
        Regime.NO_RESIDUAL: ([1, 1, 1], [1, 1, 1, 1], 12, 0),
        Regime.ALLOW_RESIDUAL: ([1, 1, 1], [1, 1, 1, 1], 12, 0)}),
    "zero-row-and-column": (((1, 0, 1, 0, 1), (0, 0, 0, 0, 0),
                             (1, 0, 0, 1, 1), (0, 0, 1, 1, 0)), {
        Regime.NO_RESIDUAL: ([1, 2, 1, 3], [1, 2, 3, 3, 1], 6, 1),
        Regime.ALLOW_RESIDUAL: ([1, 2, 1, 3], [1, 0, 3, 3, 1], 6, 0)}),
    # n1 = 0: every grouping is 0/(0 + n0_in), and 0/0 counts as 0
    "all-zero": (((0, 0, 0),) * 2, {
        Regime.NO_RESIDUAL: ([1, 1], [1, 1, 1], 0, 6),
        Regime.ALLOW_RESIDUAL: ([1, 1], [0, 0, 0], 0, 0)}),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_cases(name):
    a, pins = EDGE_CASES[name]
    inst = Instance(name, len(a), len(a[0]), a)
    for regime in Regime:
        sol = oracle_solve(inst, regime)
        assert (sol.machine_cell, sol.part_cell, sol.n1_in, sol.n0_in) \
            == pins[regime], regime
        assert frac(sol.efficacy) == naive_best(inst, regime), regime
        assert check_feasible(inst, sol, regime)[0], regime


def test_solve_pipeline_matches_the_oracle_above_the_old_guard():
    # the `cellform solve` pipeline (an 8-restart heuristic seed, then the
    # exact rounds) against the oracle on planted 8x10 instances, above the
    # 7x8 that the former enumeration could afford
    for seed in range(4):
        inst, _ = planted_instance(seed, 8, 10, 3, .7, .15)
        for regime in Regime:
            start = heuristic_solve(inst, SearchConfig(regime, restarts=8,
                                                       rng_seed=0))
            out = solve(inst, regime, seed_solution=start)
            assert out.status is SolveStatus.OPTIMAL, (seed, regime)
            assert out.solution.efficacy == \
                oracle_solve(inst, regime).efficacy, (seed, regime)
