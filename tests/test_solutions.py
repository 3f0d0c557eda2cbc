import random

import pytest

from cellform.instances import FormatError, Instance
from cellform.partitions import iter_set_partitions
from cellform.rational import Ratio
from cellform.solutions import (
    Regime,
    Solution,
    canonicalize,
    check_feasible,
    efficacy,
    efficacy_counts,
    parse_solution,
    renumber,
    report_line,
    void_upper_bound,
    write_solution,
)

from helpers import pair_counts, random_instance


def test_efficacy_counts_two_cell(ref_instance, two_cell):
    assert (two_cell.n1_in, two_cell.n0_in) == (15, 4)
    assert two_cell.efficacy == Ratio(15, 24)
    assert str(two_cell.efficacy) == "5/8"  # stored in lowest terms


def test_efficacy_ignores_residual_labels(ref_instance):
    sol = Solution(c=1, machine_cell=[1, 0, 0, 1, 0], part_cell=[1, 0, 0, 0, 0, 0, 1])
    val = efficacy(ref_instance, sol)
    # machines 1,4 with parts 1,7: ones at (1,1),(1,7),(4,1)
    assert (sol.n1_in, sol.n0_in) == (3, 1)
    assert val == Ratio(3, 21)


def test_efficacy_counts_match_reference(ref_instance):
    rng = random.Random(5)
    for _ in range(200):
        inst = random_instance(rng, rng.randrange(1, 6), rng.randrange(1, 6), 0.5)
        c = rng.randrange(1, 4)
        mc = [rng.randrange(0, c + 1) for _ in range(inst.m)]
        pc = [rng.randrange(0, c + 1) for _ in range(inst.p)]
        assert efficacy_counts(inst, mc, pc) == pair_counts(inst, mc, pc)


def test_single_cell_efficacy(ref_instance):
    sol = Solution(c=1, machine_cell=[1] * 5, part_cell=[1] * 7)
    assert efficacy(ref_instance, sol) == Ratio(20, 35)


def test_void_upper_bound_values():
    assert void_upper_bound(20, Ratio(15, 24)) == 12
    # scale invariance: raw and reduced forms agree
    assert void_upper_bound(20, Ratio(5, 8)) == 12
    assert void_upper_bound(20, Ratio(1, 1)) == 0
    assert void_upper_bound(7, Ratio(1, 2)) == 7
    assert void_upper_bound(20, Ratio(16, 23)) == 8


def test_void_upper_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        void_upper_bound(0, Ratio(1, 2))
    with pytest.raises(ValueError):
        void_upper_bound(10, Ratio(0, 1))
    with pytest.raises(ValueError):
        void_upper_bound(10, Ratio(5, 4))


def test_check_feasible_both_regimes(ref_instance):
    good = Solution(c=2, machine_cell=[1, 2, 2, 1, 2],
                    part_cell=[1, 2, 2, 2, 2, 2, 1])
    for regime in Regime:
        ok, problems = check_feasible(ref_instance, good, regime)
        assert ok and problems == []


def test_check_feasible_flags_residuals(ref_instance):
    sol = Solution(c=2, machine_cell=[1, 2, 2, 0, 2],
                   part_cell=[1, 2, 2, 2, 2, 2, 0])
    ok, problems = check_feasible(ref_instance, sol, Regime.ALLOW_RESIDUAL)
    assert ok
    ok, problems = check_feasible(ref_instance, sol, Regime.NO_RESIDUAL)
    assert not ok
    assert "machine 4 is residual" in problems
    assert "part 7 is residual" in problems


def test_check_feasible_flags_empty_cells(ref_instance):
    sol = Solution(c=3, machine_cell=[1, 2, 2, 1, 2],
                   part_cell=[1, 2, 2, 2, 2, 2, 1])
    ok, problems = check_feasible(ref_instance, sol, Regime.NO_RESIDUAL)
    assert not ok
    assert "cell 3 has no machines" in problems
    assert "cell 3 has no parts" in problems
    # a machine-only cell is fine when residuals are allowed
    sol2 = Solution(c=2, machine_cell=[1, 2, 2, 1, 2],
                    part_cell=[1, 1, 1, 1, 1, 1, 1])
    assert check_feasible(ref_instance, sol2, Regime.ALLOW_RESIDUAL)[0]
    ok, problems = check_feasible(ref_instance, sol2, Regime.NO_RESIDUAL)
    assert not ok and "cell 2 has no parts" in problems


def test_check_feasible_flags_bad_shapes_and_labels(ref_instance):
    short = Solution(c=1, machine_cell=[1, 1], part_cell=[1] * 7)
    ok, problems = check_feasible(ref_instance, short, Regime.ALLOW_RESIDUAL)
    assert not ok and "machine labels: expected 5, got 2" in problems

    wild = Solution(c=1, machine_cell=[1, 1, 1, 1, 3], part_cell=[1] * 7)
    ok, problems = check_feasible(ref_instance, wild, Regime.ALLOW_RESIDUAL)
    assert not ok
    assert "machine 5 label 3 out of range 0..1" in problems


def test_renumber_first_occurrence():
    assert renumber([5, 5, 2, 5, 2]) == [1, 1, 2, 1, 2]
    assert renumber([3, 1, 2]) == [1, 2, 3]
    assert renumber([]) == []
    assert renumber([0, 4, 0, 7, 4]) == [0, 1, 0, 2, 1]  # residual stays 0
    # idempotent on already-normal strings
    for labels in iter_set_partitions(5):
        one_based = [lab + 1 for lab in labels]
        assert renumber(one_based) == one_based


def test_canonicalize_orders_by_first_occurrence():
    sol = Solution(c=3, machine_cell=[2, 3, 3, 2, 3], part_cell=[2, 3, 3, 3, 3, 3, 2])
    out = canonicalize(sol)
    assert out.machine_cell == [1, 2, 2, 1, 2]
    assert out.part_cell == [1, 2, 2, 2, 2, 2, 1]
    assert out.c == 2  # phantom label 1 dropped
    # input untouched, output stable
    assert sol.machine_cell == [2, 3, 3, 2, 3]
    assert canonicalize(out).machine_cell == out.machine_cell


def test_canonicalize_part_only_cells_and_residuals():
    sol = Solution(c=4, machine_cell=[3, 0], part_cell=[4, 3, 0])
    out = canonicalize(sol)
    assert out.machine_cell == [1, 0]
    assert out.part_cell == [2, 1, 0]
    assert out.c == 2


def test_canonicalize_is_permutation_invariant():
    rng = random.Random(9)
    for _ in range(100):
        m, p, c = 4, 5, 3
        mc = [rng.randrange(0, c + 1) for _ in range(m)]
        pc = [rng.randrange(0, c + 1) for _ in range(p)]
        base = canonicalize(Solution(c=c, machine_cell=mc, part_cell=pc))
        perm = list(range(1, c + 1))
        rng.shuffle(perm)
        relab = Solution(
            c=c,
            machine_cell=[perm[l - 1] if l else 0 for l in mc],
            part_cell=[perm[l - 1] if l else 0 for l in pc],
        )
        again = canonicalize(relab)
        assert again.machine_cell == base.machine_cell
        assert again.part_cell == base.part_cell


def test_solution_round_trip(ref_instance, two_cell):
    text = write_solution(two_cell)
    assert text == "2\n1 2 2 1 2\n1 2 2 2 2 2 1\n"
    back = parse_solution(text, ref_instance)
    assert back.machine_cell == two_cell.machine_cell
    assert back.part_cell == two_cell.part_cell
    assert back.efficacy == Ratio(15, 24)
    assert write_solution(back) == text


def test_parse_solution_errors(ref_instance):
    with pytest.raises(FormatError):
        parse_solution("2\n1 2 2 1 2\n", ref_instance)
    with pytest.raises(FormatError) as err:
        parse_solution("2\n1 2 2 1\n1 2 2 2 2 2 1\n", ref_instance)
    assert "machine" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_solution("2\n1 2 3 1 2\n1 2 2 2 2 2 1\n", ref_instance)
    assert "out of range" in str(err.value)
    with pytest.raises(FormatError):
        parse_solution("x\n1 1 1 1 1\n1 1 1 1 1 1 1\n", ref_instance)
    with pytest.raises(FormatError):
        parse_solution("1\n1 1 1 1 1\n1 1 1 1 1 1 1\nextra\n", ref_instance)


def test_report_line_format(ref_instance, two_cell):
    line = report_line(ref_instance, two_cell)
    assert line == "n1=20 n1_in=15 n0_in=4 efficacy=15/24 (= 0.6250)"
