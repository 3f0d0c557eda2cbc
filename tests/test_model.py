import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cellform.dinkelbach import SolveStatus, raw_ratio, solve
from cellform.heuristic import SearchConfig, heuristic_solve
from cellform.instances import Instance, load_instance
from cellform.model import (
    DecodeError,
    RelationAssignment,
    build_model,
    decode,
    encode,
    export_lp,
    objective_value,
    read_assignment,
    violated_rows,
)
from cellform.oracle import oracle_solve
from cellform.rational import Ratio
from cellform.solutions import Regime, Solution, canonicalize, efficacy

from helpers import planted_instance, random_instance

A2 = Path(__file__).resolve().parents[1] / "data" / "testset_a" / "A2.cfp"


def rand_feasible(rng, inst, regime):
    """A random feasible grouping, parts placed to keep cells covered."""
    k = rng.randrange(1, min(inst.m, inst.p) + 1)
    mc = [rng.randrange(1, k + 1) for _ in range(inst.m)]
    mc[:k] = range(1, k + 1)
    if regime is Regime.NO_RESIDUAL:
        pc = [rng.randrange(1, k + 1) for _ in range(inst.p)]
        pc[:k] = range(1, k + 1)
    else:
        pc = [rng.randrange(0, k + 1) for _ in range(inst.p)]
    sol = Solution(k, mc, pc)
    efficacy(inst, sol)
    return sol


# ---------------------------------------------------------------- build


def test_counts_and_constant(ref_instance):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    assert len(model.var_names) == 45       # 10 x + 35 y
    assert len(model.rows) == 222           # 3*7*10 triples + 5 + 7 covers
    assert model.constant == -300           # -p_num * n1

    loose = build_model(ref_instance, Ratio(15, 24), Regime.ALLOW_RESIDUAL)
    assert len(loose.var_names) == 45
    assert len(loose.rows) == 210           # cover rows dropped


def test_count_formulas_random():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(1, 7), 0.5)
        m, p = inst.m, inst.p
        model = build_model(inst, Ratio(1, 2), Regime.NO_RESIDUAL)
        assert len(model.var_names) == m * (m - 1) // 2 + m * p
        assert len(model.rows) == 3 * p * m * (m - 1) // 2 + m + p


def test_single_machine_has_no_x_vars():
    inst = Instance("one", 1, 3, ((1, 0, 1),))
    model = build_model(inst, Ratio(1, 2), Regime.NO_RESIDUAL)
    assert all(name.startswith("y_") for name in model.var_names)
    assert len(model.rows) == 1 + 3


def test_objective_coefficients(ref_instance):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    # ones weigh q_den, zeros weigh -p_num, x stays out of the objective
    assert model.objective["y_1_1"] == 24
    assert model.objective["y_1_2"] == -15
    assert all(name.startswith("y_") for name in model.objective)
    values = set(model.objective.values())
    assert values == {24, -15}


def test_lambda_zero_drops_zero_coefficients(ref_instance):
    model = build_model(ref_instance, Ratio(0, 1), Regime.NO_RESIDUAL)
    assert model.constant == 0
    # zeros of the matrix carry coefficient 0 and are omitted
    assert len(model.objective) == ref_instance.n1
    assert set(model.objective.values()) == {1}


def test_lambda_above_one_rejected(ref_instance):
    with pytest.raises(ValueError):
        build_model(ref_instance, Ratio(5, 4), Regime.NO_RESIDUAL)


def test_triple_rows_per_pair(ref_instance):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    first = model.rows[0]
    assert first.coeffs == (("x_1_2", 2), ("y_1_1", -1), ("y_2_1", -1))
    assert first.rhs == -1
    second = model.rows[1]
    assert second.coeffs == (("y_1_1", 1), ("y_2_1", -1), ("x_1_2", -1))
    third = model.rows[2]
    assert third.coeffs == (("y_2_1", 1), ("y_1_1", -1), ("x_1_2", -1))
    # last 12 rows are the cover constraints, machines then parts
    machine_row = model.rows[210]
    assert machine_row.coeffs == tuple((f"y_1_{j}", 1) for j in range(1, 8))
    part_row = model.rows[215]
    assert part_row.coeffs == tuple((f"y_{i}_1", 1) for i in range(1, 6))
    assert machine_row.rhs == part_row.rhs == 1


# ---------------------------------------------------------------- export


def test_export_lp_shape(ref_instance):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    text = export_lp(model)
    lines = text.splitlines()
    assert lines[0] == "\\ objective_offset = -300"
    assert lines[1] == "Maximize"
    assert "Subject To" in lines
    assert "Binary" in lines
    assert lines[-1] == "End"
    assert text.endswith("End\n")
    binary = lines[lines.index("Binary") + 1:lines.index("End")]
    assert [b.strip() for b in binary] == list(model.var_names)
    assert len(binary) == 45
    assert " 2 x_1_2 - y_1_1 - y_2_1 >= -1" in text
    # folded objective keeps every term intact
    body = " ".join(l.strip() for l in lines[2:lines.index("Subject To")])
    assert body.count("y_") == 35


def test_export_lp_no_offset_comment_at_lambda_zero(ref_instance):
    model = build_model(ref_instance, Ratio(0, 1), Regime.NO_RESIDUAL)
    text = export_lp(model)
    assert not text.startswith("\\")
    assert text.splitlines()[0] == "Maximize"


def test_export_lp_terms_never_split(ref_instance):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    for line in export_lp(model).splitlines():
        # a coefficient may not end a line with its variable on the next
        assert not line.rstrip().endswith((" 2", " -", " +"))


@pytest.mark.parametrize("regime, digest, size", [
    (Regime.NO_RESIDUAL, "08b62cc306c1841b", 7614),
    (Regime.ALLOW_RESIDUAL, "ad9c4e3a1647abea", 7006),
])
def test_export_lp_bytes_are_pinned(regime, digest, size):
    # the LP file of A2 at 15/24, byte for byte: the objective sense and
    # the row sense are written by export_lp itself, not read from the model
    inst = load_instance(A2)
    text = export_lp(build_model(inst, Ratio(15, 24), regime)).encode()
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest()[:16] == digest


# ---------------------------------------------------------------- encode


def test_encode_two_cell(ref_instance, two_cell):
    assign = encode(ref_instance, two_cell)
    assert assign.x[0][3] == 1      # machines 1 and 4 share a cell
    assert assign.x[0][1] == 0
    assert assign.x[1][2] == 1
    assert assign.y[0][0] == 1      # machine 1 with part 1
    assert assign.y[0][1] == 0
    assert all(assign.x[i][i] == 1 for i in range(5))


def test_encode_decode_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6), 0.5)
        for regime in Regime:
            sol = rand_feasible(rng, inst, regime)
            back = decode(inst, encode(inst, sol), regime)
            want = canonicalize(sol)
            assert back.machine_cell == want.machine_cell
            assert back.part_cell == want.part_cell
            assert back.efficacy == sol.efficacy


def test_encoded_points_satisfy_model_and_objective():
    rng = random.Random(8)
    for _ in range(30):
        inst = random_instance(rng, rng.randrange(2, 6), rng.randrange(2, 6),
                               rng.choice((0.3, 0.6)))
        lam = Ratio(rng.randrange(0, 5), 5) if rng.random() < 0.8 else Ratio(1, 1)
        for regime in Regime:
            sol = rand_feasible(rng, inst, regime)
            model = build_model(inst, lam, regime)
            assign = encode(inst, sol)
            assert violated_rows(model, assign) == []
            F = objective_value(model, assign)
            want = lam.den * sol.n1_in - lam.num * (sol.n0_in + inst.n1)
            assert F == want
            # sign equivalence with the efficacy-lambda comparison
            tau = Fraction(sol.n1_in, inst.n1 + sol.n0_in)
            lamf = Fraction(lam.num, lam.den)
            assert (F > 0) == (tau > lamf)
            assert (F == 0) == (tau == lamf)


def test_violated_rows_catch_corruption(ref_instance, two_cell):
    model = build_model(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    assign = encode(ref_instance, two_cell)
    assert violated_rows(model, assign) == []
    assign.y[0][1] = 1  # machine 1 claims part 2 from the other cell
    assert violated_rows(model, assign) != []


# ---------------------------------------------------------------- decode


def test_decode_rejects_inconsistent_x_y(ref_instance, two_cell):
    assign = encode(ref_instance, two_cell)
    assign.x[0][3] = 0  # but they still share parts 1 and 7
    with pytest.raises(DecodeError) as err:
        decode(ref_instance, assign, Regime.NO_RESIDUAL)
    assert "y_1_1 = y_4_1 = 1 but x_1_4 = 0" in str(err.value)

    assign = encode(ref_instance, two_cell)
    assign.y[3][0] = 0
    with pytest.raises(DecodeError) as err:
        decode(ref_instance, assign, Regime.NO_RESIDUAL)
    assert "x_1_4 = 1 but y_1_1 != y_4_1" in str(err.value)


def test_decode_regime_checks(ref_instance, two_cell):
    assign = encode(ref_instance, two_cell)
    assign.y[0][0] = 0
    assign.y[3][0] = 0  # part 1 now belongs to nobody
    with pytest.raises(DecodeError) as err:
        decode(ref_instance, assign, Regime.NO_RESIDUAL)
    assert "part 1 is unassigned" in str(err.value)
    sol = decode(ref_instance, assign, Regime.ALLOW_RESIDUAL)
    assert sol.part_cell[0] == 0

    # all parts crowd into the second cell, starving the first
    starved = Solution(2, [1, 2, 2, 1, 2], [2] * 7)
    assign = encode(ref_instance, starved)
    with pytest.raises(DecodeError) as err:
        decode(ref_instance, assign, Regime.NO_RESIDUAL)
    assert "cell of machine 1 has no parts" in str(err.value)
    sol = decode(ref_instance, assign, Regime.ALLOW_RESIDUAL)
    assert sol.part_cell == [2] * 7


# ---------------------------------------------------------------- reader


def test_read_assignment_round_trip(ref_instance, two_cell):
    want = encode(ref_instance, two_cell)
    lines = ["\\ solver output", "# another comment style"]
    for i in range(5):
        for k in range(i + 1, 5):
            lines.append(f"x_{i+1}_{k+1} {float(want.x[i][k])}")
    for i in range(5):
        for j in range(7):
            if want.y[i][j]:  # unlisted variables default to zero
                lines.append(f"y_{i+1}_{j+1} 0.99999")
    got = read_assignment("\n".join(lines), ref_instance)
    assert got.x == want.x and got.y == want.y
    sol = decode(ref_instance, got, Regime.NO_RESIDUAL)
    assert sol.efficacy == Ratio(15, 24)


def test_read_assignment_errors(ref_instance):
    with pytest.raises(ValueError):
        read_assignment("x_1_2 0.5", ref_instance)  # not near binary
    with pytest.raises(ValueError):
        read_assignment("x_1_2", ref_instance)
    with pytest.raises(ValueError):
        read_assignment("z_1_2 1", ref_instance)
    with pytest.raises(ValueError):
        read_assignment("x_1_99 1", ref_instance)
    with pytest.raises(ValueError):
        read_assignment("x_1_2 one", ref_instance)


def test_model_agrees_with_oracle_argmax():
    rng = random.Random(19)
    for _ in range(10):
        inst = random_instance(rng, rng.randrange(2, 5), rng.randrange(2, 5), 0.5)
        for regime in Regime:
            opt = oracle_solve(inst, regime)
            lam = Ratio(opt.n1_in, inst.n1 + opt.n0_in)
            model = build_model(inst, lam, regime)
            # the optimum scores exactly zero at its own ratio
            if regime is Regime.NO_RESIDUAL or all(
                    l > 0 for l in opt.machine_cell):
                assign = encode(inst, opt)
                assert objective_value(model, assign) == 0
                assert violated_rows(model, assign) == []


# ---------------------------------------------------------------- HiGHS


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
@pytest.mark.parametrize("args", [(1, 10, 12, 4, .7, .12),
                                  (2, 10, 14, 4, .65, .15)],
                         ids=["10x12", "10x14"])
def test_highs_proves_the_solve_optimal_beyond_the_oracle(args, regime,
                                                          monkeypatch):
    # the paper's 0-1 model, solved by HiGHS as the benchmark's references
    # are checked: nothing beats the solve's ratio lambda*, and at a ratio
    # just below it a grouping does. Both instances are above the oracle's
    # size guard
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import cellform
    from make_references import milp_max_F

    inst, _ = planted_instance(*args)
    seed = heuristic_solve(inst, SearchConfig(regime=regime))
    out = solve(inst, regime, seed_solution=seed)
    assert out.status is SolveStatus.OPTIMAL
    lam = raw_ratio(inst, out.solution)
    below = Ratio(2 * lam.num - 1, 2 * lam.den)
    assert milp_max_F(cellform, inst, lam, regime, 60.0) == 0
    assert milp_max_F(cellform, inst, below, regime, 60.0) > 0
    model = build_model(inst, lam, regime)
    assert objective_value(model, encode(inst, out.solution)) == 0
