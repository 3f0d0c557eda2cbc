import io
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cellform import cli
from cellform.bnb import solve_subproblem
from cellform.cli import main
from cellform.dinkelbach import raw_ratio, trivial_solution
from cellform.heuristic import climb
from cellform.instances import Instance, load_instance, write_instance
from cellform.model import encode
from cellform.rational import Ratio
from cellform.solutions import (Regime, Solution, check_feasible,
                                parse_solution, write_solution)

from helpers import planted_instance


@pytest.fixture
def inst_file(tmp_path, ref_instance):
    f = tmp_path / "ref57.cfp"
    f.write_text(write_instance(ref_instance))
    return f


@pytest.fixture
def sol_file(tmp_path, two_cell):
    f = tmp_path / "two_cells.sol"
    f.write_text(write_solution(two_cell))
    return f


# ---------------------------------------------------------------- validate


def test_validate_single_file(inst_file, capsys):
    assert main(["validate", str(inst_file)]) == 0
    out = capsys.readouterr().out
    assert out == (f"{inst_file}: m=5 p=7 n1=20 density=20/35 (= 0.5714) ok\n")


def test_validate_directory_summary(tmp_path, inst_file, capsys):
    (tmp_path / "bad.cfp").write_text("2 2\n1 0\n")
    (tmp_path / "warn.cfp").write_text("2 2\n1 0\n0 0\n")
    assert main(["validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(l.startswith(f"{tmp_path / 'bad.cfp'}: error: ") for l in lines)
    assert "  warning: machine 2 uses no parts" in lines
    assert "  warning: part 2 visits no machines" in lines
    assert lines[-1] == "3 files, 2 ok, 1 failed"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.cfp")]) == 1
    assert "error:" in capsys.readouterr().out


# ---------------------------------------------------------------- efficacy


def test_efficacy_report(inst_file, sol_file, capsys):
    assert main(["efficacy", str(inst_file), str(sol_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n1=20 n1_in=15 n0_in=4 efficacy=15/24 (= 0.6250)"
    assert out[1] == "no-residual: feasible"
    assert out[2] == "allow-residual: feasible"


def test_efficacy_reports_violations(inst_file, tmp_path, capsys):
    bad = tmp_path / "res.sol"
    bad.write_text("2\n1 2 2 1 0\n1 2 2 2 2 2 1\n")
    assert main(["efficacy", str(inst_file), str(bad)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "no-residual: infeasible (machine 5 is residual)"
    assert out[2] == "allow-residual: feasible"


# ---------------------------------------------------------------- solve


def test_solve_writes_solution_and_reports(inst_file, capsys):
    assert main(["solve", str(inst_file)]) == 0
    captured = capsys.readouterr()
    line = captured.out.strip()
    assert line.startswith("status=Optimal efficacy=16/23 (0.6957) cells=2 ")
    assert "iters=" in line and "nodes=" in line and "time_ms=" in line
    assert re.search(r" seed_ms=\d+ seed_nodes=\d+$", line)
    sol_path = inst_file.with_suffix(".sol")
    assert f"wrote {sol_path}" in captured.err
    sol = parse_solution(sol_path.read_text(), load_instance(inst_file))
    assert sol.efficacy == Ratio(16, 23)


def test_solve_explicit_output_and_seed(inst_file, tmp_path, capsys):
    out_path = tmp_path / "out" / "best.sol"
    out_path.parent.mkdir()
    assert main(["solve", str(inst_file), "--seed-lambda", "15/24",
                 "--regime", "allow-residual", "-o", str(out_path)]) == 0
    assert out_path.exists()
    line = capsys.readouterr().out.strip()
    assert line.startswith("status=Optimal efficacy=16/23")
    assert line.endswith(" seed_ms=0 seed_nodes=0")  # no heuristic seed ran


def test_solve_verbose_logs_iterations(inst_file, caplog, capsys):
    with caplog.at_level(logging.INFO, logger="cellform.dinkelbach"):
        assert main(["-v", "solve", str(inst_file),
                     "--seed-lambda", "15/24"]) == 0
    msgs = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("iter=1 lambda=15/24 F=39") for m in msgs)
    assert any(m.startswith("iter=2 lambda=16/23 F=0") for m in msgs)
    capsys.readouterr()


def test_solve_verbose_logs_one_heuristic_line(inst_file, caplog, capsys):
    # -v logs one line per heuristic_solve call: the climbs from the seed
    # tree's groupings, the random climbs run out of the restarts, the
    # tree's nodes out of its budget and whether the tree certified the
    # seed. The report on stdout is the one a run without -v prints, up to
    # its timings
    with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
        assert main(["-v", "solve", str(inst_file)]) == 0
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "cellform.heuristic"]
    assert len(msgs) == 1
    assert re.fullmatch(r"heuristic tree_climbs=\d+ random_climbs=0/8 "
                        r"tree_nodes=\d+/\d+ certified=yes",
                        msgs[0]), msgs
    verbose = capsys.readouterr().out
    assert main(["solve", str(inst_file)]) == 0
    plain = capsys.readouterr().out
    untimed = re.compile(r"(time|seed)_ms=\d+")
    assert untimed.sub("", verbose) == untimed.sub("", plain)


@pytest.mark.parametrize("seed", ["bogus", "2/1"])
def test_solve_bad_seed(inst_file, capsys, seed):
    assert main(["solve", str(inst_file), "--seed-lambda", seed]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")  # no traceback


def test_solve_rejects_an_infeasible_seed(tmp_path, capsys, monkeypatch):
    # a seed that breaks the regime ends the solve with one error line
    inst = Instance("s", 5, 3, ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 0),
                                (0, 0, 0)))
    f = tmp_path / "s.cfp"
    f.write_text(write_instance(inst))
    monkeypatch.setattr(cli, "heuristic_solve", lambda inst, cfg: Solution(
        2, [1, 2, 2, 1, 1], [0, 2, 2]))
    assert main(["solve", str(f)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: infeasible seed_solution: part 1 is residual; "
                   "cell 1 has no parts"]


@pytest.mark.parametrize("command, flag, bad", [
    ("solve", "--seed-lambda", "abc"),
    ("export-lp", "--lambda", "1/x"),
])
def test_malformed_ratio_is_named(inst_file, capsys, command, flag, bad):
    assert main([command, str(inst_file), flag, bad]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot parse rational from '{bad}'"]


def test_solve_time_limit_zero_reports_timelimit(inst_file, capsys):
    assert main(["solve", str(inst_file), "--time-limit", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=TimeLimit ")


def test_solve_node_limit_reports_nodelimit(inst_file, capsys):
    # a ratio seed, since the heuristic seed's own tree certifies it and
    # the solve then needs no node
    assert main(["solve", str(inst_file), "--seed-lambda", "1/2",
                 "--node-limit", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=NodeLimit ")


def test_a_node_limit_of_the_nodes_a_proof_needs_proves_it(tmp_path, capsys):
    # the heuristic seed of A2 comes with its tree's certificate, so the
    # solve proves it in no node; from the ratio 1/2 the unbudgeted solve
    # takes 28 nodes, and a budget of 28 visits all of them and proves the
    # optimum too, 27 stop short
    a2 = Path(__file__).resolve().parents[1] / "data" / "testset_a" / "A2.cfp"
    out = str(tmp_path / "a2.sol")
    assert main(["solve", str(a2), "-o", out]) == 0
    report = capsys.readouterr().out
    assert report.startswith("status=Optimal ") and " nodes=0 " in report
    assert main(["solve", str(a2), "--seed-lambda", "1/2", "-o", out]) == 0
    report = capsys.readouterr().out
    assert report.startswith("status=Optimal ") and " nodes=28 " in report
    for limit, status in (("28", "Optimal"), ("27", "NodeLimit")):
        assert main(["solve", str(a2), "--seed-lambda", "1/2",
                     "--node-limit", limit, "-o", out]) == 0
        report = capsys.readouterr().out
        assert report.startswith(f"status={status} "), (limit, report)
        assert f" nodes={limit} " in report, (limit, report)


@pytest.fixture
def big_file(tmp_path):
    """A planted 24x40 instance whose heuristic seed's tree stalls on its
    node budget: the unbudgeted seed ends by itself in about 0.3 s at 8
    restarts, and in several seconds at 100 (BIG_RESTARTS)."""
    inst, _ = planted_instance(3, 24, 40, 7, .75, .08)
    f = tmp_path / "big.cfp"
    f.write_text(write_instance(inst))
    return f


# the unbudgeted seed of big_file takes 4.3 s at 100 restarts (2-CPU Xeon
# VM), so a limit of 1 s stops it
BIG_RESTARTS = "100"


def test_solve_time_limit_covers_the_seed(big_file, capsys):
    t0 = time.monotonic()
    assert main(["solve", str(big_file), "--time-limit", "1",
                 "--restarts", BIG_RESTARTS]) == 0
    assert time.monotonic() - t0 < 3
    out = capsys.readouterr().out
    assert out.startswith("status=TimeLimit ")
    # the seed may take the whole budget; the exact rounds get what is left
    fields = dict(f.split("=") for f in out.split() if "=" in f)
    seed_ms, time_ms = int(fields["seed_ms"]), int(fields["time_ms"])
    assert seed_ms >= 1000 and seed_ms + time_ms < 3000, fields
    inst = load_instance(big_file)
    sol = parse_solution(big_file.with_suffix(".sol").read_text(), inst)
    assert check_feasible(inst, sol, Regime.NO_RESIDUAL)[0]


def test_node_limit_covers_the_seed(tmp_path, caplog, capsys):
    # planted 24x40/k7 (generator seed 0): the seed's tree spends its nodes
    # out of --node-limit, up to its own budget of 8 * 24**2 * 24 = 110 592,
    # and the exact rounds get what it left, so the two together stay within
    # the limit; a seed whose tree stalls still runs every restart
    inst, _ = planted_instance(0, 24, 40, 7, .75, .08)
    f = tmp_path / "big0.cfp"
    f.write_text(write_instance(inst))
    for limit, seed_nodes in ((1000, 1000), (150_000, 110_592)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
            assert main(["-v", "solve", str(f), "--node-limit", str(limit)]
                        ) == 0
        [seed] = [r.getMessage() for r in caplog.records
                  if r.name == "cellform.heuristic"]
        assert (f"random_climbs=8/8 tree_nodes={seed_nodes}/{seed_nodes} "
                in seed), seed
        report = dict(kv.split("=") for kv in capsys.readouterr().out.split()
                      if "=" in kv)
        assert report["status"] == "NodeLimit", report
        assert int(report["seed_nodes"]) == seed_nodes, report
        assert seed_nodes + int(report["nodes"]) == limit, report


def test_verbose_node_counts_add_up(tmp_path, caplog, capsys):
    # the heuristic line's tree_nodes and the iter= lines' nodes are the
    # report's seed_nodes and nodes: on A2 the seed certifies itself, on
    # planted 24x40/k7 the node limit stops the seed's tree and the rounds
    a2 = Path(__file__).resolve().parents[1] / "data" / "testset_a" / "A2.cfp"
    inst, _ = planted_instance(0, 24, 40, 7, .75, .08)
    big = tmp_path / "big0.cfp"
    big.write_text(write_instance(inst))
    for argv in ([str(a2)], [str(big), "--node-limit", "1000"]):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cellform"):
            assert main(["-v", "solve", *argv,
                         "-o", str(tmp_path / "out.sol")]) == 0
        logged = 0
        for r in caplog.records:
            line = r.getMessage()
            if line.startswith(("heuristic ", "iter=")):
                logged += int(re.search(r" (?:tree_)?nodes=(\d+)", line)[1])
        report = dict(kv.split("=") for kv in capsys.readouterr().out.split()
                      if "=" in kv)
        assert logged == int(report["seed_nodes"]) + int(report["nodes"]), (
            argv, report)


def test_bench_time_limit_covers_the_seed(big_file, tmp_path, capsys):
    man = tmp_path / "big.csv"
    man.write_text("path,regime,expected\nbig.cfp,no-residual,1/2\n")
    t0 = time.monotonic()
    assert main(["bench", str(man), "--time-limit", "1",
                 "--restarts", BIG_RESTARTS]) == 0
    assert time.monotonic() - t0 < 3
    # a row's time_ms counts the seed and the exact rounds together
    header, row = capsys.readouterr().out.splitlines()[:2]
    fields = dict(zip(header.split(), row.split()))
    assert fields["status"] == "TimeLimit", fields
    assert 1000 <= int(fields["time_ms"]) < 3000, fields


# ---------------------------------------------------------------- oracle


def test_oracle_report(inst_file, tmp_path, capsys):
    out_path = tmp_path / "opt.sol"
    assert main(["oracle", str(inst_file), "-o", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == \
        "n1=20 n1_in=16 n0_in=3 efficacy=16/23 (= 0.6957)"
    sol = parse_solution(out_path.read_text(), load_instance(inst_file))
    assert sol.efficacy == Ratio(16, 23)


def test_oracle_size_guard(tmp_path, capsys):
    big = tmp_path / "big.cfp"
    big.write_text("9 2\n" + "1 1\n" * 9)
    assert main(["oracle", str(big)]) == 1
    assert "error: oracle limited to" in capsys.readouterr().err


# ---------------------------------------------------------------- bench


def test_bench_manifest(tmp_path, inst_file, capsys):
    man = tmp_path / "man.csv"
    man.write_text(
        "path,regime,expected,name\n"
        f"{inst_file.name},no-residual,0.6957,ref57\n"
        "ghost.cfp,no-residual,0.5,ghost\n")
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", str(man), "--csv", str(csv_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split()[:5] == ["name", "m", "p", "regime", "expected"]
    row = next(l for l in lines if l.startswith("ref57")).split()
    assert row[:8] == ["ref57", "5", "7", "no-residual", "0.6957", "0.6957",
                       "yes", "Optimal"]
    assert "matched 1/1 expectations (2 rows)" in captured.out
    assert any(l.startswith("error: ghost: ") for l in lines)
    assert csv_path.read_text().splitlines()[0] == \
        "name,m,p,regime,expected,achieved,match,status,iters,nodes,time_ms"


def test_bench_expectation_miss_fails(tmp_path, inst_file, capsys):
    man = tmp_path / "man.csv"
    man.write_text("path,regime,expected\n"
                   f"{inst_file.name},no-residual,0.7000\n")
    assert main(["bench", str(man)]) == 1
    assert "matched 0/1" in capsys.readouterr().out


# ---------------------------------------------------------------- export-lp


def test_export_lp_default_output(inst_file, capsys):
    assert main(["export-lp", str(inst_file), "--lambda", "15/24"]) == 0
    lp_path = inst_file.with_suffix(".lp")
    assert capsys.readouterr().out.strip() == \
        f"wrote {lp_path} (45 variables, 222 rows)"
    text = lp_path.read_text()
    assert text.splitlines()[0] == "\\ objective_offset = -300"
    assert text.count("\n") == len(text.split("\n")) - 1


def test_export_lp_lambda_default_zero(inst_file, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_file), "-o", str(out)]) == 0
    assert out.read_text().startswith("Maximize")
    capsys.readouterr()


# ---------------------------------------------------------------- lp loop


def write_assignment(path, inst, sol):
    """Answer an exported round with sol, as an external solver would."""
    assign = encode(inst, sol)
    lines = [f"x_{i+1}_{k+1} {assign.x[i][k]}"
             for i in range(inst.m) for k in range(i + 1, inst.m)]
    lines += [f"y_{i+1}_{j+1} {assign.y[i][j]}"
              for i in range(inst.m) for j in range(inst.p)]
    path.write_text("\n".join(lines) + "\n")


def test_solve_lp_export_backend(inst_file, ref_instance, tmp_path,
                                 monkeypatch, capsys):
    lp_dir = tmp_path / "rounds"
    lp_dir.mkdir()
    # play the external solver up front: the zero-seeded trajectory is
    # deterministic, so every round's assignment can be precomputed; the
    # loop polishes each answer with the climb before it sets the next ratio
    lam = Ratio(0, 1)
    rounds = 0
    while True:
        rounds += 1
        res = solve_subproblem(ref_instance, lam, Regime.NO_RESIDUAL)
        write_assignment(lp_dir / f"ref57.iter{rounds}.assign", ref_instance,
                         res.solution)
        if res.best_F == 0:
            break
        lam = raw_ratio(ref_instance, climb(ref_instance,
                                            res.solution.machine_cell,
                                            Regime.NO_RESIDUAL, None))

    monkeypatch.setattr("sys.stdin", io.StringIO("\n" * (rounds + 1)))
    out_path = tmp_path / "lp.sol"
    assert main(["solve", str(inst_file), "--backend", "lp-export",
                 "--seed-lambda", "zero", "--lp-dir", str(lp_dir),
                 "-o", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(
        f"status=Optimal efficacy=16/23 (0.6957) cells=2 iters={rounds} ")
    for r in range(1, rounds + 1):
        lp = lp_dir / f"ref57.iter{r}.lp"
        assert lp.exists()
        assert f"wrote {lp}" in captured.err
    assert parse_solution(out_path.read_text(),
                          ref_instance).efficacy == Ratio(16, 23)


def test_solve_lp_export_rejects_an_answer_below_the_incumbent(
        inst_file, ref_instance, tmp_path, monkeypatch, capsys):
    # the heuristic seeds 16/23, so round 1 runs at that ratio with the
    # seed's F = 0 as its baseline; the one-cell grouping scores F = -100
    lp_dir = tmp_path / "rounds"
    lp_dir.mkdir()
    answer = lp_dir / "ref57.iter1.assign"
    write_assignment(answer, ref_instance, trivial_solution(ref_instance))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n" * 3))
    out_path = tmp_path / "lp.sol"
    assert main(["solve", str(inst_file), "--backend", "lp-export",
                 "--lp-dir", str(lp_dir), "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: {answer} has F=-100, below the incumbent's 0"]
    assert not out_path.exists()


def test_solve_lp_export_without_input_fails(inst_file, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["solve", str(inst_file), "--backend", "lp-export",
                 "--lp-dir", str(tmp_path / "r")]) == 1
    assert "error: no assignment supplied" in capsys.readouterr().err


# ---------------------------------------------------------------- usage


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", "x.cfp", "--regime", "sideways"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "{f}", "--node-limit", "0"],
    ["solve", "{f}", "--node-limit", "-3"],
    ["solve", "{f}", "--time-limit", "-1"],
    ["solve", "{f}", "--time-limit", "nan"],
    ["bench", "{f}", "--time-limit", "-1"],
    ["bench", "{f}", "--time-limit", "nan"],
    ["solve", "{f}", "--restarts", "0"],
    ["bench", "{f}", "--restarts", "-3"],
])
def test_bad_budgets_are_usage_errors(inst_file, argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([a.format(f=inst_file) for a in argv])
    assert err.value.code == 2
    assert f"argument {argv[2]}: must be >= " in capsys.readouterr().err


FOOTPRINT_SCRIPT = """
import sys
from cellform.cli import main
a2, out_dir = sys.argv[1:]
for regime in ("no-residual", "allow-residual"):
    if main(["solve", a2, "--regime", regime, "-o", f"{out_dir}/{regime}.sol"]):
        sys.exit(1)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numba")))
"""


def test_solve_imports_neither_scipy_nor_numba(tmp_path):
    # cover repair and the search are plain numpy; importing scipy would
    # more than double the resident memory of a solve
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT,
         str(root / "data" / "testset_a" / "A2.cfp"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_missing_instance_is_error_not_crash(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "ghost.cfp")]) == 1
    assert "error:" in capsys.readouterr().err
