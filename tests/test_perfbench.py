import hashlib
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_every_workload(trace):
    # a short run of every workload must exit 0, every JSON line reporting
    # ops and none of them failed
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--trace", trace, "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 3, done.stdout
    for result in results:
        assert result["failed"] == 0 and result["attempted"] > 0, result


def test_the_traced_benchmark_runs_every_workload():
    # only a traced run wraps heuristic.fit_parts(inst, machine_cell,
    # regime, lam=None) and passes solve(..., subsolver=), and it also reads
    # SubproblemStats.pruned_void; every run reads SubproblemStats.engine
    run_every_workload("1")


def test_the_untraced_benchmark_runs_every_workload():
    # the end-to-end metrics come from untraced runs, which call the
    # heuristic and the solve without the tracer's wrappers
    run_every_workload("0")


def run_ops(tmp_path, monkeypatch, workload, count):
    # the first count seed-0 ops of a workload through Bench.run_op, the
    # path the benchmark times, checked against its reference optima
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cellform
    import run
    import workloads

    bench = run.Bench(cellform, workloads.WORKLOADS[workload], 0, tmp_path)
    bench.set_up(workloads.ops_of)
    bench.load_references()
    results = [bench.run_op(i) for i in range(count)]
    for r in results:
        assert r.error == "", r
    return bench, results


def seed_digest(seeds):
    text = "".join(f"{s.machine_cell} {s.part_cell}\n" for s in seeds)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_seeded_clean_op_proves_its_reference_optimum(tmp_path,
                                                            monkeypatch,
                                                            caplog):
    # the whole seed-0 seeded-clean pool: every heuristic seed's tree proves
    # the seed at its reference optimum before the first random restart and
    # hands the finished tree to the solve, which proves all 120 in one
    # round and no node. The seeds' groupings and their work are pinned as
    # counts, which do not depend on the machine: the climbs started from
    # the tree's groupings, the random climbs, the fit_parts calls and the
    # seed trees' nodes
    import cellform
    from cellform import heuristic

    heuristic_solve, fit_parts = cellform.heuristic_solve, heuristic.fit_parts
    seeds, fits = [], []  # per seed: the seed, its fit_parts calls
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fit_parts(*args, **kwargs)

    def recorded(inst, cfg):
        before = calls
        seeds.append(heuristic_solve(inst, cfg))
        fits.append(calls - before)
        return seeds[-1]

    monkeypatch.setattr(heuristic, "fit_parts", counted)
    monkeypatch.setattr(cellform, "heuristic_solve", recorded)
    with caplog.at_level(logging.INFO, logger="cellform.heuristic"):
        bench, results = run_ops(tmp_path, monkeypatch, "seeded-clean", 120)
    assert len(bench.ops) == len(bench.references) == 120
    for r in results:
        assert r.status == "Optimal", r
        assert r.ratio == str(bench.references[r.index]), r
    assert sum(r.rounds for r in results) == 120
    assert sum(r.nodes for r in results) == 0
    # the last 120 seeds are the ops'; set-up seeds A2 before them
    for i, seed in enumerate(seeds[-120:]):
        assert seed.efficacy == bench.references[i] and seed.tree.d < 0, i
    lines = [r.args for r in caplog.records
             if r.name == "cellform.heuristic"][-120:]
    assert {line[-1] for line in lines} == {"yes"}
    assert [sum(line[0] for line in lines), sum(line[1] for line in lines),
            sum(fits[-120:]), sum(s.tree_nodes for s in seeds[-120:])] == [
        126, 0, 667, 105_100]
    assert seed_digest(seeds[-120:]) == "3275a697b75c512b"


def outcome_digest(results):
    text = "".join(f"{r.status} {r.ratio}\n" for r in results)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("workload, count, nodes, rounds, status, digest", [
    ("capped-hard", 24, 1_200_000, 39, "NodeLimit", "4c669792efa69da5"),
    ("proof-planted", 120, 136_627, 250, "Optimal", "871940f9e0e53f05"),
])
def test_the_planted_seed_workloads_are_pinned(tmp_path, monkeypatch,
                                               workload, count, nodes, rounds,
                                               status, digest):
    # the first ops of the two workloads seeded with the planted grouping:
    # the budgeted one stops every op on its node budget, the other proves
    # every op. Their summed nodes and rounds, and each op's status and
    # exact efficacy, move with any change to what a search visits
    _, results = run_ops(tmp_path, monkeypatch, workload, count)
    assert {r.status for r in results} == {status}
    assert sum(r.nodes for r in results) == nodes
    assert sum(r.rounds for r in results) == rounds
    assert outcome_digest(results) == digest
