import json
import subprocess
import sys
from pathlib import Path

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


def test_every_seeded_clean_op_proves_its_reference_optimum(tmp_path,
                                                            monkeypatch):
    # the whole seed-0 seeded-clean pool through Bench.run_op, the path the
    # benchmark times: every heuristic seed hands its tree to the solve,
    # which proves the 119 certified seeds in no node, and every op ends
    # Optimal at its reference optimum in one round
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cellform
    import run
    import workloads

    bench = run.Bench(cellform, workloads.WORKLOADS["seeded-clean"], 0,
                      tmp_path)
    bench.set_up(workloads.ops_of)
    bench.load_references()
    assert len(bench.ops) == len(bench.references) == 120
    results = [bench.run_op(i) for i in range(len(bench.ops))]
    for r in results:
        assert r.error == "" and r.status == "Optimal", r
        assert r.ratio == str(bench.references[r.index]), r
    assert sum(r.rounds for r in results) == 120
    assert sum(r.nodes for r in results) == 408
