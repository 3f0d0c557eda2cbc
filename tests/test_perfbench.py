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
