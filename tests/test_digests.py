import hashlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
spec = importlib.util.spec_from_file_location("digests", TOOL)
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def digest_of(workload, count):
    # the first count ops run one by one: their digest text and summed counts
    w = digests.WORKLOADS[workload]
    text, totals = "", dict.fromkeys(digests.TOTALS, 0)
    for op in digests.ops_of(w, 0)[:count]:
        t, counts = digests.run_op(w, op)
        text += t
        for name, n in counts.items():
            totals[name] += n
    return hashlib.sha256(text.encode()).hexdigest(), totals


@pytest.mark.parametrize("workload,count", [
    ("proof-planted", 3), ("seeded-clean", 2), ("capped-hard", 1)])
def test_prints_one_digest_and_the_totals(workload, count, capsys):
    # the heuristic seed, the planted seed and a node-budgeted solve: the
    # printed digest and totals are those of the ops run one by one, and a
    # second run prints the same
    assert digests.main(["--workload", workload, "--ops", str(count)]) == 0
    out = capsys.readouterr().out
    sha, totals = digest_of(workload, count)
    assert out.split("\n") == [
        f"{workload} seed 0: {count} ops",
        "  ".join(f"{name} {totals[name]}" for name in digests.TOTALS),
        f"sha256 {sha}", ""]
    assert totals["nodes"] + totals["seed_nodes"] > 0
    assert digests.main(["--workload", workload, "--ops", str(count)]) == 0
    assert capsys.readouterr().out == out


def test_one_op_more_moves_the_digest_and_bad_flags_exit_2(capsys):
    # an op's text holds its status and each of its rounds; one op more
    # gives another digest; an unknown workload or no ops is a usage error
    w = digests.WORKLOADS["proof-planted"]
    text, counts = digests.run_op(w, digests.ops_of(w, 0)[0])
    assert text.startswith("Optimal ") and counts["rounds"] >= 2
    assert digest_of("proof-planted", 1)[0] != digest_of("proof-planted", 2)[0]
    for bad in (["--workload", "nope"], ["--workload", "capped-hard",
                                         "--ops", "0"]):
        with pytest.raises(SystemExit) as stop:
            digests.main(bad)
        assert stop.value.code == 2
    capsys.readouterr()
