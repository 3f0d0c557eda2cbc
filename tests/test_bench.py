import csv
import io

import pytest

from cellform.bench import (
    CSV_COLUMNS,
    failed,
    format_csv,
    format_text,
    read_manifest,
    regime_from_string,
    run_bench,
)
from cellform.cli import main
from cellform.instances import write_instance
from cellform.solutions import Regime


@pytest.fixture
def manifest_dir(tmp_path, ref_instance):
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "ref57.cfp").write_text(write_instance(ref_instance))
    man = tmp_path / "run.csv"
    man.write_text(
        "# comment line\n"
        "path,regime,expected,name\n"
        "inst/ref57.cfp,no-residual,0.6957,ref57\n"
        "inst/ref57.cfp,allow-residual,16/23,\n"
        "inst/ghost.cfp,no-residual,0.5000,ghost\n"
    )
    return tmp_path


def test_regime_from_string():
    assert regime_from_string("no-residual") is Regime.NO_RESIDUAL
    assert regime_from_string(" Allow-Residual ") is Regime.ALLOW_RESIDUAL
    with pytest.raises(ValueError):
        regime_from_string("loose")


def test_read_manifest(manifest_dir):
    entries = read_manifest(manifest_dir / "run.csv")
    assert len(entries) == 3
    assert entries[0].name == "ref57"
    assert entries[0].regime is Regime.NO_RESIDUAL
    assert (entries[0].expected.num, entries[0].expected.den) == (6957, 10000)
    assert entries[0].path == (manifest_dir / "inst" / "ref57.cfp").resolve()
    # blank name falls back to the file stem
    assert entries[1].name == "ref57"
    assert (entries[1].expected.num, entries[1].expected.den) == (16, 23)


def test_read_manifest_requires_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,expected\nx.cfp,0.5\n")
    with pytest.raises(ValueError) as err:
        read_manifest(bad)
    assert "path,regime,expected" in str(err.value)


@pytest.mark.parametrize("row, missing", [
    ("inst/ref57.cfp,no-residual", "expected"),
    ("inst/ref57.cfp", "regime,expected"),
])
def test_a_short_row_names_its_line_and_column(manifest_dir, capsys, row,
                                               missing):
    man = manifest_dir / "short.csv"
    man.write_text("path,regime,expected\n# comment line\n\n" + row + "\n")
    want = f"{man} line 4: missing column {missing}"
    with pytest.raises(ValueError) as err:
        read_manifest(man)
    assert str(err.value) == want
    assert main(["bench", str(man)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {want}"]


@pytest.mark.parametrize("row, why", [
    ("inst/ref57.cfp,no-residual,abc", "cannot parse rational from 'abc'"),
    ("inst/ref57.cfp,loose,0.5", "unknown regime 'loose' "
                                 "(expected no-residual or allow-residual)"),
])
def test_a_bad_value_names_its_line(manifest_dir, capsys, row, why):
    man = manifest_dir / "bad.csv"
    man.write_text("path,regime,expected\n# comment line\n"
                   "inst/ref57.cfp,no-residual,0.6957\n" + row + "\n")
    want = f"{man} line 4: {why}"
    with pytest.raises(ValueError) as err:
        read_manifest(man)
    assert str(err.value) == want
    assert main(["bench", str(man)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {want}"]


def test_run_bench_rows(manifest_dir):
    rows = run_bench(read_manifest(manifest_dir / "run.csv"), time_limit=30)
    assert [r.match for r in rows] == ["yes", "yes", "-"]
    assert [r.status for r in rows] == ["Optimal", "Optimal", "Error"]
    assert rows[0].achieved == "0.6957"
    assert rows[0].m == 5 and rows[0].p == 7
    # nodes counts the seed's tree, which certifies the seed, and the solve,
    # which then needs no node
    assert [r.nodes for r in rows] == [21, 23, 0]
    assert rows[2].error  # missing file reported, run not aborted
    assert not failed(rows)


def test_failed_only_on_optimal_mismatch(manifest_dir):
    man = manifest_dir / "wrong.csv"
    man.write_text("path,regime,expected\ninst/ref57.cfp,no-residual,0.9999\n")
    rows = run_bench(read_manifest(man), time_limit=30)
    assert rows[0].match == "no" and rows[0].status == "Optimal"
    assert failed(rows)


def test_text_and_csv_agree(manifest_dir):
    rows = run_bench(read_manifest(manifest_dir / "run.csv"), time_limit=30)
    text = format_text(rows)
    lines = text.splitlines()
    assert lines[0].split() == list(CSV_COLUMNS)
    assert "matched 2/2 expectations (3 rows)" in text
    assert any(l.startswith("error: ghost: ") for l in lines)

    parsed = list(csv.reader(io.StringIO(format_csv(rows))))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 4
    for row, r in zip(parsed[1:], rows):
        assert row[0] == r.name
        assert row[4:8] == [r.expected, r.achieved, r.match, r.status]
