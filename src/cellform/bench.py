"""Benchmark harness: run the solver over a manifest of instances and
compare achieved efficacy against recorded expectations at 4 decimals.

Manifest format (CSV with a header): columns `path,regime,expected` and
optionally `name`. Paths are resolved relative to the manifest file.
Regime is `no-residual` or `allow-residual`; expected is a rational or a
decimal like `0.6957`. Lines starting with `#` are skipped; a row short
of any of the three required columns, or with a bad regime or expected
value, is an error naming its line. Missing instance files produce an
error row but do not stop the run; the exit code goes to 1 only when an
instance solved to Optimal misses its expectation.
"""

from __future__ import annotations

import csv
import io
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .dinkelbach import SolveStatus, remaining, solve
from .heuristic import SearchConfig, heuristic_solve
from .instances import load_instance
from .rational import Ratio, parse_ratio
from .solutions import Regime

# the BenchRow fields each output row shows, in order
CSV_COLUMNS = ("name", "m", "p", "regime", "expected", "achieved", "match",
               "status", "iters", "nodes", "time_ms")


@dataclass
class ManifestEntry:
    path: Path
    regime: Regime
    expected: Ratio
    name: str


@dataclass
class BenchRow:
    name: str
    m: int
    p: int
    regime: str
    expected: str
    achieved: str
    match: str      # yes / no / - (not comparable)
    status: str
    iters: int
    nodes: int
    time_ms: int
    error: str = ""


def regime_from_string(text: str) -> Regime:
    try:
        return Regime(text.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown regime {text!r} (expected no-residual or allow-residual)"
        ) from None


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    path = Path(path)
    numbered = [(n, line) for n, line in enumerate(
        path.read_text().splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")]
    entries: list[ManifestEntry] = []
    if not numbered:
        return entries
    reader = csv.DictReader(line for _, line in numbered)
    required = ("path", "regime", "expected")
    if not set(required) <= set(reader.fieldnames or ()):
        raise ValueError(
            f"manifest needs columns path,regime,expected; got {reader.fieldnames}")
    for rec in reader:
        where = f"{path} line {numbered[reader.line_num - 1][0]}"
        missing = [col for col in required if rec[col] is None]
        if missing:
            raise ValueError(f"{where}: missing column " + ",".join(missing))
        file = (path.parent / rec["path"]).resolve()
        name = (rec.get("name") or "").strip() or file.stem
        try:
            regime = regime_from_string(rec["regime"])
            expected = parse_ratio(rec["expected"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        entries.append(ManifestEntry(file, regime, expected, name))
    return entries


def _instance_seed(name: str) -> int:
    return zlib.crc32(name.encode()) & 0x7FFFFFFF


def run_entry(entry: ManifestEntry, time_limit: float | None,
              restarts: int) -> BenchRow:
    """One manifest row, solved as `cellform solve` does from a heuristic
    seed; nodes and time_ms count the seed's tree and time too."""
    try:
        inst = load_instance(entry.path)
    except (OSError, ValueError) as exc:
        return BenchRow(entry.name, 0, 0, entry.regime.value,
                        entry.expected.to_4dp(), "-", "-", "Error", 0, 0, 0,
                        error=str(exc))
    t0 = time.monotonic()
    seed = heuristic_solve(inst, SearchConfig(
        regime=entry.regime, restarts=restarts,
        time_budget=remaining(time_limit, t0),
        rng_seed=_instance_seed(entry.name)))
    out = solve(inst, entry.regime, seed_solution=seed,
                time_limit=remaining(time_limit, t0))
    achieved = out.solution.efficacy
    match = "yes" if achieved.to_4dp() == entry.expected.to_4dp() else "no"
    return BenchRow(
        entry.name, inst.m, inst.p, entry.regime.value,
        entry.expected.to_4dp(), achieved.to_4dp(), match,
        out.status.value, out.iterations, seed.tree_nodes + out.nodes,
        int(round((time.monotonic() - t0) * 1000)))


def run_bench(entries, time_limit: float | None = None,
              restarts: int = 8) -> list[BenchRow]:
    return [run_entry(e, time_limit, restarts) for e in entries]


def failed(rows) -> bool:
    """Expectation failure: an Optimal solve that misses its target."""
    return any(r.status == SolveStatus.OPTIMAL.value and r.match == "no"
               for r in rows)


def _fields(r: BenchRow) -> list[str]:
    return [str(getattr(r, col)) for col in CSV_COLUMNS]


def format_text(rows) -> str:
    table = [CSV_COLUMNS] + [_fields(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(CSV_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    matches = sum(1 for r in rows if r.match == "yes")
    comparable = sum(1 for r in rows if r.match in ("yes", "no"))
    lines.append(f"matched {matches}/{comparable} expectations"
                 f" ({len(rows)} rows)")
    for r in rows:
        if r.error:
            lines.append(f"error: {r.name}: {r.error}")
    return "\n".join(lines)


def format_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_fields(r) for r in rows)
    return buf.getvalue()
