"""Machine-part incidence instances and their text format.

An instance file carries a header line ``m p`` followed by m rows of p
space-separated 0/1 values. Lines starting with ``#`` are comments and may
appear anywhere; a ``# name: <name>`` comment names the instance. All
indices in files and reports are 1-based; in memory everything is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rational import Ratio


class FormatError(ValueError):
    """Malformed instance or solution text. Knows the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Instance:
    name: str
    m: int
    p: int
    a: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "a", tuple(tuple(int(v) for v in row) for row in self.a)
        )
        if self.m < 1 or self.p < 1:
            raise ValueError(f"instance must be at least 1x1, got {self.m}x{self.p}")
        if len(self.a) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.a)}")
        for i, row in enumerate(self.a):
            if len(row) != self.p:
                raise ValueError(f"row {i + 1} has {len(row)} values, expected {self.p}")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"matrix values must be 0 or 1, got {v}")

    @cached_property
    def n1(self) -> int:
        return sum(sum(row) for row in self.a)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The incidence matrix as a read-only (m, p) int64 array, built once."""
        a = np.array(self.a, dtype=np.int64)
        a.setflags(write=False)
        return a


@dataclass
class ValidationReport:
    m: int
    p: int
    n1: int
    density: Ratio
    zero_rows: list[int] = field(default_factory=list)  # 1-based machine indices
    zero_cols: list[int] = field(default_factory=list)  # 1-based part indices
    warnings: list[str] = field(default_factory=list)


def _content_lines(text: str):
    """Yield (line_number, stripped_text) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        yield lineno, s


def _comment_name(text: str) -> str:
    for raw in text.splitlines():
        s = raw.strip()
        if s.startswith("#"):
            body = s[1:].strip()
            if body.startswith("name:"):
                return body[len("name:"):].strip()
    return ""


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse instance text. A ``# name:`` comment overrides the name argument."""
    lines = _content_lines(text)
    try:
        header_line, header = next(lines)
    except StopIteration:
        raise FormatError("empty instance: missing header") from None

    tokens = header.split()
    if len(tokens) != 2:
        raise FormatError("malformed header: expected 'm p'", header_line)
    try:
        m, p = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise FormatError("malformed header: expected 'm p'", header_line) from None
    if m < 1 or p < 1:
        raise FormatError(f"instance must be at least 1x1, got {m}x{p}", header_line)

    rows: list[tuple[int, ...]] = []
    for lineno, s in lines:
        if len(rows) == m:
            raise FormatError(f"row count mismatch: expected {m} rows", lineno)
        tokens = s.split()
        if len(tokens) != p:
            raise FormatError(
                f"row length mismatch: expected {p} values, found {len(tokens)}", lineno
            )
        row = []
        for tok in tokens:
            if tok not in ("0", "1"):
                raise FormatError(f"non-binary cell value {tok!r}", lineno)
            row.append(int(tok))
        rows.append(tuple(row))
    if len(rows) != m:
        raise FormatError(f"row count mismatch: expected {m} rows, found {len(rows)}")

    return Instance(_comment_name(text) or name, m, p, tuple(rows))


def write_instance(inst: Instance) -> str:
    """Render an instance back to text. parse(write(x)) == x, byte-stably."""
    out = []
    if inst.name:
        out.append(f"# name: {inst.name}")
    out.append(f"{inst.m} {inst.p}")
    for row in inst.a:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def load_instance(path) -> Instance:
    from pathlib import Path

    path = Path(path)
    return parse_instance(path.read_text(), name=path.stem)


def validate_instance(inst: Instance) -> ValidationReport:
    """Structural report. Zero rows/columns are warnings, not errors."""
    zero_rows = [i + 1 for i in range(inst.m) if not any(inst.a[i])]
    zero_cols = [j + 1 for j in range(inst.p) if not any(inst.a[i][j] for i in range(inst.m))]
    warnings = []
    for i in zero_rows:
        warnings.append(f"machine {i} uses no parts")
    for j in zero_cols:
        warnings.append(f"part {j} visits no machines")
    if inst.n1 == 0:
        warnings.append("matrix is all zeros; every grouping has efficacy 0")
    return ValidationReport(
        m=inst.m,
        p=inst.p,
        n1=inst.n1,
        density=Ratio(inst.n1, inst.m * inst.p),
        zero_rows=zero_rows,
        zero_cols=zero_cols,
        warnings=warnings,
    )
