"""Cell groupings, feasibility rules, and the grouping-efficacy measure.

A solution assigns every machine and every part a cell label in 1..c;
label 0 means residual (outside every cell). Grouping efficacy is
n1_in / (n1 + n0_in): ones inside cells over total ones plus voids (zeros
inside cells). Exceptions (ones outside cells) charge the denominator
through n1; voids charge it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .instances import FormatError, Instance
from .rational import Ratio

if TYPE_CHECKING:
    from .bnb import Tree


class Regime(Enum):
    """Which degenerate cells a grouping may use.

    NO_RESIDUAL: every machine and part sits in a cell, and every cell has at
    least one machine and one part. ALLOW_RESIDUAL: label 0 is allowed for
    machines and parts, and cells may be machine-only or part-only.
    """

    NO_RESIDUAL = "no-residual"
    ALLOW_RESIDUAL = "allow-residual"


@dataclass
class Solution:
    """A grouping and its efficacy counts. tree, set only on the seed that
    heuristic_solve returns, is the bnb.Tree that searched for it, and
    tree_nodes the nodes that tree counted; dinkelbach.solve resumes the
    tree instead of proving the seed again. Neither is part of the
    grouping: ==, repr, copy(), canonicalize and the .sol file all ignore
    them."""

    c: int
    machine_cell: list[int]  # length m, values in 0..c (0 = residual machine)
    part_cell: list[int]     # length p, values in 0..c (0 = residual part)
    n1_in: int = 0
    n0_in: int = 0
    efficacy: Ratio = field(default_factory=lambda: Ratio(0, 1))
    tree: Tree | None = field(default=None, repr=False, compare=False)
    tree_nodes: int = field(default=0, repr=False, compare=False)

    def copy(self) -> "Solution":
        return Solution(
            self.c, list(self.machine_cell), list(self.part_cell),
            self.n1_in, self.n0_in, self.efficacy,
        )


def efficacy_counts(inst: Instance, machine_cell, part_cell) -> tuple[int, int]:
    """(n1_in, n0_in) for a labeling, counting only nonzero matching labels."""
    machine_cell, part_cell = np.asarray(machine_cell), np.asarray(part_cell)
    inside = (machine_cell[:, None] == part_cell) & (part_cell > 0)
    ones = int(inst.matrix[inside].sum())
    return ones, int(inside.sum()) - ones


def efficacy_ratio(n1: int, n1_in: int, n0_in: int) -> Ratio:
    den = n1 + n0_in
    if den == 0:
        return Ratio(0, 1)
    return Ratio(n1_in, den)


def efficacy(inst: Instance, sol: Solution) -> Ratio:
    """Compute grouping efficacy; refreshes n1_in, n0_in and the stored value.

    The stored value is kept in lowest terms; reports print the raw counts
    pair n1_in/(n1 + n0_in) next to it.
    """
    n1_in, n0_in = efficacy_counts(inst, sol.machine_cell, sol.part_cell)
    sol.n1_in = n1_in
    sol.n0_in = n0_in
    sol.efficacy = efficacy_ratio(inst.n1, n1_in, n0_in).normalized()
    return sol.efficacy


def void_upper_bound(n1: int, tau: Ratio) -> int:
    """Largest void count any optimal grouping can carry, floor((1-tau)/tau * n1).

    tau must be the efficacy of some feasible grouping, 0 < tau <= 1. Scale
    invariant: the raw pair 15/24 and the reduced 5/8 give the same bound.
    """
    if n1 < 1:
        raise ValueError("void bound needs n1 >= 1")
    if tau.num == 0:
        raise ValueError("void bound undefined for zero efficacy")
    if tau > 1:
        raise ValueError(f"efficacy cannot exceed 1, got {tau}")
    return (tau.den - tau.num) * n1 // tau.num


def check_feasible(inst: Instance, sol: Solution, regime: Regime) -> tuple[bool, list[str]]:
    """Regime feasibility. Returns (ok, human-readable violations)."""
    problems: list[str] = []
    if len(sol.machine_cell) != inst.m:
        problems.append(f"machine labels: expected {inst.m}, got {len(sol.machine_cell)}")
    if len(sol.part_cell) != inst.p:
        problems.append(f"part labels: expected {inst.p}, got {len(sol.part_cell)}")
    if problems:
        return False, problems

    for i, lab in enumerate(sol.machine_cell):
        if not 0 <= lab <= sol.c:
            problems.append(f"machine {i + 1} label {lab} out of range 0..{sol.c}")
    for j, lab in enumerate(sol.part_cell):
        if not 0 <= lab <= sol.c:
            problems.append(f"part {j + 1} label {lab} out of range 0..{sol.c}")
    if problems:
        return False, problems

    if regime is Regime.NO_RESIDUAL:
        for i, lab in enumerate(sol.machine_cell):
            if lab == 0:
                problems.append(f"machine {i + 1} is residual")
        for j, lab in enumerate(sol.part_cell):
            if lab == 0:
                problems.append(f"part {j + 1} is residual")
        for cell in range(1, sol.c + 1):
            if not any(lab == cell for lab in sol.machine_cell):
                problems.append(f"cell {cell} has no machines")
            if not any(lab == cell for lab in sol.part_cell):
                problems.append(f"cell {cell} has no parts")
    return not problems, problems


def renumber(labels) -> list[int]:
    """Relabel cells 1..c in order of first occurrence. Residual label 0
    stays 0. Idempotent."""
    mapping = {0: 0}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


def canonicalize(sol: Solution) -> Solution:
    """Relabel cells 1..c by first machine occurrence, then first part
    occurrence for machine-less cells. Residual label 0 is untouched and
    unused (phantom) labels disappear. Idempotent."""
    m = len(sol.machine_cell)
    labels = renumber(sol.machine_cell + sol.part_cell)
    out = sol.copy()
    out.c = max(labels, default=0)
    out.machine_cell = labels[:m]
    out.part_cell = labels[m:]
    return out


def parse_solution(text: str, inst: Instance) -> Solution:
    """Parse solution text: line 1 cell count, line 2 machine labels, line 3
    part labels. Residual labels are accepted here regardless of regime;
    regime checking is check_feasible's job."""
    from .instances import _content_lines

    lines = list(_content_lines(text))
    if len(lines) < 3:
        raise FormatError(f"solution needs 3 content lines, found {len(lines)}")
    if len(lines) > 3:
        raise FormatError("unexpected extra content", lines[3][0])

    (ln_c, s_c), (ln_m, s_m), (ln_p, s_p) = lines
    try:
        c = int(s_c)
    except ValueError:
        raise FormatError("malformed cell count", ln_c) from None
    if c < 0:
        raise FormatError(f"cell count must be >= 0, got {c}", ln_c)

    def read_labels(s, n, what, lineno):
        tokens = s.split()
        if len(tokens) != n:
            raise FormatError(
                f"{what} line length mismatch: expected {n}, found {len(tokens)}", lineno
            )
        labels = []
        for tok in tokens:
            try:
                lab = int(tok)
            except ValueError:
                raise FormatError(f"malformed {what} label {tok!r}", lineno) from None
            if not 0 <= lab <= c:
                raise FormatError(f"{what} label {lab} out of range 0..{c}", lineno)
            labels.append(lab)
        return labels

    sol = Solution(
        c,
        read_labels(s_m, inst.m, "machine", ln_m),
        read_labels(s_p, inst.p, "part", ln_p),
    )
    efficacy(inst, sol)
    return sol


def write_solution(sol: Solution) -> str:
    return "{}\n{}\n{}\n".format(
        sol.c,
        " ".join(str(v) for v in sol.machine_cell),
        " ".join(str(v) for v in sol.part_cell),
    )


def report_line(inst: Instance, sol: Solution) -> str:
    """The efficacy report: counts plus the raw-pair value and 4 decimals."""
    raw = efficacy_ratio(inst.n1, sol.n1_in, sol.n0_in)
    return (
        f"n1={inst.n1} n1_in={sol.n1_in} n0_in={sol.n0_in} "
        f"efficacy={raw} (= {raw.to_4dp()})"
    )
