"""Multi-start local search over machine partitions, used to seed the
parametric solver with a good starting ratio.

Part placement is kept optimal for the machine grouping at hand (the
part side separates once machines are fixed), so the neighborhood
effectively lives on machine partitions; a candidate grouping that
cannot beat the current one is rejected after one parametric round of
`fit_parts`. One move stream (`_moves`)
yields the neighbours in batches: relocating one machine and merging two
cells are batches of one, and all two-partitions of one cell form one
batch. The climb takes the best strictly improving grouping of the first
batch that has one - first improvement for relocate and merge, the best
split per cell - under exact rational comparison, so every climb
terminates; restarts supply the diversification.

Determinism: the same rng_seed gives the same answer as long as the time
budget does not cut a run short. The budget is polled before every
candidate move, so a climb overruns it by about one candidate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .bnb import label_cap, optimal_parts
from .instances import Instance
from .rational import Ratio
from .solutions import (Regime, Solution, canonicalize, efficacy,
                        efficacy_ratio, renumber)

_SPLIT_ENUM_MAX = 10  # cells up to this size get exact best two-partitions


@dataclass
class SearchConfig:
    regime: Regime = Regime.NO_RESIDUAL
    restarts: int = 8
    time_budget: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def fit_parts(inst: Instance, machine_cell: list[int], regime: Regime,
              lam: Ratio | None = None) -> Solution:
    """Part labels for a fixed machine grouping, by the small parametric
    loop from the ratio lam (default 0): place parts greedily at the
    current ratio, take the new grouping's efficacy as the next ratio, stop
    once it no longer rises. A result that beats lam is exactly optimal for
    this machine partition; otherwise no placement beats lam (Dinkelbach's
    lemma), and the result is the first round's feasible placement."""
    if lam is None:
        lam = Ratio(0, 1)
    ones, zeros = _counts(inst, machine_cell)
    no_res = regime is Regime.NO_RESIDUAL
    best: Solution | None = None
    while True:  # the ratio rises every round, so the loop ends
        # the per-cell column sums of make_weights(inst, lam)
        labels, _total = optimal_parts(lam.den * ones - lam.num * zeros, no_res)
        placed = np.flatnonzero(labels)
        cells = labels[placed] - 1
        n1_in = int(ones[cells, placed].sum())
        n0_in = int(zeros[cells, placed].sum())
        tau = efficacy_ratio(inst.n1, n1_in, n0_in).normalized()
        sol = Solution(len(ones), list(machine_cell), labels.tolist(),
                       n1_in, n0_in, tau)
        if not tau > lam:
            return best or sol
        best, lam = sol, tau


def _counts(inst: Instance, machine_cell: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell ones/zeros each part would contribute, k x p. Residual
    machines (label 0) join no cell."""
    cells = np.asarray(machine_cell)
    member = cells == np.arange(1, max(machine_cell) + 1)[:, None]
    ones = member @ inst.matrix
    zeros = member.sum(1)[:, None] - ones
    return ones, zeros


def _split_candidates(rows: list[int], a: np.ndarray) -> list[list[int]]:
    """Two-partitions of a cell's machines, each given by the half that
    leaves the cell: all of them for small cells, else one pole-based
    split (the two most dissimilar rows seed the halves, everyone else
    joins the nearer pole)."""
    s = len(rows)
    if s <= _SPLIT_ENUM_MAX:
        # mask < 2^(s-1) keeps the last row in the cell, so each unordered
        # split appears exactly once
        return [[rows[t] for t in range(s) if (mask >> t) & 1]
                for mask in range(1, 1 << (s - 1))]
    poles = (rows[0], rows[1])
    worst = -1
    for x in range(s):
        for y in range(x + 1, s):
            d = int(np.sum(a[rows[x]] != a[rows[y]]))
            if d > worst:
                worst = d
                poles = (rows[x], rows[y])
    right = [poles[1]]
    for r in rows:
        if r in poles:
            continue
        if np.sum(a[r] != a[poles[0]]) > np.sum(a[r] != a[poles[1]]):
            right.append(r)
    return [right]


def _moves(inst: Instance, machine_cell: list[int], cap: int):
    """Neighbours of a machine grouping, as batches of (not yet renumbered)
    label lists in search order: each relocation of one machine (to another
    cell or a new one) and each merge of two cells is a batch of one; all
    two-partitions of one cell form one batch. No grouping has more than
    cap cells; under no-residual cap <= p, so every cell can get a part."""
    k = max(machine_cell)
    for i, src in enumerate(machine_cell):
        top = k if machine_cell.count(src) == 1 else min(k + 1, cap)
        for dst in range(1, top + 1):
            if dst != src:
                cells = list(machine_cell)
                cells[i] = dst
                yield [cells]
    for c in range(1, k + 1):
        for d in range(c + 1, k + 1):
            yield [[c if v == d else v for v in machine_cell]]
    if k < cap:
        for c in range(1, k + 1):
            rows = [i for i, v in enumerate(machine_cell) if v == c]
            batch = []
            for right in _split_candidates(rows, inst.matrix):
                cells = list(machine_cell)
                for r in right:
                    cells[r] = k + 1
                batch.append(cells)
            yield batch


def _climb(inst: Instance, machine_cell: list[int], regime: Regime,
           deadline: float | None) -> Solution:
    """Move to the best improving grouping of the first batch that has one
    until no batch improves or the deadline passes."""
    cap = label_cap(inst, regime)
    sol = fit_parts(inst, machine_cell, regime)
    while True:
        for batch in _moves(inst, sol.machine_cell, cap):
            best = sol
            for cells in batch:
                if deadline is not None and time.monotonic() > deadline:
                    return sol
                # fit_parts is looked up as a module global, so a wrapper
                # patched in to trace or count calls sees every candidate
                cand = fit_parts(inst, renumber(cells), regime, sol.efficacy)
                if cand.efficacy > best.efficacy:
                    best = cand
            if best is not sol:
                sol = best
                break
        else:
            return sol


def _random_machine_cells(m: int, k: int, rng: random.Random) -> list[int]:
    """Random grouping with exactly k nonempty cells, then normalized."""
    labels = [0] * m
    firsts = rng.sample(range(m), k)
    for c, i in enumerate(firsts, start=1):
        labels[i] = c
    for i in range(m):
        if labels[i] == 0:
            labels[i] = rng.randint(1, k)
    return renumber(labels)


def heuristic_solve(inst: Instance, cfg: SearchConfig) -> Solution:
    """Best feasible grouping found across cfg.restarts climbs."""
    regime = cfg.regime
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    rng = random.Random(cfg.rng_seed)
    kmax = min(inst.m, inst.p)
    best: Solution | None = None
    for _ in range(cfg.restarts):
        if deadline is not None and time.monotonic() > deadline and best is not None:
            break
        k = rng.randint(1, kmax)
        cells = _random_machine_cells(inst.m, k, rng)
        sol = _climb(inst, cells, regime, deadline)
        if best is None or sol.efficacy > best.efficacy:
            best = sol
    best = canonicalize(best)
    efficacy(inst, best)
    return best
