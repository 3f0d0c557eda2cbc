"""Multi-start local search over machine partitions, used to seed the
parametric solver with a good starting ratio; its climb also polishes the
grouping each improving round of that solver returns.

Part placement is kept optimal for the machine grouping at hand (the
part side separates once machines are fixed), so the neighborhood
effectively lives on machine partitions. One move stream (`_moves`)
yields the neighbours in batches: relocating one machine and merging two
cells are batches of one, and all two-partitions of one cell form one
batch. The climb takes the best strictly improving grouping of the first
batch that has one - first improvement for relocate and merge, the best
split per cell - under exact rational comparison, so every climb
terminates; restarts supply the diversification.

The screen: at lam = num/den, the efficacy of the current grouping, a
neighbour beats it only if some placement has F = den*n1_in -
num*(n0_in + n1) > 0. Letting every part take its best cell or go
residual, ignoring the cover constraint, bounds F from above (the
relaxation of `bnb.child_bounds`), so a neighbour whose bound is <= 0 is
dropped without being fitted. The bounds come from the current grouping's
per-cell weight sums: a relocation changes two of their rows and a merge
folds one row into another, so one stacked `child_bounds` call scores
every relocation of every machine, and one more scores every merge. The
relocation stack is built in one allocation of m slabs of k + 1 rows:
slab i is the sums with machine i's row taken out of its cell (a
residual machine is in none) and the new cell's row of zeros. The splits
of one cell are scored as a mask matrix times the cell's weight rows,
against each column's best other cell from `bnb.best_others`, the top-2
that the search's bound uses too. The neighbours that pass are fitted by
`fit_parts` at lam, which rejects a loser after one parametric round.
Dropped neighbours cannot win, so the climb accepts the same groupings as
one that fits every neighbour.

The memo: restarts of one `heuristic_solve` call often climb into a
grouping an earlier restart already passed through, so a dict local to
the call maps the machine labels of every grouping on a finished climb's
path to that climb's result, and a later climb that reaches one of them
stops there. This is exact. `_moves` reads only a grouping's machine
labels and its efficacy, and that efficacy is the exact optimum of its
partition: a start is fitted from ratio 0, and every accepted neighbour
is a `fit_parts` result that beat its ratio. So the rest of a climb is a
function of the grouping alone. The labels are renumbered in every
grouping a climb visits, so equal partitions meet under one key. At the
stored end grouping itself a climb keeps its own fit, whose part labels
may break ties differently; elsewhere it takes the stored result, which
is the one its own rest of the climb would reach. A climb cut by the
deadline stores nothing, and the memo dies with the call, so results do
not depend on earlier calls.

Determinism: the same rng_seed gives the same answer as long as the time
budget does not cut a run short. The budget is polled once before all
relocations are scored, once before all merges, before each cell's
splits and before every `fit_parts` call, so a climb overruns it by about
one of either.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .bnb import (best_others, child_bounds, label_cap, make_weights,
                  optimal_parts)
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


def _split_candidates(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Two-partitions of a cell's machines (ascending row indices), as a
    boolean matrix whose rows mark the half that leaves the cell: all of
    them for small cells, else one pole-based split (the first pair of most
    dissimilar rows seeds the halves, everyone else joins the nearer
    pole)."""
    s = len(rows)
    if s <= _SPLIT_ENUM_MAX:
        # mask < 2^(s-1) keeps the last row in the cell, so each unordered
        # split appears exactly once
        masks = np.arange(1, 1 << (s - 1))
        return (masks[:, None] >> np.arange(s)) & 1 == 1
    cell = a[rows]
    only = cell @ (1 - cell).T
    dist = only + only.T  # pairwise Hamming distances
    # argmax takes the first maximal x < y in row-major order
    x, y = divmod(int(np.argmax(np.triu(dist + 1, 1))), s)
    right = dist[:, x] > dist[:, y]
    right[x], right[y] = False, True
    return right[None, :]


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _moves(inst: Instance, sol: Solution, cap: int, deadline: float | None):
    """Neighbours of sol's machine grouping that may beat it, as batches of
    (not yet renumbered) label lists in search order: each relocation of one
    machine (to another cell or a new one) and each merge of two cells is a
    batch of one; the two-partitions of one cell form one batch. No grouping
    has more than cap cells; under no-residual cap <= p, so every cell can
    get a part.

    A neighbour is yielded only if its relaxed value at lam = sol.efficacy
    beats num*n1 (see the module docstring). The stream stops early once the
    deadline has passed; it is polled once before all relocations are
    scored, once before all merges and before each cell's splits."""
    lam = sol.efficacy
    machine_cell = sol.machine_cell
    w = make_weights(inst, lam)
    ones, zeros = _counts(inst, machine_cell)
    sums = lam.den * ones - lam.num * zeros  # weight column sums of sol's cells
    const = lam.num * inst.n1
    k, p = sums.shape
    labels = np.asarray(machine_cell)
    size = np.bincount(labels, minlength=k + 1)

    def moved(rows, dst):
        cells = list(machine_cell)
        for r in rows:
            cells[r] = dst
        return cells

    if _past(deadline):
        return
    # relaxed value, minus num*n1, of moving machine i's weights out of its
    # cell into each cell c < k, or into a new cell (c = k): one stacked
    # child_bounds call whose slab i is sol's sums with machine i's row
    # taken out, if it is in a cell, and a zero row for the new cell
    rest = np.zeros((inst.m, k + 1, p), np.int64)
    rest[:, :k] = sums
    placed = np.flatnonzero(labels)
    rest[placed, labels[placed] - 1] -= w[placed]
    value = child_bounds(rest, w, -const)
    for i, src in enumerate(machine_cell):
        top = k if size[src] == 1 else min(k + 1, cap)
        for dst in range(1, top + 1):
            if dst != src and value[i][dst - 1] > 0:
                yield [moved([i], dst)]
    if k > 1:
        if _past(deadline):
            return
        # merging cell d into cell c moves d's whole row of sums: slab d is
        # sol's sums with row d emptied
        rest = np.repeat(sums[None], k, axis=0)
        rest[np.arange(k), np.arange(k)] = 0
        value = child_bounds(rest, sums, -const)
        for c in range(1, k + 1):
            for d in range(c + 1, k + 1):
                if value[d - 1][c - 1] > 0:
                    yield [[c if v == d else v for v in machine_cell]]
    if k < cap:
        # per cell, the best sum of the other cells, or 0 for a fresh or
        # residual place
        other = best_others(sums)
        for c in range(k):
            if _past(deadline):
                return
            rows = np.flatnonzero(labels == c + 1)
            masks = _split_candidates(rows, inst.matrix)
            out = masks @ w[rows]
            value = (np.maximum(np.maximum(sums[c] - out, out), other[c])
                     .sum(axis=1) - const)
            batch = [moved(rows[mask], k + 1) for mask in masks[value > 0]]
            if batch:
                yield batch


def climb(inst: Instance, machine_cell: list[int], regime: Regime,
          deadline: float | None, memo: dict | None = None) -> Solution:
    """Local search from a machine grouping (labels 1..k, 0 = residual):
    place its parts optimally, then move to the best improving grouping of
    the first batch that has one until no batch improves or the monotonic
    deadline (None = none) passes. The result is never worse than the best
    placement of the parts for machine_cell.

    memo maps the machine_cell tuple of each grouping a finished climb
    passed through to that climb's result; without one the climb starts a
    fresh dict, which it cannot hit, because the efficacy rises strictly
    along its path. A climb that reaches a grouping in the memo takes the
    stored result - at the stored end grouping itself it keeps its own
    fit - and a climb that finishes stores its path; one cut by the
    deadline stores nothing (see the module docstring for why this is
    exact)."""
    memo = {} if memo is None else memo
    cap = label_cap(inst, regime)
    sol = fit_parts(inst, machine_cell, regime)
    path = []
    while True:
        key = tuple(sol.machine_cell)
        end = memo.get(key)
        if end is not None:
            if end.machine_cell != sol.machine_cell:
                sol = end
            break
        path.append(key)
        for batch in _moves(inst, sol, cap, deadline):
            best = sol
            for cells in batch:
                if _past(deadline):
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
            if _past(deadline):  # the move stream may have been cut short
                return sol
            break
    memo.update(dict.fromkeys(path, sol))
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
    """Best feasible grouping found across cfg.restarts climbs, the first
    of equal efficacy. The climbs share one memo of finished climbs, which
    lives only as long as this call and does not change the result."""
    regime = cfg.regime
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    rng = random.Random(cfg.rng_seed)
    kmax = min(inst.m, inst.p)
    best: Solution | None = None
    memo: dict = {}  # finished climbs of this call, see climb
    for _ in range(cfg.restarts):
        if _past(deadline) and best is not None:
            break
        k = rng.randint(1, kmax)
        cells = _random_machine_cells(inst.m, k, rng)
        sol = climb(inst, cells, regime, deadline, memo)
        if best is None or sol.efficacy > best.efficacy:
            best = sol
    best = canonicalize(best)
    efficacy(inst, best)
    return best
