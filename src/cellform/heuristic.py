"""Multi-start local search over machine partitions, used to seed the
parametric solver with a good starting ratio, that stops once the
branch-and-bound certifies its best grouping; its climb also polishes the
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

The certificate: after every climb but the last, one `bnb.Tree` of the
call resumes at lam = the best efficacy so far with incumbent_F = 0. A
run that completes without a grouping proves that no grouping has F > 0
at lam, that is, none beats the incumbent. A later climb could then only
tie it, and ties keep the first, so the restarts stop with the result
that running them all would give, part labels included. A run that stops
on a better grouping does not take it, so the result stays that of the
climbs; resumed at the same lam, the tree stops on that grouping again
after one node. The climbs buy the tree's nodes: after j climbs its
budget is the relocation rows that all restarts would score at the mean
of those j - scored * restarts // j, where scored counts m*(k+1) rows for
each grouping whose neighbours the climbs scored - minus the nodes it has
used, so one scored neighbour buys one bounded child, with no constant
and no option. A tree that can certify after one climb thus gets the
nodes that the restarts it saves would buy, without running them. A run
stopped by that budget resumes where it stopped, at the next run's lam.
A call whose tree never certifies runs every restart, as it would
without the tree, and takes about twice as long as its climbs: on 24
planted 16x24/k5 and 24x40/k7 instances at 8 restarts the climbs took
1.47 of 2.90 s (1.98x, the fastest of three runs on 2 CPUs), with
1 662 556 tree nodes against 1 479 880 scored rows. The budget caps the
tree's nodes, not its time. Those nodes are not lost: the returned seed
carries the tree as Solution.tree, and dinkelbach.solve resumes it in its
first round, so a certified seed costs the solve no node (a finished
tree returns at once) and an uncertified one is searched on from where
its budget stopped.

Determinism: the same rng_seed gives the same answer as long as the time
budget does not cut a run short. The budget is polled once before all
relocations are scored, once before all merges, before each cell's
splits and before every `fit_parts` call, so a climb overruns it by about
one of either; the tree polls it every 1024 counted nodes and does not
start once it has passed.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass

import numpy as np

from .bnb import (Tree, best_others, child_bounds, label_cap, make_weights,
                  optimal_parts)
from .instances import Instance
from .rational import Ratio
from .solutions import (Regime, Solution, canonicalize, efficacy_ratio,
                        renumber)

log = logging.getLogger(__name__)

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
          deadline: float | None, path: list[int] | None = None) -> Solution:
    """Local search from a machine grouping (labels 1..k, 0 = residual):
    place its parts optimally, then move to the best improving grouping of
    the first batch that has one until no batch improves or the monotonic
    deadline (None = none) passes. The result is never worse than the best
    placement of the parts for machine_cell.

    path, when given, gets the cell count k of each grouping whose
    neighbours the climb scores, in climb order; each of them costs m*(k+1)
    relocation rows unless the deadline has passed."""
    cap = label_cap(inst, regime)
    sol = fit_parts(inst, machine_cell, regime)
    while True:
        if path is not None:
            path.append(sol.c)
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
    of equal efficacy.

    After every climb but the last, one bnb.Tree of this call resumes at
    the best efficacy so far with incumbent_F = 0, on a node budget of the
    relocation rows that all cfg.restarts climbs would score at the mean
    of the climbs so far, minus the nodes the tree has used, as long as
    that is positive. A run that completes without a grouping certifies
    that no grouping beats the incumbent, so the restarts stop: the later
    ones could only tie, and ties keep the first, so the result is the one
    all restarts give. The budget is 1:1 with the neighbours that all the
    restarts would score, so a call that never certifies takes about twice
    as long as its climbs (see the module docstring). The result carries
    the tree as its tree field, for dinkelbach.solve to resume.
    Logs one INFO line: the climbs run out of cfg.restarts, the tree's
    nodes, the scored rows and whether the seed was certified."""
    regime = cfg.regime
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    rng = random.Random(cfg.rng_seed)
    kmax = min(inst.m, inst.p)
    best: Solution | None = None
    tree = Tree(inst, regime)
    path: list[int] = []  # cell counts of the groupings the climbs scored
    scored = used = climbs = 0  # relocation rows scored, tree nodes, climbs
    certified = False
    for _ in range(cfg.restarts):
        if _past(deadline) and best is not None:
            break
        k = rng.randint(1, kmax)
        cells = _random_machine_cells(inst.m, k, rng)
        sol = climb(inst, cells, regime, deadline, path)
        climbs += 1
        if best is None or sol.efficacy > best.efficacy:
            best = sol
        scored = inst.m * (sum(path) + len(path))  # m*(k+1) per grouping
        # the rows all restarts would score, at the mean of the climbs so far
        budget = scored * cfg.restarts // climbs
        if climbs == cfg.restarts or budget <= used or _past(deadline):
            continue
        res = tree.run(best.efficacy, 0,
                       None if deadline is None else deadline - time.monotonic(),
                       budget - used)
        used += res.stats.nodes
        if res.solution is None and not res.truncated:
            certified = True
            break
    log.info("heuristic climbs=%d/%d tree_nodes=%d scored_rows=%d "
             "certified=%s", climbs, cfg.restarts, used, scored,
             "yes" if certified else "no")
    best = canonicalize(best)
    best.tree = tree
    return best
