"""The heuristic seed of the parametric solver: its one branch-and-bound
tree picks where each local-search climb starts, and random restarts run
only when that tree stalls. The climb also polishes the grouping each
improving round of the solver returns.

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

The seed runs the solver's Dinkelbach-with-polish loop on one bnb.Tree of
its own. Its first run starts at lam = the efficacy of the one-cell
grouping with incumbent_F = 0. A run that stops on a grouping with F > 0
at lam hands it to a climb, whose result beats lam strictly (the climb
starts by placing the grouping's parts optimally), and the tree resumes
at that result's efficacy. The first such grouping only picks the first
start: the tree that dived to it is replaced by a fresh one, because the
sibling order that dive leaves on the stack, sorted by the bounds at the
one-cell ratio, made the resumed search enter 8-10 % more nodes for the
same count on the first 24 capped-hard instances. A run that completes
without a grouping proves that none beats the incumbent, so the seed is
optimal and the call stops. A run that stops on its node budget without a
grouping stalls the tree; only then does the call draw a random start and
climb from it, up to cfg.restarts times.

The budget: the tree may count cfg.restarts * m**2 * cap nodes in all,
cap being the regime's label cap, or cfg.node_limit nodes if that is
lower. That is one node per relocation that the restarts could score,
priced before any climb: a grouping has at most m*cap relocations, one
per machine and other or new cell, and each climb is charged m groupings.
Random climbs on the benchmark rows (10x15 to 24x40) pass through 1.1 to
1.9 groupings per machine, at fewer cells than cap. So a proof that costs
no more than the restarts would finishes before the first random
restart: on the seed-0 seeded-clean pool the largest takes 16 256 nodes,
against 21 952 on its 14x21 row. Once the budget is spent every restart
runs, so a seed that never certifies gives at least the multi-start
answer, and its tree has counted about one node per relocation row its
random climbs score. Nothing is tuned, and no option sets the rule. The nodes
are not lost: the returned seed carries the tree as Solution.tree and the
nodes counted as Solution.tree_nodes, and dinkelbach.solve resumes the
tree in its first round, so a certified seed costs the solve no node (a
finished tree returns at once) and an uncertified one is searched on from
where its budget stopped.

The call is bounded by work, not by a share of any time limit: its tree
counts at most the budget above, it climbs once from each grouping the
tree returns and at most cfg.restarts times from random ones, so without a
time budget it ends by itself (a planted 24x40/k7 seed at 8 restarts in
about 0.3 s on a 2-CPU Xeon VM). A caller with one time limit for seed and
solve gives the seed all of it.

Determinism: the same rng_seed gives the same answer as long as the time
budget does not cut a run short. The budget is polled once before all
relocations are scored, once before all merges, before each cell's
splits and before every `fit_parts` call, so a climb overruns it by about
one of either; the tree polls it every 1024 counted nodes, and no tree
run or climb starts once it has passed.
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
    node_limit: int | None = None  # most nodes the seed's tree may count

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")


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
          deadline: float | None) -> Solution:
    """Local search from a machine grouping (labels 1..k, 0 = residual):
    place its parts optimally, then move to the best improving grouping of
    the first batch that has one until no batch improves or the monotonic
    deadline (None = none) passes. The result is never worse than the best
    placement of the parts for machine_cell."""
    cap = label_cap(inst, regime)
    sol = fit_parts(inst, machine_cell, regime)
    while True:
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
    """Best feasible grouping found by climbs from the groupings the seed's
    bnb.Tree returns and, once that tree stalls, from up to cfg.restarts
    random groupings; the first of equal efficacy, the one-cell grouping
    first of all.

    The tree runs at the best efficacy so far with incumbent_F = 0, on a
    node budget of cfg.restarts * m**2 * cap in all, or cfg.node_limit if
    lower (see the module docstring). A grouping it returns is where the
    next climb starts, and the first one also replaces the tree by a
    fresh one; a run that completes proves the seed optimal and ends the
    call; a run its budget stops without a grouping stalls the tree, and
    the restarts then climb from random groupings. The result carries the
    tree as its tree field, for dinkelbach.solve to resume, and the nodes
    counted against the budget as tree_nodes.
    Logs one INFO line: the climbs from tree groupings, the random climbs
    run out of cfg.restarts, the tree's nodes out of its budget and
    whether the seed was certified."""
    regime = cfg.regime
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    rng = random.Random(cfg.rng_seed)
    budget = cfg.restarts * inst.m ** 2 * label_cap(inst, regime)
    if cfg.node_limit is not None:
        budget = min(budget, cfg.node_limit)
    tree = Tree(inst, regime)
    best = fit_parts(inst, [1] * inst.m, regime)
    used = from_tree = randoms = 0  # tree nodes, climbs by their start
    certified = False
    while not _past(deadline):
        res = None
        if used < budget:
            res = tree.run(best.efficacy, 0,
                           None if deadline is None else deadline - time.monotonic(),
                           budget - used)
            used += res.stats.nodes
        if res is not None and res.solution is not None:
            cells = res.solution.machine_cell
            if not from_tree:  # the dive from the one-cell efficacy is dropped
                tree = Tree(inst, regime)
            from_tree += 1
        elif res is not None and not res.truncated:
            certified = True
            break
        elif randoms < cfg.restarts and not _past(deadline):
            k = rng.randint(1, min(inst.m, inst.p))
            cells = _random_machine_cells(inst.m, k, rng)
            randoms += 1
        else:
            break
        sol = climb(inst, cells, regime, deadline)
        if sol.efficacy > best.efficacy:
            best = sol
    log.info("heuristic tree_climbs=%d random_climbs=%d/%d tree_nodes=%d/%d "
             "certified=%s", from_tree, randoms, cfg.restarts, used, budget,
             "yes" if certified else "no")
    best = canonicalize(best)
    best.tree, best.tree_nodes = tree, used
    return best
