"""Branch-and-bound over machine partitions for the parametric subproblem.

For a fixed lambda = p_num/q_den the parametric objective

    F = q_den * n1_in - p_num * (n0_in + n1)

is additive over (cell, part) pairs with weights q_den*a - p_num*(1-a)
(make_weights, an (m, p) int64 array), so once the machine partition is
fixed each part independently takes the cell with the best weight-column
sum, or residual when the regime allows it (optimal_parts, which the
heuristic's part placement calls too). The search therefore only branches on
machine partitions, encoded as restricted-growth strings with machines
ordered densest-first. Its only prune is a child's bound: every part picks
its best cell, or 0, and the unassigned machines add future_bounds, a bound
on what they can add on their own. child_bounds scores all children of a
node in one numpy step when the search enters the node, one child per row
of cell sums it is given: the machine joins each open cell or, below the
label cap, the row after them, which the tree keeps at 0 and which stands
for a new cell. A child's best other cell in a column, clipped at 0, comes
from best_others, which the heuristic's screen shares. The children whose
bound cannot beat the threshold are cut right there, counted as nodes and
prunes in one step and never walked; the rest are visited best bound
first, ties in label order. A machine's row enters the cell sums only when
the search descends through it; leaves build their sums on demand. The
search is a single depth-first loop over an explicit stack in plain Python
and numpy.

The bound is admissible in both regimes. In any completion a part's value
is at most max(0, its best column sum over the assigned rows of a cell)
plus max(0, its best column sum over the unassigned rows of a cell); the
second terms add up to the value of a grouping of the unassigned machines
alone. For the last _TAIL_EXACT machines future_bounds is the best such
value over all their set partitions; above them each machine adds its
positive weights, which bounds what it can add to any grouping.

Given an incumbent value, the search stops at the first leaf that beats it:
the Dinkelbach loop needs only one grouping with F > 0 to raise its ratio,
not the round's maximum. A search that finds no such leaf has visited or
pruned every node, so its "nothing beats the incumbent" is a proof. Without
an incumbent the search returns the exact maximum.

A Tree keeps that search between runs, so one depth-first search serves a
whole Dinkelbach solve: each run rebuilds the weights at its raised lambda,
re-bounds the nodes on the stack and resumes where the last run stopped.
That is exact because every bound, and every leaf's F, scaled by 1/q_den
does not increase in lambda: each is a sum, or a max of sums, of terms
a - lambda*(1 - a), and future_bounds is a max over partitions of such sums.
A child pruned at bound <= 0 stays pruned, and a leaf passed at F <= 0
stays below, at any higher ratio. So a run that completes proves that
nothing beats its lambda.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .instances import Instance
from .partitions import iter_set_partitions
from .rational import Ratio
from .solutions import Regime, Solution, canonicalize, efficacy

_NEG_INF = -(1 << 62)
_TAIL_EXACT = 6  # suffixes up to this long get an exact future; Bell(6) = 203


def make_weights(inst: Instance, lam: Ratio) -> np.ndarray:
    """Per-(machine, part) weights q_den*a - p_num*(1-a) for lambda =
    p_num/q_den, as an (m, p) int64 array."""
    a = inst.matrix
    return lam.den * a - lam.num * (1 - a)


@functools.cache
def _tail_partitions(n: int) -> np.ndarray:
    """Every set partition of n items as a (Bell(n), n) array of block
    bitmasks, item i as bit i; blocks a partition does not use are 0."""
    partitions = list(iter_set_partitions(n))
    masks = np.zeros((len(partitions), n), dtype=np.intp)
    for b, labels in enumerate(partitions):
        for i, c in enumerate(labels):
            masks[b, c] |= 1 << i
    return masks


def future_bounds(wo: np.ndarray) -> list[int]:
    """future[d] (d = 0..m) bounds what the machines of rows wo[d:] add to
    any completion on their own. For d >= m - _TAIL_EXACT it is exact: the
    value of their best grouping, in which each part takes max(0, best
    block column sum), over the set partitions of those rows, scored from
    the column sums of every subset of the last rows. Above that each row
    adds its positive weights to the bound below it."""
    m, p = wo.shape
    future = [0] * (m + 1)
    tail = min(m, _TAIL_EXACT)
    subset = np.zeros((1 << tail, p), dtype=np.int64)  # bit i: row m-1-i
    for i in range(tail):
        subset[1 << i:2 << i] = subset[:1 << i] + wo[m - 1 - i]
    for n in range(1, tail + 1):
        masks = _tail_partitions(n)
        best = subset[masks[:, 0]]  # per partition, its best block per part
        for c in range(1, n):
            np.maximum(best, subset[masks[:, c]], out=best)
        future[m - n] = int(np.maximum(best, 0, out=best).sum(axis=1).max())
    pos_row = np.maximum(wo[:m - tail], 0).sum(axis=1).tolist()
    for d in range(m - tail - 1, -1, -1):
        future[d] = future[d + 1] + pos_row[d]
    return future


def best_others(sums: np.ndarray) -> np.ndarray:
    """Per row and column of sums (..., k, p), the best sum of the other
    rows in that column, clipped at 0: the column's second best where the
    row holds the best, else the best. A lone row has no other, so 0."""
    if sums.shape[-2] == 1:
        return np.zeros_like(sums)
    top = np.maximum(np.sort(sums, axis=-2)[..., -2:, :], 0)
    second, best = top[..., :1, :], top[..., 1:, :]
    return np.where(sums == best, second, best)


def child_bounds(cell_sums: np.ndarray, row: np.ndarray, offset: int) -> list:
    """Optimistic value of the best completion of each child of a node.

    cell_sums (k x p, k >= 1) holds the weight column sums of the cells a
    child may put the machine in, one child per row; a row of zeros is the
    new cell. row holds the weights of the machine the node branches on,
    and offset is an upper bound on what the machines after that one add
    on their own (the future_bounds entry of the next depth) minus the
    p_num*n1 constant. In a child each part takes max(best cell column
    sum, 0) - it may also open a fresh cell or go residual, both worth at
    least 0 - and offset is added. Admissible for both regimes (see the
    module docstring; the no-residual feasible set is a subset of
    allow-residual's).

    A child changes one row, so its best other cell in a column is
    best_others of that row. The search passes its open cells and, below
    the label cap, the spare row after them, which the tree keeps at 0.

    A stack of nodes is scored in the same step: cell_sums of shape
    (..., k, p) and row of shape (..., p) give one list of bounds per node.
    """
    return (np.maximum(cell_sums + row[..., None, :], best_others(cell_sums))
            .sum(axis=-1) + offset).tolist()


def optimal_parts(S: np.ndarray, no_residual: bool) -> tuple[np.ndarray, int]:
    """Best part labels for fixed per-cell column sums S (k x p).

    Returns labels in 1..k (0 = residual) and the total contribution (the
    parametric value without the -p_num*n1 constant). Allow-residual: each
    part takes its best positive cell, ties to the lowest label, exact zeros
    go residual. No-residual: every part must take a cell and every cell
    needs a part; when the per-part greedy leaves cells empty, an exact
    minimum-loss assignment of distinct representative parts repairs the
    cover.
    """
    k, p = S.shape
    best = S.max(axis=0)
    arg = S.argmax(axis=0)  # first maximum = lowest cell label
    if not no_residual:
        labels = np.where(best > 0, arg + 1, 0)
        return labels, int(np.maximum(best, 0).sum())
    if k > p:
        raise ValueError(f"no feasible cover: {k} cells, {p} parts")
    labels = arg + 1
    covered = np.zeros(k + 1, dtype=bool)
    covered[labels] = True
    if bool(covered[1:].all()):
        return labels, int(best.sum())
    loss = best[None, :] - S  # loss[c, j] >= 0 of forcing part j into cell c
    pick, loss_total = _min_loss_cover(loss.tolist())
    for cell0, j in enumerate(pick):
        labels[j] = cell0 + 1
    return labels, int(best.sum()) - loss_total


def _min_loss_cover(loss) -> tuple[list[int], int]:
    """Pick one distinct part per cell minimizing total loss.

    Shortest-augmenting-path assignment on the rectangular loss matrix
    (cells x parts, cells <= parts), exact for integer losses. Cell and part
    indices are shifted by one internally; column 0 is the dummy start.
    """
    k = len(loss)
    p = len(loss[0])
    INF = 1 << 60
    u = [0] * (k + 1)
    v = [0] * (p + 1)
    cell_at = [0] * (p + 1)  # cell matched to each part, 0 = free
    way = [0] * (p + 1)
    for c in range(1, k + 1):
        cell_at[0] = c
        j0 = 0
        minv = [INF] * (p + 1)
        used = [False] * (p + 1)
        while True:
            used[j0] = True
            c0 = cell_at[j0]
            delta = INF
            j_next = 0
            row = loss[c0 - 1]
            for j in range(1, p + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[c0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j_next = j
            for j in range(p + 1):
                if used[j]:
                    u[cell_at[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j_next
            if cell_at[j0] == 0:
                break
        while j0:
            j_prev = way[j0]
            cell_at[j0] = cell_at[j_prev]
            j0 = j_prev
    pick = [-1] * k
    total = 0
    for j in range(1, p + 1):
        if cell_at[j]:
            pick[cell_at[j] - 1] = j - 1
            total += loss[cell_at[j] - 1][j - 1]
    return pick, total


@dataclass
class SubproblemStats:
    nodes: int = 0
    leaves: int = 0
    pruned_bound: int = 0
    max_depth: int = 0
    # constants that perfbench reads: the bound is the only prune, and the
    # search runs in plain Python
    pruned_void: ClassVar[int] = 0
    engine: ClassVar[str] = "python"


@dataclass
class SubproblemResult:
    best_F: int | None        # None only when nothing was found at all
    solution: Solution | None  # None when the incumbent baseline stands
    truncated: bool
    stats: SubproblemStats


def label_cap(inst: Instance, regime: Regime) -> int:
    """Most cells any optimal grouping needs. No-residual: min(m, p) since a
    cell needs a machine and a part. Allow-residual: min(m, p+1) - at most p
    part-bearing cells plus one pooled machine-only cell."""
    if regime is Regime.NO_RESIDUAL:
        return min(inst.m, inst.p)
    return min(inst.m, inst.p + 1)


def solve_subproblem(
    inst: Instance,
    lam: Ratio,
    regime: Regime,
    incumbent_F: int | None = None,
    time_limit: float | None = None,
    node_limit: int | None = None,
    prune: bool = True,
) -> SubproblemResult:
    """Maximize F = q_den*n1_in - p_num*(n0_in + n1) over feasible groupings:
    one run of a fresh Tree.

    incumbent_F, when given, must be the value of a grouping the caller
    already holds. The search then returns the first grouping it reaches
    whose F beats incumbent_F, which need not be the maximum, with best_F
    its F; solution=None means that no grouping beats it (proven unless a
    budget stopped the search) and best_F == incumbent_F. Without
    incumbent_F, and unless a budget stops the search, the returned maximum
    is exact whatever its sign. `prune=False` disables the bound prune.
    """
    return Tree(inst, regime, prune).run(lam, incumbent_F, time_limit,
                                         node_limit)


class Tree:
    """One depth-first search over the machine partitions of an instance,
    run at a rising lambda.

    Each depth keeps the children of its node still to visit, in visiting
    order, and a cursor into them. A run stops on the child it cannot
    finish - the first leaf that beats incumbent_F, or the one a budget
    stops at - and leaves it under the cursor, so the next run starts by
    visiting it again, at that run's lambda.
    """

    def __init__(self, inst: Instance, regime: Regime, prune: bool = True):
        m = inst.m
        self.inst = inst
        self.no_res = regime is Regime.NO_RESIDUAL
        self.c_max = label_cap(inst, regime)
        self.prune = prune
        self.order = sorted(range(m),
                            key=lambda i: (-int(inst.matrix[i].sum()), i))
        # cells the search has descended through; rows past the open ones
        # are 0, so the row after them is a child's new cell
        self.cell_sums = np.zeros((self.c_max, inst.p), dtype=np.int64)
        # per depth: the node's open cells, its child bounds, the children
        # left to visit (None until the search enters the node), the cursor
        # into them and the label tried
        self.opened = [0] * m
        self.bounds = [None] * m
        self.kids = [None] * m
        self.cursor = [0] * m
        self.trying = [-1] * m
        self.d = 0  # deepest node on the stack; -1 once the search is done
        self.lam = None  # the last run's lambda
        self.floor = None  # the last run's prune threshold at its end

    def _weigh(self, lam: Ratio) -> None:
        wo = make_weights(self.inst, lam)[self.order]
        self.lam, self.wo = lam, wo
        self.const = lam.num * self.inst.n1
        # per depth, the child_bounds offset of the machines below it
        self.offset = [f - self.const for f in future_bounds(wo)[1:]]

    def _resume(self) -> None:
        """Rebuild the cell sums of the stack at the new weights and re-bound
        its nodes; the children left to visit are then checked against the
        new bounds as the search reaches them."""
        wo, cell_sums = self.wo, self.cell_sums
        cell_sums[:] = 0
        for t in range(self.d + 1):
            if self.prune:
                self.bounds[t] = child_bounds(
                    cell_sums[:min(self.opened[t] + 1, self.c_max)], wo[t],
                    self.offset[t])
            if t < self.d:
                cell_sums[self.trying[t]] += wo[t]

    def run(self, lam: Ratio, incumbent_F: int | None = None,
            time_limit: float | None = None,
            node_limit: int | None = None) -> SubproblemResult:
        """Search at lam from where the last run stopped, as
        solve_subproblem does from the root; time_limit and node_limit
        bound this run. A tree that has run resumes only at a lambda no
        lower than its last, from a last threshold <= 0 to an incumbent_F
        >= 0: everything it pruned or passed then stays settled."""
        resuming = self.lam is not None
        if resuming and (lam < self.lam or self.floor > 0
                         or incumbent_F is None or incumbent_F < 0):
            raise ValueError(
                f"cannot resume from lambda {self.lam} (threshold "
                f"{self.floor}) at {lam} (incumbent_F {incumbent_F})")
        self._weigh(lam)
        if resuming:
            self._resume()

        deadline = (time.monotonic() + time_limit
                    if time_limit is not None else None)
        m, order = self.inst.m, self.order
        wo, offset, const = self.wo, self.offset, self.const
        c_max, no_res, prune = self.c_max, self.no_res, self.prune
        cell_sums, opened, bounds = self.cell_sums, self.opened, self.bounds
        kids, cursor, trying = self.kids, self.cursor, self.trying

        best_F = _NEG_INF if incumbent_F is None else incumbent_F
        best_m = best_p = None
        nodes = leaves = pruned_bound = max_depth = 0
        truncated = False
        d = self.d
        tick = 0

        while d >= 0:
            k = opened[d]
            todo = kids[d]
            if todo is None:  # entering the node: cut, then sort its children
                n = min(k + 1, c_max)
                if prune:
                    b = bounds[d] = child_bounds(cell_sums[:n], wo[d],
                                                 offset[d])
                    todo = [c for c in range(n) if b[c] > best_F]
                    todo.sort(key=b.__getitem__, reverse=True)
                else:
                    todo = list(range(n))
                kids[d] = todo
                cursor[d] = 0
                cut = n - len(todo)
                if cut:  # counted in one step, never walked
                    if node_limit is not None and nodes + cut >= node_limit:
                        cut = node_limit - nodes
                        truncated = True
                    nodes += cut
                    pruned_bound += cut
                    if d + 1 > max_depth:
                        max_depth = d + 1
                    if truncated:
                        break
            i = cursor[d]
            if i == len(todo):
                kids[d] = None
                d -= 1
                if d >= 0:  # leave the parent's cell the way it was
                    cell_sums[trying[d]] -= wo[d]
                continue
            c = todo[i]
            kc = k + 1 if c == k else k

            depth = d + 1
            nodes += 1
            if depth > max_depth:
                max_depth = depth

            if node_limit is not None and nodes >= node_limit:
                truncated = True
                break
            tick += 1
            if deadline is not None and tick >= 1024:
                tick = 0
                if time.monotonic() > deadline:
                    truncated = True
                    break
            cursor[d] = i + 1
            trying[d] = c

            if prune and bounds[d][c] <= best_F:
                pruned_bound += 1
                continue

            if depth == m:
                leaves += 1
                sums = cell_sums[:kc].copy()
                sums[c] += wo[d]
                plabels, total = optimal_parts(sums, no_res)
                F = total - const
                if F > best_F:
                    best_F = F
                    best_m = [0] * m
                    for t in range(m):
                        best_m[order[t]] = trying[t] + 1
                    best_p = plabels.tolist()
                    if incumbent_F is not None:  # beats the incumbent: stop
                        cursor[d] = i
                        break
                continue

            cell_sums[c] += wo[d]
            d = depth
            opened[d] = kc

        self.d = d
        self.floor = best_F if incumbent_F is None else incumbent_F
        stats = SubproblemStats(nodes, leaves, pruned_bound, max_depth)
        solution = None
        if best_m is not None:
            solution = canonicalize(Solution(max(best_m), best_m, best_p))
            efficacy(self.inst, solution)
        if best_F <= _NEG_INF:
            return SubproblemResult(None, None, truncated, stats)
        return SubproblemResult(int(best_F), solution, truncated, stats)
