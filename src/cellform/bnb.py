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
node in one numpy step, one child per row of cell sums it is given: the
machine joins each open cell or, below the label cap, the row after them,
which the tree keeps at 0 and which stands for a new cell. A child's best
other cell in a column, clipped at 0, comes from best_others, which the
heuristic's screen shares. The children whose bound cannot beat the
threshold are cut right there, counted as nodes and prunes in one step and
never walked; the rest are visited best bound first, ties in label order.
The cost of child_bounds is per numpy call, not per element, so a node with
two or more internal children left to visit also bounds all of their
children in one stacked call, one slab of cell sums per child, and a child
the search enters then makes no call of its own; a node with one child left
lets that child bound its children when the search enters it. A node whose
cut children overflow the node budget makes no stacked call: the run stops
among them. A child whose children the stacked call shows all cut is
counted with them, as nodes and prunes, from the parent's bounds and never
entered. A machine's row enters the cell sums only when the search descends
through it, added to and later taken from the cell's row in place through
views made once per run; leaves build their sums on demand. The search is a
single depth-first loop over an explicit stack in plain Python and numpy.

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

A resumed run without a node budget first tries to settle the rest of the
search depth by depth instead of depth first (Tree._settle). With an
incumbent the threshold stays fixed until a leaf beats it, so which nodes a
run counts, prunes, enters and scores does not depend on the order it
visits them in. The nodes left at one depth - the children the stack still
holds there and the live children of the depth above - all branch on the
same machine with the same offset, so one stacked child_bounds call bounds
all of their children: a numpy call per depth, not one per entered node.
The pass counts what the depth-first loop would. It gives up, leaving the
tree as it found it for the loop, once a live leaf beats the incumbent,
the frontier outgrows _SETTLE_SLABS or the deadline, polled once per
depth, has passed. A fresh tree's first run, and any run under a node
budget, goes straight to the loop: there the pass measured slower.
"""

from __future__ import annotations

import bisect
import functools
import math
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
# Most nodes one depth of Tree._settle may hold before it gives up to the
# depth-first loop; each holds its cell sums. On the first 600 seed-0
# proof-planted ops the widest depth of a proof holds 40 nodes at the median,
# 166 at p90 and 942 at most: 256 settles 540 of the 559 proofs for about
# 1 MB of peak memory, 512 settles 557 for about 1.8 MB
_SETTLE_SLABS = 256


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
    entered: int = 0  # nodes whose children the search sorted
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
) -> SubproblemResult:
    """Maximize F = q_den*n1_in - p_num*(n0_in + n1) over feasible groupings:
    one run of a fresh Tree.

    incumbent_F, when given, must be the value of a grouping the caller
    already holds. The search then returns the first grouping it reaches
    whose F beats incumbent_F, which need not be the maximum, with best_F
    its F; solution=None means that no grouping beats it (proven unless a
    budget stopped the search) and best_F == incumbent_F. Without
    incumbent_F, and unless a budget stops the search, the returned maximum
    is exact whatever its sign. A run under node_limit=n counts at most n
    nodes and settles every node it counts, so a budget of exactly the
    nodes a search needs lets it finish.
    """
    return Tree(inst, regime).run(lam, incumbent_F, time_limit, node_limit)


class Tree:
    """One depth-first search over the machine partitions of an instance,
    run at a rising lambda.

    Each depth keeps the children of its node still to visit, in visiting
    order, and a cursor into them, and, when two or more of them are
    internal and the node's cut children fit the node budget, the lists of
    their child bounds from one stacked call, in the same order; descending
    into child i gives it list i as its bounds, and leaving a node drops
    its bounds. A child whose list holds no bound above the threshold is
    not entered: the run counts it and its children in place, as entering
    it would, unless the node budget ends among them. Descending and
    returning add and take the machine's weights to and from the cell's
    row of cell_sums in place, so a run that finishes the search leaves
    cell_sums all 0.

    A run stops on the child it cannot finish - the first leaf that beats
    incumbent_F, or the one a budget stops at - and leaves it under the
    cursor, so the next run starts by visiting it again, at that run's
    lambda. Before it counts a child, a run tests its node count against
    the next count at which it looks at its budgets: the node budget, or
    1024 counted nodes after the last look, whichever comes first. There
    it stops if the node budget is spent or the deadline has passed, so
    it stops only on a child it has not counted, and it polls the clock
    every 1024 counted nodes. A node's cut children are counted in one
    step when the search enters it, unless they are more than the budget
    has left: then the node makes no stacked call, and they go first in
    its list of children to visit, for the cursor to count one at a time
    as it counts any child whose bound cannot beat the threshold, in this
    run and the next; a child cut at one lambda stays cut at any later
    run's (see the module docstring). So a run under a budget of n nodes
    counts at most n and moves the search that far on, runs chopped by
    budgets count what one run would, and one whose budget equals the
    nodes left to visit finishes. A leaf that stopped a run is counted
    again when the next run visits it. The stored lists hold the last
    run's lambda, so a resumed run drops them and re-bounds the nodes on
    the stack one call each. A resumed run without a node budget then
    tries _settle, which finishes the search level by level with the same
    counts, or gives up and leaves the tree to the loop.
    """

    def __init__(self, inst: Instance, regime: Regime):
        m = inst.m
        self.inst = inst
        self.no_res = regime is Regime.NO_RESIDUAL
        self.c_max = c_max = label_cap(inst, regime)
        # span[k]: the children of a node with k open cells
        self.span = [min(k + 1, c_max) for k in range(c_max + 2)]
        self.order = sorted(range(m),
                            key=lambda i: (-int(inst.matrix[i].sum()), i))
        # cells the search has descended through; rows past the open ones
        # are 0, so the row after them is a child's new cell
        self.cell_sums = np.zeros((self.c_max, inst.p), dtype=np.int64)
        # unit[c] * row, broadcast over the cells, puts row into cell c
        self.unit = np.eye(self.c_max, dtype=np.int64)[:, :, None]
        # per depth: the node's open cells, its child bounds (None until the
        # search enters the node or bounds it from its parent's stack), the
        # bounds of its children's children in visiting order (None for a
        # node with one child left or whose children are leaves), the
        # children left to visit (None until the search enters the node),
        # the cursor into them and the label tried
        self.opened = [0] * m
        self.bounds = [None] * m
        self.grand = [None] * m
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
        """Rebuild the cell sums of the stack at the new weights, drop the
        stored bounds of the children's children, which hold the old lambda,
        and re-bound the stack's nodes; the children left to visit are then
        checked against the new bounds as the search reaches them."""
        wo, cell_sums = self.wo, self.cell_sums
        cell_sums[:] = 0
        self.grand = [None] * self.inst.m
        for t in range(self.d + 1):
            self.bounds[t] = child_bounds(
                cell_sums[:min(self.opened[t] + 1, self.c_max)], wo[t],
                self.offset[t])
            if t < self.d:
                cell_sums[self.trying[t]] += wo[t]

    def _settle(self, best_F: int, deadline: float) -> SubproblemStats | None:
        """Finish a resumed search depth by depth, when no leaf beats best_F.

        The frontier at depth d holds the live nodes that place machines
        0..d-1: the children of the last depth's frontier whose bound beats
        best_F, and the children the stack still holds at depth d - 1 that
        do. All of them branch on machine d and add offset[d], so one
        stacked child_bounds call, made in chunks of half _SETTLE_SLABS
        slabs, bounds all of their children. The run counts what the
        depth-first loop would: every child of a live internal node, a
        child the stack holds when it is visited, a prune for each bound
        at or below best_F. A node is entered unless its parent had two or
        more live children and none of its own is live (the loop counts
        such a node from the parent's stacked call); a child the stack
        holds is always entered, as _resume dropped its parent's call.

        Returns the run's stats with the search finished, or None, the
        tree as it was, once a live leaf beats best_F, the frontier grows
        past _SETTLE_SLABS or the deadline, polled once per depth, passes;
        it gives up before it bounds a node when the stack's live children,
        whose cell sums it builds up front, are more than _SETTLE_SLABS.
        """
        m, wo, unit, span = self.inst.m, self.wo, self.unit, self.span
        # allow[k]: the labels of the children of a node with k open cells
        allow = np.arange(self.c_max) < np.array(span)[:, None]
        chunk = (_SETTLE_SLABS + 1) // 2  # slabs per child_bounds call
        nodes = pruned = entered = max_depth = 0
        # the live children the stack holds, by depth, and their cell sums
        at, label, root_k = [], [], []
        for d in range(self.d + 1):
            b, kd = self.bounds[d], self.opened[d]
            todo = self.kids[d][self.cursor[d]:]
            live = [c for c in todo if b[c] > best_F]
            nodes += len(todo)
            pruned += len(todo) - len(live)
            if todo:
                max_depth = d + 1
            at += [d] * len(live)
            label += live
            root_k += [max(kd, c + 1) for c in live]
        if len(at) > _SETTLE_SLABS:  # their sums alone would pass the cap
            return None
        path = np.zeros((self.d + 1,) + self.cell_sums.shape, dtype=np.int64)
        path[1:] = np.cumsum(unit[self.trying[:self.d]] * wo[:self.d, None],
                             axis=0)
        root_sums = path[at] + unit[label] * wo[at, None]
        root_k = np.array(root_k, dtype=np.intp)
        root_lone = np.ones(len(at), dtype=bool)
        sums, k, lone = root_sums[:0], root_k[:0], root_lone[:0]
        for d in range(m):
            if time.monotonic() > deadline:
                return None
            lo, hi = bisect.bisect_left(at, d), bisect.bisect_right(at, d)
            j = c = y = k  # empty, as the frontier is, until it has nodes
            if len(k):  # bound and count the children of the frontier
                b = []
                for a in range(0, len(k), chunk):
                    b += child_bounds(sums[a:a + chunk], wo[d],
                                      self.offset[d])
                ok = allow[k, :sums.shape[1]]
                live = np.array(b, dtype=np.int64) > best_F
                live &= ok
                y = live.sum(axis=1)
                n = int(np.count_nonzero(ok))
                nodes += n
                pruned += n - int(y.sum())
                entered += int(np.count_nonzero(lone | (y > 0)))
                max_depth = max(max_depth, d + 1)
                j, c = np.nonzero(live)
            elif lo == hi:
                continue
            # the next frontier: the live children, then the live children
            # the stack holds at this depth
            if len(j) + hi - lo > _SETTLE_SLABS:
                return None
            k = np.concatenate((np.maximum(k[j], c + 1), root_k[lo:hi]))
            lone = np.concatenate((y[j] == 1, root_lone[lo:hi]))
            rows = span[k.max(initial=0)]
            r = min(rows, sums.shape[1])
            kids = np.zeros((len(k), rows, sums.shape[2]), dtype=np.int64)
            # clip, as j is in range, lets take write into kids unbuffered
            np.take(sums[:, :r], j, axis=0, out=kids[:len(j), :r], mode="clip")
            kids[np.arange(len(j)), c] += wo[d]
            kids[len(j):] = root_sums[lo:hi, :rows]
            sums = kids
        for S, kc in zip(sums, k.tolist()):  # the live leaves
            if optimal_parts(S[:kc], self.no_res)[1] - self.const > best_F:
                return None
        self.d = -1
        self.cell_sums[:] = 0
        self.kids = [None] * m
        self.bounds = [None] * m  # _resume has dropped grand
        return SubproblemStats(nodes, len(sums), pruned, max_depth, entered)

    def run(self, lam: Ratio, incumbent_F: int | None = None,
            time_limit: float | None = None,
            node_limit: int | None = None) -> SubproblemResult:
        """Search at lam from where the last run stopped, as
        solve_subproblem does from the root; time_limit and node_limit
        bound this run. A tree that has run resumes only at a lambda no
        lower than its last, from a last threshold <= 0 to an incumbent_F
        >= 0: everything it pruned or passed then stays settled. A tree
        whose search has finished has nothing left to visit, so such a
        run returns incumbent_F at once, in no node and without weighing
        the instance at lam."""
        resuming = self.lam is not None
        if resuming and (lam < self.lam or self.floor > 0
                         or incumbent_F is None or incumbent_F < 0):
            raise ValueError(
                f"cannot resume from lambda {self.lam} (threshold "
                f"{self.floor}) at {lam} (incumbent_F {incumbent_F})")
        if self.d < 0:  # the search is finished: nothing left to visit
            self.lam = lam
            self.floor = incumbent_F
            return SubproblemResult(incumbent_F, None, False,
                                    SubproblemStats())
        # both budgets as numbers, math.inf for none
        limit = math.inf if node_limit is None else node_limit
        deadline = (math.inf if time_limit is None
                    else time.monotonic() + time_limit)
        self._weigh(lam)
        if resuming:
            self._resume()
            if node_limit is None:
                stats = self._settle(incumbent_F, deadline)
                if stats is not None:
                    self.floor = incumbent_F
                    return SubproblemResult(incumbent_F, None, False, stats)
        m, order = self.inst.m, self.order
        wo, offset, const = self.wo, self.offset, self.const
        c_max, no_res = self.c_max, self.no_res
        cell_sums, opened, bounds = self.cell_sums, self.opened, self.bounds
        grand, unit = self.grand, self.unit
        kids, cursor, trying = self.kids, self.cursor, self.trying
        # views of each cell's row and each machine's weights, made once, so
        # that adding one to the other is one in-place numpy step; _resume
        # zeroes cell_sums in place, which keeps them valid
        cell_row, w_row = list(cell_sums), list(wo)
        span = self.span

        best_F = _NEG_INF if incumbent_F is None else incumbent_F
        best_m = best_p = None
        nodes = leaves = pruned_bound = max_depth = entered = 0
        truncated = False
        d = self.d
        check = min(limit, 1024)  # the node count of the next budget test

        while d >= 0:
            k = opened[d]
            todo = kids[d]
            if todo is None:  # entering the node: cut, then sort its children
                entered += 1
                n = span[k]
                b = bounds[d]
                if b is None:
                    b = bounds[d] = child_bounds(cell_sums[:n], wo[d],
                                                 offset[d])
                todo = [c for c in range(n) if b[c] > best_F]
                todo.sort(key=b.__getitem__, reverse=True)
                cut = n - len(todo)
                grand[d] = None
                if nodes + cut > limit:
                    # more than the budget has left: they go first, for the
                    # cursor to count one at a time, this run and the next
                    todo[:0] = [c for c in range(n) if b[c] <= best_F]
                else:
                    nodes += cut  # counted in one step, never walked
                    pruned_bound += cut
                    # two or more internal children: bound all of their
                    # children in one call, child i's slab holding the
                    # machine in cell todo[i]. A child that opens no cell
                    # gets one zero row more than it has children, whose
                    # bound repeats that of its new cell, as best_others
                    # clips at 0
                    if len(todo) > 1 and d + 1 < m:
                        rows = span[k + 1]
                        grand[d] = child_bounds(
                            cell_sums[:rows] + unit[todo, :rows] * wo[d],
                            wo[d + 1], offset[d + 1])
                if cut and d + 1 > max_depth:
                    max_depth = d + 1
                kids[d] = todo
                cursor[d] = 0
            i = cursor[d]
            if i == len(todo):
                kids[d] = bounds[d] = None
                d -= 1
                if d >= 0:  # leave the parent's cell the way it was
                    cell_row[trying[d]] -= w_row[d]
                continue
            c = todo[i]
            kc = k + 1 if c == k else k

            if nodes >= check:  # at the node budget, or time to poll the clock
                if nodes >= limit or time.monotonic() > deadline:
                    truncated = True
                    break
                check = min(limit, nodes + 1024)
            depth = d + 1
            nodes += 1
            if depth > max_depth:
                max_depth = depth
            cursor[d] = i + 1
            trying[d] = c

            if bounds[d][c] <= best_F:
                pruned_bound += 1
                continue

            g = grand[d]
            if g is not None:  # the child's children are bounded already
                g = g[i]
                nk = span[kc]
                # none beats best_F: count them as the child's entry would,
                # unless the budget ends inside them, and never enter it
                if max(g) <= best_F and nodes + nk <= limit:
                    nodes += nk
                    pruned_bound += nk
                    if depth + 1 > max_depth:
                        max_depth = depth + 1
                    continue
            elif depth == m:
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

            cell_row[c] += w_row[d]
            if g is not None:  # the child's entry makes no call
                bounds[depth] = g[:nk]
            d = depth
            opened[d] = kc

        self.d = d
        self.floor = best_F if incumbent_F is None else incumbent_F
        stats = SubproblemStats(nodes, leaves, pruned_bound, max_depth,
                                entered)
        solution = None
        if best_m is not None:
            solution = canonicalize(Solution(max(best_m), best_m, best_p))
            efficacy(self.inst, solution)
        if best_F <= _NEG_INF:
            return SubproblemResult(None, None, truncated, stats)
        return SubproblemResult(int(best_F), solution, truncated, stats)
