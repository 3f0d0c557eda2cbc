"""Branch-and-bound over machine partitions for the parametric subproblem.

For a fixed lambda = p_num/q_den the parametric objective

    F = q_den * n1_in - p_num * (n0_in + n1)

is additive over (cell, part) pairs with weights q_den*a - p_num*(1-a)
(make_weights, an (m, p) int64 array), so once the machine partition is
fixed each part independently takes the cell with the best weight-column
sum, or residual when the regime allows it (optimal_parts, which the
heuristic's part placement calls too). The search therefore only branches on
machine partitions, encoded as restricted-growth strings with machines
ordered densest-first. Its only prune is a child's bound, which lets every
part pick its best cell while every unassigned machine contributes all of
its positive weights; child_bounds scores all children of a node (the
machine joins each open cell, or opens a new one) in one numpy step when
the search descends into the node, so its children are then visited with
scalar compares only. A machine's row enters the cell sums only when the
search descends through it; pruned children and leaves build their sums on
demand. The search is a single depth-first loop over an explicit label
stack in plain Python and numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .rational import Ratio
from .solutions import Regime, Solution, canonicalize, efficacy

_NEG_INF = -(1 << 62)


def make_weights(inst: Instance, lam: Ratio) -> np.ndarray:
    """Per-(machine, part) weights q_den*a - p_num*(1-a) for lambda =
    p_num/q_den, as an (m, p) int64 array."""
    a = inst.matrix
    return lam.den * a - lam.num * (1 - a)


def child_bounds(cell_sums: np.ndarray, row: np.ndarray, future: int,
                 const: int, c_max: int) -> list[int]:
    """Optimistic value of the best completion of each child of a node.

    cell_sums (k x p, k >= 0) holds the weight column sums of the node's k
    open cells, row the weights of the machine it branches on and future
    the sum of the positive weights of the machines after that one. Child
    c < k puts the machine in cell c; child k, present when k < c_max,
    opens a new cell. In a child each part takes max(best cell column sum,
    0) - it may also open a fresh cell or go residual, both worth at least
    0 - and every later machine contributes all of its positive weights.
    Admissible for both regimes (the no-residual feasible set is a subset
    of allow-residual's).

    A child changes one cell, so its best other cell in a column is the
    column's second best where that cell holds the best, else the best.
    The new cell is scored as a zero row of the parent plus the machine.
    """
    k, p = cell_sums.shape
    if k < c_max:
        cell_sums = np.concatenate((cell_sums, np.zeros((1, p), np.int64)))
    if len(cell_sums) == 1:
        return [int(np.maximum(cell_sums[0] + row, 0).sum()) + future - const]
    second, best = np.maximum(np.sort(cell_sums, axis=0)[-2:], 0)
    other = np.where(cell_sums == best, second, best)
    return (np.maximum(cell_sums + row, other).sum(axis=1)
            + (future - const)).tolist()


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
    pruned_void: int = 0  # always 0 (the bound is the only prune); perfbench reads it
    max_depth: int = 0
    max_cells: int = 0
    engine: str = "python"


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
    """Maximize F = q_den*n1_in - p_num*(n0_in + n1) over feasible groupings.

    incumbent_F, when given, must be the value of a grouping the caller
    already holds; only strictly better groupings are returned
    (solution=None means the incumbent stands and best_F == incumbent_F).
    Unless a budget stops the search, the returned maximum is exact whatever
    its sign. `prune=False` disables the bound prune (full enumeration).
    """
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    w = make_weights(inst, lam)
    no_res = regime is Regime.NO_RESIDUAL
    c_max = label_cap(inst, regime)
    order = sorted(range(inst.m), key=lambda i: (-int(inst.matrix[i].sum()), i))

    best_F, best_m, best_p, stats, truncated = _search(
        w, order, c_max, no_res, lam.num * inst.n1,
        _NEG_INF if incumbent_F is None else incumbent_F,
        node_limit, deadline, prune,
    )

    solution = None
    if best_m is not None:
        machine_cell = [int(v) for v in best_m]
        part_cell = [int(v) for v in best_p]
        solution = canonicalize(Solution(max(machine_cell), machine_cell, part_cell))
        efficacy(inst, solution)
    if best_F <= _NEG_INF:
        return SubproblemResult(None, None, truncated, stats)
    return SubproblemResult(int(best_F), solution, truncated, stats)


def _search(w, order, c_max, no_res, const, best_F0, node_limit, deadline,
            prune):
    m, p = w.shape
    wo = w[order]
    pos_row = np.maximum(wo, 0).sum(axis=1)
    suffix = [0] * (m + 1)  # positive weight of the machines from depth d on
    for d in range(m - 1, -1, -1):
        suffix[d] = suffix[d + 1] + int(pos_row[d])

    # cells the search has descended through; rows past the open ones are 0
    cell_sums = np.zeros((c_max, p), dtype=np.int64)
    # per depth: the label tried, the node's open cells, its child bounds
    trying = [-1] * m
    opened = [0] * m
    bounds = [None] * m

    best_F = best_F0
    best_m = best_p = None
    nodes = leaves = pruned_bound = max_depth = max_cells = 0
    truncated = False
    d = 0
    tick = 0

    while d >= 0:
        k = opened[d]
        c = trying[d] + 1
        if c >= min(k + 1, c_max):
            trying[d] = -1
            d -= 1
            if d >= 0:  # leave the parent's cell the way it was
                cell_sums[trying[d]] -= wo[d]
            continue
        if c == 0 and prune:  # entering the node: score all its children
            bounds[d] = child_bounds(cell_sums[:k], wo[d], suffix[d + 1],
                                     const, c_max)
        trying[d] = c
        kc = k + 1 if c == k else k

        depth = d + 1
        nodes += 1
        if depth > max_depth:
            max_depth = depth
        if kc > max_cells:
            max_cells = kc

        if node_limit is not None and nodes >= node_limit:
            truncated = True
            break
        tick += 1
        if deadline is not None and tick >= 1024:
            tick = 0
            if time.monotonic() > deadline:
                truncated = True
                break

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
                best_m = np.empty(m, dtype=np.int64)
                for t in range(m):
                    best_m[order[t]] = trying[t] + 1
                best_p = plabels.copy()
            continue

        cell_sums[c] += wo[d]
        d = depth
        opened[d] = kc

    stats = SubproblemStats(nodes, leaves, pruned_bound, max_depth=max_depth,
                            max_cells=max_cells)
    return best_F, best_m, best_p, stats, truncated
