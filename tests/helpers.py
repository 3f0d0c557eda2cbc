"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: plain loops,
Fraction arithmetic, and a partition enumerator that shares no code with
cellform.partitions. Only sane for tiny instances.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from cellform.bnb import (child_bounds, future_bounds, label_cap,
                          make_weights, optimal_parts)
from cellform.heuristic import _random_machine_cells, fit_parts
from cellform.instances import Instance
from cellform.solutions import (Regime, Solution, canonicalize, efficacy,
                                renumber)


def random_instance(rng: random.Random, m: int, p: int, density: float,
                    name: str = "") -> Instance:
    """Random binary matrix at the given density, guaranteed n1 >= 1."""
    while True:
        a = tuple(
            tuple(1 if rng.random() < density else 0 for _ in range(p))
            for _ in range(m)
        )
        if any(any(row) for row in a):
            return Instance(name=name, m=m, p=p, a=a)


def machine_partitions(m):
    """All set partitions of m machines as 1-based label tuples."""

    def rec(i, labels, k):
        if i == m:
            yield tuple(labels)
            return
        for lab in range(1, k + 2):
            labels.append(lab)
            yield from rec(i + 1, labels, max(k, lab))
            labels.pop()

    yield from rec(0, [], 0)


def part_vectors(k, p, regime):
    if regime is Regime.NO_RESIDUAL:
        # every part in a cell, every cell gets at least one part
        want = set(range(1, k + 1))
        for v in itertools.product(range(1, k + 1), repeat=p):
            if set(v) == want:
                yield v
    else:
        # label 0 pools the leftover parts; machine-only cells are fine
        yield from itertools.product(range(0, k + 1), repeat=p)


def pair_counts(inst, machine_cell, part_cell):
    n1_in = 0
    pairs = 0
    for i in range(inst.m):
        ci = machine_cell[i]
        if ci == 0:
            continue
        for j in range(inst.p):
            if part_cell[j] == ci:
                pairs += 1
                n1_in += inst.a[i][j]
    return n1_in, pairs - n1_in


def naive_best(inst, regime) -> Fraction:
    """Exhaustive double enumeration of machine and part labelings."""
    best = Fraction(0)
    for mcell in machine_partitions(inst.m):
        k = max(mcell)
        for pcell in part_vectors(k, inst.p, regime):
            n1_in, n0_in = pair_counts(inst, mcell, pcell)
            den = inst.n1 + n0_in
            if den == 0:
                continue
            val = Fraction(n1_in, den)
            if val > best:
                best = val
    return best


class _Stop(Exception):
    pass


def reference_search(inst, lam, regime, incumbent_F=None, node_limit=None):
    """bnb.Tree.run from the root as a plain recursive depth-first search:
    one child_bounds call per node, on its open cells and, below the label
    cap, a zero row for a new cell; no stacked call and no child counted
    without a visit. A node cuts the children whose bound cannot beat the
    best F so far, counting them as nodes and prunes at once at one depth
    below it, then visits the rest best bound first, ties in label order,
    counting each as a node, and as a prune when the best F has risen to
    its bound. Without incumbent_F the search returns the maximum; with it,
    the first leaf that beats it. A node budget stops the search before a
    node past it, partway through a node's cut children included. Returns
    (best_F, solution, truncated, (nodes, leaves, pruned_bound,
    max_depth))."""
    m, p = inst.m, inst.p
    no_res = regime is Regime.NO_RESIDUAL
    cap = label_cap(inst, regime)
    order = sorted(range(m), key=lambda i: (-sum(inst.a[i]), i))
    wo = make_weights(inst, lam)[order]
    const = lam.num * inst.n1
    future = future_bounds(wo)
    best = {"F": float("-inf") if incumbent_F is None else incumbent_F,
            "solution": None}
    st = {"nodes": 0, "leaves": 0, "pruned": 0, "depth": 0}
    labels = []

    def count(n, depth):
        st["depth"] = max(st["depth"], depth)
        if node_limit is not None and st["nodes"] + n > node_limit:
            n = node_limit - st["nodes"]
            st["nodes"] += n
            st["pruned"] += n
            raise _Stop(True)
        st["nodes"] += n
        st["pruned"] += n

    def visit(cells):
        d = len(labels)
        rows = cells + [np.zeros(p, dtype=np.int64)] * (len(cells) < cap)
        b = child_bounds(np.array(rows), wo[d], future[d + 1] - const)
        kids = sorted((c for c in range(len(rows)) if b[c] > best["F"]),
                      key=lambda c: (-b[c], c))
        if len(kids) < len(rows):
            count(len(rows) - len(kids), d + 1)
        for c in kids:
            if node_limit is not None and st["nodes"] >= node_limit:
                raise _Stop(True)
            st["nodes"] += 1
            st["depth"] = max(st["depth"], d + 1)
            if b[c] <= best["F"]:
                st["pruned"] += 1
                continue
            child = [row.copy() for row in rows[:max(len(cells), c + 1)]]
            child[c] += wo[d]
            labels.append(c)
            if d + 1 < m:
                visit(child)
            else:
                st["leaves"] += 1
                part_cell, total = optimal_parts(np.array(child), no_res)
                if total - const > best["F"]:
                    best["F"] = total - const
                    machine_cell = [0] * m
                    for t in range(m):
                        machine_cell[order[t]] = labels[t] + 1
                    best["solution"] = Solution(max(machine_cell),
                                                machine_cell,
                                                part_cell.tolist())
                    if incumbent_F is not None:
                        raise _Stop(False)
            labels.pop()

    truncated = False
    try:
        visit([])
    except _Stop as stop:
        truncated = stop.args[0]
    sol = best["solution"]
    if sol is not None:
        sol = canonicalize(sol)
        efficacy(inst, sol)
    best_F = None if best["F"] == float("-inf") else best["F"]
    return best_F, sol, truncated, (st["nodes"], st["leaves"], st["pruned"],
                                    st["depth"])


def planted_instance(seed: int, m: int, p: int, k: int, p_in: float,
                     p_out: float) -> tuple[Instance, list[int]]:
    """Machines and parts dealt round-robin into k blocks and shuffled; a
    cell is 1 with probability p_in inside its block, p_out outside it.
    Returns the instance and the planted 1-based machine grouping."""
    rng = random.Random(seed)
    machine_block = [i % k for i in range(m)]
    part_block = [j % k for j in range(p)]
    rng.shuffle(machine_block)
    rng.shuffle(part_block)
    a = tuple(
        tuple(1 if rng.random() < (p_in if machine_block[i] == part_block[j]
                                   else p_out) else 0
              for j in range(p))
        for i in range(m))
    return (Instance(f"planted-{m}x{p}-k{k}-s{seed}", m, p, a),
            [b + 1 for b in machine_block])


def split_halves(rows, a):
    """Two-partitions of a cell's machines as lists of the rows that leave
    it: all of them up to 10 rows (the last row stays), else the split
    seeded by the first most dissimilar pair, with everyone else joining the
    nearer pole."""
    s = len(rows)
    if s <= 10:
        return [[rows[t] for t in range(s) if (mask >> t) & 1]
                for mask in range(1, 1 << (s - 1))]

    def dist(x, y):
        return sum(u != v for u, v in zip(a[x], a[y]))

    poles = (rows[0], rows[1])
    worst = -1
    for x in range(s):
        for y in range(x + 1, s):
            d = dist(rows[x], rows[y])
            if d > worst:
                worst = d
                poles = (rows[x], rows[y])
    return [[poles[1]] + [r for r in rows if r not in poles
                          and dist(r, poles[0]) > dist(r, poles[1])]]


def unscreened_moves(inst, machine_cell, cap):
    """Every neighbour of a machine grouping, in the climb's search order,
    as batches of label lists: one batch per relocation of a machine, one
    per merge of two cells, one per cell holding all its splits (only below
    cap cells)."""
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
            for right in split_halves(rows, inst.a):
                cells = list(machine_cell)
                for r in right:
                    cells[r] = k + 1
                batch.append(cells)
            yield batch


def unscreened_climb(inst, machine_cell, regime):
    """climb without a deadline and without the screen: it fits every
    neighbour at the current efficacy."""
    cap = label_cap(inst, regime)
    sol = fit_parts(inst, machine_cell, regime)
    improved = True
    while improved:
        improved = False
        for batch in unscreened_moves(inst, sol.machine_cell, cap):
            top = sol
            for cells in batch:
                cand = fit_parts(inst, renumber(cells), regime, sol.efficacy)
                if cand.efficacy > top.efficacy:
                    top = cand
            if top is not sol:
                sol, improved = top, True
                break
    return sol


def unscreened_heuristic_solve(inst, regime, restarts, rng_seed):
    """heuristic_solve with a tree that never returns a grouping, without a
    time budget and without the screen: the best of the one-cell grouping
    and the unscreened climbs from restarts random groupings, the first of
    equal efficacy."""
    rng = random.Random(rng_seed)
    best = fit_parts(inst, [1] * inst.m, regime)
    for _ in range(restarts):
        k = rng.randint(1, min(inst.m, inst.p))
        sol = unscreened_climb(inst, _random_machine_cells(inst.m, k, rng),
                               regime)
        if sol.efficacy > best.efficacy:
            best = sol
    best = canonicalize(best)
    efficacy(inst, best)
    return best
