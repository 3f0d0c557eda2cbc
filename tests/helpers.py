"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: plain loops,
Fraction arithmetic, and a partition enumerator that shares no code with
cellform.partitions. Only sane for tiny instances.
"""

import itertools
import random
from fractions import Fraction

from cellform.bnb import label_cap
from cellform.heuristic import _random_machine_cells, fit_parts
from cellform.instances import Instance
from cellform.solutions import Regime, canonicalize, efficacy, renumber


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


def unscreened_heuristic_solve(inst, regime, restarts, rng_seed):
    """heuristic_solve without a time budget and without the screen: the
    climb fits every neighbour at the current efficacy."""
    cap = label_cap(inst, regime)
    rng = random.Random(rng_seed)
    best = None
    for _ in range(restarts):
        k = rng.randint(1, min(inst.m, inst.p))
        sol = fit_parts(inst, _random_machine_cells(inst.m, k, rng), regime)
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
        if best is None or sol.efficacy > best.efficacy:
            best = sol
    best = canonicalize(best)
    efficacy(inst, best)
    return best
