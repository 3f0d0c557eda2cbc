import itertools
import random

import numpy as np
import pytest

from cellform.bnb import (
    Tree,
    _min_loss_cover,
    best_others,
    child_bounds,
    future_bounds,
    label_cap,
    make_weights,
    optimal_parts,
    solve_subproblem,
)
from cellform.instances import Instance
from cellform.partitions import iter_set_partitions
from cellform.rational import Ratio, parse_ratio
from cellform.solutions import Regime, check_feasible, efficacy_counts

from helpers import (machine_partitions, pair_counts, part_vectors,
                     planted_instance, random_instance)

# the engine name each result reports in SubproblemStats.engine
ENGINES = ["python"]

LAMBDAS = [Ratio(0, 1), Ratio(1, 3), Ratio(1, 2), Ratio(3, 4), Ratio(1, 1)]


def leaf_F(inst, lam, mcell, pcell):
    n1_in, n0_in = pair_counts(inst, mcell, pcell)
    return lam.den * n1_in - lam.num * (n0_in + inst.n1)


def naive_max_F(inst, lam, regime):
    best = None
    for mcell in machine_partitions(inst.m):
        k = max(mcell)
        if regime is Regime.NO_RESIDUAL and k > inst.p:
            continue
        for pcell in part_vectors(k, inst.p, regime):
            F = leaf_F(inst, lam, mcell, pcell)
            if best is None or F > best:
                best = F
    return best


def test_make_weights(ref_instance):
    w = make_weights(ref_instance, Ratio(15, 24))
    assert w.dtype == np.int64 and w.shape == (5, 7)
    assert w[0, 0] == 24 and w[0, 1] == -15
    assert (w == np.where(np.asarray(ref_instance.a) == 1, 24, -15)).all()


# ---------------------------------------------------------------- parts


def exhaustive_parts(S, no_residual):
    k, p = S.shape
    best = None
    rng_labels = range(1, k + 1) if no_residual else range(0, k + 1)
    for v in itertools.product(rng_labels, repeat=p):
        if no_residual and set(v) != set(range(1, k + 1)):
            continue
        total = sum(int(S[lab - 1, j]) for j, lab in enumerate(v) if lab)
        if best is None or total > best:
            best = total
    return best


def test_optimal_parts_matches_exhaustive():
    rng = random.Random(21)
    for _ in range(150):
        k = rng.randrange(1, 4)
        p = rng.randrange(k, 5)
        S = np.array([[rng.randrange(-9, 10) for _ in range(p)] for _ in range(k)],
                     dtype=np.int64)
        for no_res in (False, True):
            labels, total = optimal_parts(S, no_res)
            assert total == exhaustive_parts(S, no_res)
            # the returned labels actually achieve the claimed total
            got = sum(int(S[lab - 1, j]) for j, lab in enumerate(labels) if lab)
            assert got == total
            if no_res:
                assert set(labels.tolist()) == set(range(1, k + 1))
            else:
                assert all(0 <= lab <= k for lab in labels)


def test_optimal_parts_ties_and_zeros():
    S = np.array([[0, 5, 5], [0, 5, 5]], dtype=np.int64)
    labels, total = optimal_parts(S, False)
    # zero contribution goes residual; ties take the lowest cell
    assert labels.tolist() == [0, 1, 1]
    assert total == 10
    labels, total = optimal_parts(S, True)
    assert total == 10  # cover repair moves one part at zero loss
    assert set(labels.tolist()) == {1, 2}


def test_optimal_parts_infeasible_cover():
    with pytest.raises(ValueError):
        optimal_parts(np.zeros((3, 2), dtype=np.int64), True)


def test_min_loss_cover_matches_permutations():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randrange(1, 5)
        p = rng.randrange(k, 6)
        loss = [[rng.randrange(0, 20) for _ in range(p)] for _ in range(k)]
        reps, total = _min_loss_cover(loss)
        want = min(
            sum(loss[c][perm[c]] for c in range(k))
            for perm in itertools.permutations(range(p), k)
        )
        assert total == want
        assert len(set(reps)) == k  # distinct representatives
        assert sum(loss[c][reps[c]] for c in range(k)) == total


# ---------------------------------------------------------------- bound


def random_prefix(rng, m, c_max):
    """A partial machine assignment: 0-based cells of machines 0..d-1 as a
    restricted-growth prefix, the remaining machines unassigned."""
    labels, top = [], -1
    for _ in range(rng.randrange(0, m + 1)):
        lab = rng.randrange(0, min(top + 2, c_max))
        labels.append(lab)
        top = max(top, lab)
    return labels


def cell_sums(w, labels):
    """Weight column sums of the cells that 0-based machine labels form."""
    k = max(labels, default=-1) + 1
    sums = np.zeros((k, w.shape[1]), dtype=np.int64)
    for i, lab in enumerate(labels):
        sums[lab] += w[i]
    return sums


def child_rows(sums, c_max):
    """The rows a node's children put its machine in: the open cells of
    sums (..., k, p) and, when k < c_max, a zero row for the new cell."""
    if sums.shape[-2] == c_max:
        return sums
    zero = np.zeros(sums.shape[:-2] + (1, sums.shape[-1]), dtype=np.int64)
    return np.concatenate((sums, zero), axis=-2)


def bound_at(w, const, labels, c_max):
    """The search's bound of a prefix: the child_bounds entry of its last
    label, computed at the parent prefix with the search's future bound.
    The empty prefix takes the bound of machine 0 in cell 0, which every
    completion starts with."""
    labels = labels or [0]
    parent = labels[:-1]
    future = future_bounds(w)[len(labels)]
    bounds = child_bounds(child_rows(cell_sums(w, parent), c_max),
                          w[len(parent)], future - const)
    return bounds[labels[-1]]


def scratch_bound(sums, future, const):
    """The bound from scratch: each part takes max(best cell column sum,
    0), and the unassigned machines add future."""
    return int(sums.max(axis=0, initial=0).sum()) + future - const


def completions(prefix, m, c_max):
    """Each completion of a restricted-growth prefix to m machines, once:
    a machine opens a new cell only as top + 1, and below label c_max."""
    if len(prefix) == m:
        yield prefix
        return
    for lab in range(min(max(prefix, default=-1) + 2, c_max)):
        yield from completions(prefix + [lab], m, c_max)


def best_completion(inst, w, const, prefix, no_res):
    """Brute-force the best leaf F under any completion of the prefix.
    Allow-residual scores all completions at once: each part takes its best
    cell or goes residual at 0."""
    c_max = min(inst.m, inst.p + (0 if no_res else 1))
    leaves = [labels for labels in completions(list(prefix), inst.m, c_max)
              # no-residual: the prefix may already have more cells than parts
              if not no_res or max(labels) < inst.p]
    if not leaves:
        return None
    if no_res:
        return max(optimal_parts(cell_sums(w, labels), True)[1]
                   for labels in leaves) - const
    member = np.array(leaves)[:, :, None] == np.arange(c_max)
    sums = np.einsum("lic,ij->lcj", member.astype(np.int64), w)
    return int(np.maximum(sums.max(axis=1), 0).sum(axis=1).max()) - const


def test_node_bound_admissible_on_random_nodes():
    rng = random.Random(41)
    checked = chained = 0
    while checked < 1000:
        m = rng.randrange(2, 9)
        p = rng.randrange(2, 8)
        inst = random_instance(rng, m, p, rng.choice((0.2, 0.5, 0.8)))
        lam = rng.choice(LAMBDAS)
        w = make_weights(inst, lam)
        const = lam.num * inst.n1
        c_max = min(m, p + 1)
        prefix = random_prefix(rng, m, c_max)
        bound = bound_at(w, const, prefix, c_max)
        chained += max(len(prefix), 1) < m - 6  # above the exact tail
        # every no-residual leaf is an allow-residual leaf of the same F, so
        # the allow-residual best covers it; its slow scan runs at m <= 6
        for no_res in (False, True) if m <= 6 else (False,):
            best = best_completion(inst, w, const, prefix, no_res)
            if best is not None:
                assert bound >= best, (inst.a, lam, prefix, no_res)
        checked += 1
    assert chained >= 20, chained


def test_child_bounds_equal_the_scratch_bound():
    # every child of random nodes, with small values so that columns tie
    rng = random.Random(43)
    seen = {"k=0": 0, "k=1": 0, "tie": 0, "k=c_max": 0}
    for _ in range(2000):
        k = rng.randrange(0, 5)
        p = rng.randrange(1, 7)
        c_max = rng.randrange(max(k, 1), k + 3)
        sums = np.array([[rng.randrange(-3, 4) for _ in range(p)]
                         for _ in range(k)], dtype=np.int64).reshape(k, p)
        row = np.array([rng.randrange(-3, 4) for _ in range(p)], dtype=np.int64)
        future, const = rng.randrange(0, 20), rng.randrange(0, 20)
        got = child_bounds(child_rows(sums, c_max), row, future - const)
        assert len(got) == min(k + 1, c_max)
        for c, bound in enumerate(got):
            child = np.vstack([sums, np.zeros((1, p), dtype=np.int64)])
            child = child[:max(k, c + 1)]  # the new cell only for c == k
            child[c] += row
            assert bound == scratch_bound(child, future, const), (sums, row, c)
        seen["k=0"] += k == 0
        seen["k=1"] += k == 1
        seen["k=c_max"] += k == c_max
        if k >= 2:
            top = np.sort(sums, axis=0)
            seen["tie"] += bool((top[-1] == top[-2]).any())
    assert min(seen.values()) >= 100, seen


def test_stacked_child_bounds_equal_one_call_per_node():
    # a stack of nodes, (n, k, p) sums and (n, p) rows, and a stack of
    # stacks score each node as its own call does: with the new cell's zero
    # row (k < c_max) and without it (k == c_max)
    rng = random.Random(47)
    seen = {"k=1": 0, "zero row": 0, "k=c_max": 0}
    for _ in range(400):
        c_max = rng.randrange(1, 6)
        k = rng.randrange(1, c_max + 1)
        p = rng.randrange(1, 7)
        shape = rng.choice(((rng.randrange(1, 5),), (2, 3)))
        sums = np.array([rng.randrange(-3, 4) for _ in range(
            np.prod(shape) * k * p)], dtype=np.int64).reshape(shape + (k, p))
        rows = np.array([rng.randrange(-3, 4) for _ in range(
            np.prod(shape) * p)], dtype=np.int64).reshape(shape + (p,))
        future, const = rng.randrange(0, 20), rng.randrange(0, 20)
        got = np.array(child_bounds(child_rows(sums, c_max), rows,
                                    future - const))
        for node in np.ndindex(shape):
            want = child_bounds(child_rows(sums[node], c_max), rows[node],
                                future - const)
            assert got[node].tolist() == want, (sums[node], rows[node], c_max)
        seen["k=1"] += k == 1
        seen["zero row"] += k < c_max
        seen["k=c_max"] += k == c_max
    assert min(seen.values()) >= 50, seen


def test_best_others_equal_a_per_row_scan_and_a_zero_row_top_two():
    # per row and column, the best of the other rows clipped at 0, as a
    # scan over the other rows and as the top-2 of the column with a zero
    # row appended; on single nodes and on stacks of them
    rng = random.Random(53)
    seen = {"k=1": 0, "tie": 0, "negative column": 0, "stacked": 0}
    for _ in range(600):
        k = rng.randrange(1, 5)
        p = rng.randrange(1, 6)
        shape = rng.choice(((), (rng.randrange(1, 4),), (2, 3)))
        sums = np.array([rng.randrange(-4, 3) for _ in range(
            np.prod(shape, dtype=int) * k * p)],
            dtype=np.int64).reshape(shape + (k, p))
        got = best_others(sums)
        assert got.shape == sums.shape
        for node in np.ndindex(shape):
            one = sums[node]
            for r in range(k):
                others = np.delete(one, r, axis=0)
                want = np.maximum(others.max(axis=0, initial=0), 0)
                assert got[node][r].tolist() == want.tolist(), (one, r)
            second, first = np.sort(np.vstack(
                (one, np.zeros((1, p), np.int64))), axis=0)[-2:]
            assert (got[node] == np.where(one == first, second, first)).all()
            if k >= 2:
                top = np.sort(one, axis=0)
                seen["tie"] += bool((top[-1] == top[-2]).any())
            seen["negative column"] += bool((one.max(axis=0) < 0).any())
        seen["k=1"] += k == 1
        seen["stacked"] += shape != ()
    assert min(seen.values()) >= 50, seen


def test_node_bound_anchors(ref_instance):
    # at 15/24 the four machines after machine 0 add at most 285 on their
    # own, below the 288 of all their positive weights; machine 0 keeps its
    # positive weights, 96
    w = make_weights(ref_instance, Ratio(15, 24))
    assert future_bounds(w) == [339, 285, 216, 144, 96, 0]
    assert bound_at(w, 300, [0], 5) == 96 + 285 - 300

    # five machines are all in the exact tail: the root's future is the
    # allow-residual maximum, F = 39 at the two-cell seed ratio
    res = solve_subproblem(ref_instance, Ratio(15, 24), Regime.ALLOW_RESIDUAL)
    assert future_bounds(w)[0] - 300 == res.best_F == 39

    # lambda = 0: every operation is coverable, bound = q * n1 at depth 1
    w0 = make_weights(ref_instance, Ratio(0, 1))
    assert bound_at(w0, 0, [0], 5) == 20

    # at full depth the bound collapses to the allow-residual part optimum
    _, total = optimal_parts(cell_sums(w, [0, 1, 1, 0, 1]), False)
    assert bound_at(w, 300, [0, 1, 1, 0, 1], 5) == total - 300


def best_grouping_value(rows):
    """The best value the rows add on their own: over set partitions of
    them, each part takes max(0, best block column sum)."""
    n = len(rows)
    member = np.array(list(iter_set_partitions(n)))[:, :, None] == np.arange(n)
    blocks = np.einsum("bic,ij->bcj", member.astype(np.int64), rows)
    return int(np.maximum(blocks.max(axis=1), 0).sum(axis=1).max())


def test_future_bounds_are_exact_on_the_tail_and_chain_above_it():
    rng = random.Random(47)
    chained = 0
    for _ in range(300):
        m = rng.randrange(1, 10)
        p = rng.randrange(1, 7)
        w = np.array([[rng.randrange(-6, 7) for _ in range(p)]
                      for _ in range(m)], dtype=np.int64)
        future = future_bounds(w)
        assert len(future) == m + 1 and future[m] == 0
        for d in range(m):
            positive = int(np.maximum(w[d], 0).sum())
            assert future[d + 1] <= future[d] <= future[d + 1] + positive
            if d >= m - 6:
                assert future[d] == best_grouping_value(w[d:]), (w, d)
            else:
                assert future[d] == future[d + 1] + positive
                chained += 1
    assert chained >= 100, chained


def test_future_bounds_over_q_do_not_increase_in_lambda():
    # the resume relies on every bound / q_den not increasing in lambda
    rng = random.Random(49)
    for _ in range(60):
        inst = random_instance(rng, rng.randrange(1, 10), rng.randrange(1, 8),
                               rng.choice((0.2, 0.5, 0.8)))
        lams = sorted({Ratio(rng.randrange(0, 13), rng.randrange(1, 13))
                       for _ in range(5)})
        for lo, hi in zip(lams, lams[1:]):
            f_lo = future_bounds(make_weights(inst, lo))
            f_hi = future_bounds(make_weights(inst, hi))
            for a, b in zip(f_lo, f_hi):
                assert a * hi.den >= b * lo.den, (inst.a, str(lo), str(hi))


def test_optimal_parts_two_cell(ref_instance, two_cell):
    w = make_weights(ref_instance, Ratio(15, 24))
    labels, total = optimal_parts(cell_sums(w, [0, 1, 1, 0, 1]), True)
    assert len(labels) == 7
    n1_in, n0_in = efficacy_counts(ref_instance, [1, 2, 2, 1, 2],
                                   labels.tolist())
    assert 24 * n1_in - 15 * n0_in == total
    # the stored two-cell grouping is exactly this part-optimal labeling
    assert total - 15 * 20 == 24 * 15 - 15 * (4 + 20)
    assert labels.tolist() == two_cell.part_cell


# ---------------------------------------------------------------- search


def test_label_cap():
    inst = Instance("c", 4, 6, tuple((1,) * 6 for _ in range(4)))
    assert label_cap(inst, Regime.NO_RESIDUAL) == 4
    assert label_cap(inst, Regime.ALLOW_RESIDUAL) == 4
    tall = Instance("t", 6, 3, tuple((1,) * 3 for _ in range(6)))
    assert label_cap(tall, Regime.NO_RESIDUAL) == 3
    assert label_cap(tall, Regime.ALLOW_RESIDUAL) == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_exactness_against_enumeration(engine):
    rng = random.Random(51)
    for trial in range(12):
        inst = random_instance(rng, rng.randrange(2, 5), rng.randrange(2, 5),
                               rng.choice((0.2, 0.5, 0.8)), name=f"x{trial}")
        for lam in LAMBDAS:
            for regime in Regime:
                res = solve_subproblem(inst, lam, regime)
                want = naive_max_F(inst, lam, regime)
                assert res.best_F == want, (inst.a, str(lam), regime)
                assert res.stats.engine == engine
                assert not res.truncated
                sol = res.solution
                ok, problems = check_feasible(inst, sol, regime)
                assert ok, problems
                got = lam.den * sol.n1_in - lam.num * (sol.n0_in + inst.n1)
                assert got == res.best_F


@pytest.mark.parametrize("engine", ENGINES)
def test_pruning_never_changes_the_value(engine):
    rng = random.Random(61)
    for _ in range(8):
        inst = random_instance(rng, rng.randrange(3, 6), rng.randrange(3, 6), 0.5)
        for lam in (Ratio(1, 2), Ratio(9, 10)):
            for regime in Regime:
                on = solve_subproblem(inst, lam, regime)
                off = solve_subproblem(inst, lam, regime, prune=False)
                assert on.stats.engine == off.stats.engine == engine
                assert on.best_F == off.best_F
                assert on.stats.nodes <= off.stats.nodes


def test_hand_worked_tiny_cases():
    # at lambda = 0 every full cover scores F = n1; the diagonal one is a
    # witness but the argmax is not unique
    diag = Instance("d", 2, 2, ((1, 0), (0, 1)))
    res = solve_subproblem(diag, Ratio(0, 1), Regime.NO_RESIDUAL)
    assert res.best_F == 2
    assert res.solution.n1_in == 2
    assert leaf_F(diag, Ratio(0, 1), [1, 2], [1, 2]) == 2

    tri = Instance("t", 2, 2, ((1, 1), (1, 0)))
    res = solve_subproblem(tri, Ratio(3, 4), Regime.NO_RESIDUAL)
    assert res.best_F == 0
    assert res.solution.efficacy == Ratio(3, 4)


def test_reference_instance_anchor(ref_instance):
    # at the two-cell seed ratio the best grouping scores 24*16 - 15*23 = 39
    res = solve_subproblem(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL)
    assert res.best_F == 39
    assert res.solution.efficacy == Ratio(16, 23)
    # at the optimum the max is exactly zero
    res = solve_subproblem(ref_instance, Ratio(16, 23), Regime.NO_RESIDUAL)
    assert res.best_F == 0


# (generator args, regime, lambda, (nodes, leaves, pruned_bound, pruned_void,
# max_depth)) with the incumbent baseline at 0; each instance at
# the ratio of its planted grouping, where the search stops at its first
# leaf with F > 0 - about one dive, since siblings go best bound first - and
# at its optimum, where it proves that none exists: that node set does not
# depend on the sibling order, and the cut children count the same in bulk.
# The exact future of the last six machines shrinks the proofs; on a dive it
# can cut one more child on the way, which counts as a node and a prune
PINNED_COUNTS = [
    ((1, 8, 10, 3, .7, .15), "no-residual", "17/32", (8, 1, 0, 0, 8)),
    ((1, 8, 10, 3, .7, .15), "no-residual", "16/24", (76, 0, 56, 0, 8)),
    ((1, 8, 10, 3, .7, .15), "allow-residual", "15/28", (8, 1, 0, 0, 8)),
    ((1, 8, 10, 3, .7, .15), "allow-residual", "16/24", (76, 0, 56, 0, 8)),
    ((2, 9, 12, 3, .7, .15), "no-residual", "22/43", (9, 1, 0, 0, 9)),
    ((2, 9, 12, 3, .7, .15), "no-residual", "23/35", (251, 2, 194, 0, 9)),
    ((2, 9, 12, 3, .7, .15), "allow-residual", "16/31", (9, 1, 0, 0, 9)),
    ((2, 9, 12, 3, .7, .15), "allow-residual", "22/33", (180, 0, 138, 0, 9)),
    ((3, 10, 12, 4, .7, .12), "no-residual", "21/37", (11, 1, 1, 0, 10)),
    ((3, 10, 12, 4, .7, .12), "no-residual", "20/32", (336, 2, 259, 0, 10)),
    ((3, 10, 12, 4, .7, .12), "allow-residual", "21/35", (17, 1, 7, 0, 10)),
    ((3, 10, 12, 4, .7, .12), "allow-residual", "20/31", (146, 0, 111, 0, 10)),
    ((4, 10, 14, 4, .65, .15), "no-residual", "27/50", (12, 1, 2, 0, 10)),
    ((4, 10, 14, 4, .65, .15), "no-residual", "24/41", (806, 0, 631, 0, 10)),
    ((4, 10, 14, 4, .65, .15), "allow-residual", "26/48", (12, 1, 2, 0, 10)),
    ((4, 10, 14, 4, .65, .15), "allow-residual", "24/41", (806, 0, 631, 0, 10)),
]


def test_node_counts_are_pinned():
    # node counts are the machine-independent cost of the search: a change
    # to the bound or the branching order must update this table knowingly
    for gen, regime, lam, want in PINNED_COUNTS:
        inst, _ = planted_instance(*gen)
        res = solve_subproblem(inst, parse_ratio(lam), Regime(regime),
                               incumbent_F=0)
        st = res.stats
        got = (st.nodes, st.leaves, st.pruned_bound, st.pruned_void,
               st.max_depth)
        assert got == want, (gen, regime, lam)


def test_incumbent_baseline_suppresses_equal_solutions(ref_instance):
    res = solve_subproblem(ref_instance, Ratio(16, 23), Regime.NO_RESIDUAL,
                           incumbent_F=0)
    assert res.best_F == 0
    assert res.solution is None  # nothing strictly better than the incumbent
    res = solve_subproblem(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL,
                           incumbent_F=0)
    assert res.best_F == 39 and res.solution is not None


def test_incumbent_answer_beats_it_and_never_the_maximum():
    # given incumbent_F the search returns its first better leaf: a real
    # grouping scoring best_F, above incumbent_F and at most the maximum
    rng = random.Random(81)
    answered = below = 0
    for trial in range(30):
        if trial % 3:
            inst = random_instance(rng, rng.randrange(3, 8),
                                   rng.randrange(3, 9), rng.choice((.3, .5)))
        else:
            inst, _ = planted_instance(trial, 9, 12, 3, .7, .15)
        lam = rng.choice(LAMBDAS[:-1])
        for regime in Regime:
            exact = solve_subproblem(inst, lam, regime).best_F
            # the values of groupings a caller could hold: the one-cell
            # grouping, and a few below and at the maximum
            one_cell = leaf_F(inst, lam, [1] * inst.m, [1] * inst.p)
            for incumbent_F in {one_cell, 0, exact - 1, exact}:
                res = solve_subproblem(inst, lam, regime,
                                       incumbent_F=incumbent_F)
                where = (inst.a, str(lam), regime, incumbent_F)
                assert not res.truncated
                if incumbent_F >= exact:
                    assert res.solution is None, where
                    assert res.best_F == incumbent_F, where
                    continue
                sol = res.solution
                assert check_feasible(inst, sol, regime)[0], where
                F = leaf_F(inst, lam, sol.machine_cell, sol.part_cell)
                assert F == res.best_F, where
                assert incumbent_F < F <= exact, where
                answered += 1
                below += F < exact
    assert answered >= 100 and below >= 20, (answered, below)


def test_resumed_tree_agrees_with_a_fresh_search():
    # a tree stopped at its first better leaf at lambda_1 and resumed at a
    # higher lambda_2 finds a grouping with F > 0 exactly when a fresh
    # search at lambda_2 does; a chain of rising ratios checks every resume
    rng = random.Random(91)
    resumed = answered = 0
    for trial in range(40):
        if trial % 4:
            inst = random_instance(rng, rng.randrange(3, 8),
                                   rng.randrange(3, 9), rng.choice((.3, .5)))
        else:
            inst, _ = planted_instance(trial, 9, 12, 3, .7, .15)
        for regime in Regime:
            lams = sorted({Ratio(rng.randrange(0, 20), 20) for _ in range(4)})
            tree = Tree(inst, regime)
            for step, lam in enumerate(lams):
                res = tree.run(lam, 0)
                fresh = solve_subproblem(inst, lam, regime, incumbent_F=0)
                where = (inst.a, regime, [str(x) for x in lams], step)
                assert not res.truncated
                assert (res.solution is None) == (fresh.solution is None), where
                resumed += step > 0
                if res.solution is None:
                    assert res.best_F == 0, where
                    continue
                sol = res.solution
                assert check_feasible(inst, sol, regime)[0], where
                F = leaf_F(inst, lam, sol.machine_cell, sol.part_cell)
                assert F == res.best_F > 0, where
                answered += step > 0
            # a lower ratio, or a search for the maximum, would be inexact
            with pytest.raises(ValueError):
                tree.run(Ratio(lams[-1].num, 21), 0)
            with pytest.raises(ValueError):
                tree.run(lams[-1], None)
    assert resumed >= 200 and answered >= 40, (resumed, answered)


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


@pytest.mark.parametrize("engine", ENGINES)
def test_rgs_branching_visits_each_partition_once(engine):
    # allow-residual with p >= m - 1 leaves the label cap at m, so leaves
    # with pruning off count exactly the set partitions of the machines
    for m in (3, 4, 5):
        inst = Instance("b", m, m, tuple((1,) * m for _ in range(m)))
        res = solve_subproblem(inst, Ratio(1, 2), Regime.ALLOW_RESIDUAL,
                               prune=False)
        assert res.stats.engine == engine
        assert res.stats.leaves == BELL[m]
        assert res.stats.nodes == sum(BELL[d] for d in range(1, m + 1))


def test_rgs_count_holds_at_m8():
    inst = Instance("b8", 8, 7, tuple((1,) * 7 for _ in range(8)))
    res = solve_subproblem(inst, Ratio(1, 2), Regime.ALLOW_RESIDUAL, prune=False)
    assert res.stats.leaves == BELL[8]


def test_no_residual_cap_limits_prefixes():
    # 4 machines, 2 parts: no prefix may use more than 2 labels
    inst = Instance("cap", 4, 2, ((1, 0), (0, 1), (1, 1), (1, 1)))
    res = solve_subproblem(inst, Ratio(1, 2), Regime.NO_RESIDUAL, prune=False)
    want_leaves = sum(1 for q in machine_partitions(4) if max(q) <= 2)
    assert res.stats.leaves == want_leaves


@pytest.mark.parametrize("engine", ENGINES)
def test_budgets_truncate(ref_instance, engine):
    # deadlines are polled every 1024 nodes, so give the search room to
    # reach a poll before asserting it stopped
    rng = random.Random(5)
    big = random_instance(rng, 10, 10, 0.5)
    res = solve_subproblem(big, Ratio(1, 2), Regime.NO_RESIDUAL,
                           time_limit=0.0, prune=False)
    assert res.stats.engine == engine
    assert res.truncated
    assert res.stats.nodes <= 2048

    res = solve_subproblem(ref_instance, Ratio(1, 2), Regime.NO_RESIDUAL,
                           node_limit=3)
    assert res.truncated
    assert res.stats.nodes <= 4


@pytest.mark.parametrize("engine", ENGINES)
def test_void_prune_engages_and_stays_safe(engine):
    # a proof round on zero rows, which make every cell eat voids in all
    # columns that the additive bound never charges; the bound alone still
    # proves the incumbent, and its node count is pinned
    rows = ((0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0),
            (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 1))
    inst = Instance("v", 8, 3, rows)
    res = solve_subproblem(inst, Ratio(4, 8), Regime.NO_RESIDUAL,
                           incumbent_F=0)
    assert res.stats.engine == engine
    assert res.best_F == 0
    assert res.solution is None  # nothing beats the incumbent here
    assert res.stats.nodes == 206

    off = solve_subproblem(inst, Ratio(4, 8), Regime.NO_RESIDUAL,
                           incumbent_F=0, prune=False)
    assert off.best_F == 0


def test_degenerate_shapes():
    row = Instance("r", 1, 4, ((1, 0, 1, 1),))
    for regime in Regime:
        res = solve_subproblem(row, Ratio(1, 2), regime)
        assert res.solution is not None
        assert check_feasible(row, res.solution, regime)[0]
    col = Instance("c", 4, 1, ((1,), (0,), (1,), (1,)))
    res = solve_subproblem(col, Ratio(1, 2), Regime.NO_RESIDUAL)
    assert res.solution.c == 1
