import itertools
import random

import numpy as np
import pytest

from cellform.bnb import (
    _min_loss_cover,
    child_bounds,
    label_cap,
    make_weights,
    optimal_parts,
    solve_subproblem,
)
from cellform.instances import Instance
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


def bound_at(w, const, labels, c_max):
    """The search's bound of a prefix: the child_bounds entry of its last
    label, computed at the parent prefix. The empty prefix takes the bound
    of machine 0 in cell 0, which every completion starts with."""
    labels = labels or [0]
    parent = labels[:-1]
    future = int(np.maximum(w[len(labels):], 0).sum())
    bounds = child_bounds(cell_sums(w, parent), w[len(parent)], future,
                          const, c_max)
    return bounds[labels[-1]]


def scratch_bound(sums, future, const):
    """The bound from scratch: each part takes max(best cell column sum,
    0), every unassigned machine adds all of its positive weights."""
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
    """Brute-force the best leaf F under any completion of the prefix."""
    c_max = min(inst.m, inst.p + (0 if no_res else 1))
    best = None
    for labels in completions(list(prefix), inst.m, c_max):
        if no_res and max(labels) + 1 > inst.p:
            continue  # the prefix already has more cells than parts
        _, total = optimal_parts(cell_sums(w, labels), no_res)
        F = total - const
        if best is None or F > best:
            best = F
    return best


def test_node_bound_admissible_on_random_nodes():
    rng = random.Random(41)
    checked = 0
    while checked < 1000:
        m = rng.randrange(2, 7)
        p = rng.randrange(2, 8)
        inst = random_instance(rng, m, p, rng.choice((0.2, 0.5, 0.8)))
        lam = rng.choice(LAMBDAS)
        w = make_weights(inst, lam)
        const = lam.num * inst.n1
        c_max = min(m, p + 1)
        prefix = random_prefix(rng, m, c_max)
        bound = bound_at(w, const, prefix, c_max)
        for no_res in (False, True):
            best = best_completion(inst, w, const, prefix, no_res)
            if best is not None:
                assert bound >= best, (inst.a, lam, prefix, no_res)
        checked += 1


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
        got = child_bounds(sums, row, future, const, c_max)
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


def test_node_bound_anchors(ref_instance):
    # at depth 1 the bound is the root's: machine 0 keeps its positive weights
    w = make_weights(ref_instance, Ratio(15, 24))
    assert bound_at(w, 300, [0], 5) == int(np.maximum(w, 0).sum()) - 300

    # lambda = 0: every operation is coverable, bound = q * n1 at depth 1
    w0 = make_weights(ref_instance, Ratio(0, 1))
    assert bound_at(w0, 0, [0], 5) == 20

    # at full depth the bound collapses to the allow-residual part optimum
    _, total = optimal_parts(cell_sums(w, [0, 1, 1, 0, 1]), False)
    assert bound_at(w, 300, [0, 1, 1, 0, 1], 5) == total - 300


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
# max_depth, max_cells)) with the incumbent baseline at 0; each instance at
# the ratio of its planted grouping and at its optimum
PINNED_COUNTS = [
    ((1, 8, 10, 3, .7, .15), "no-residual", "17/32", (157, 11, 105, 0, 8, 6)),
    ((1, 8, 10, 3, .7, .15), "no-residual", "16/24", (76, 0, 56, 0, 8, 6)),
    ((1, 8, 10, 3, .7, .15), "allow-residual", "15/28", (131, 5, 91, 0, 8, 6)),
    ((1, 8, 10, 3, .7, .15), "allow-residual", "16/24", (76, 0, 56, 0, 8, 6)),
    ((2, 9, 12, 3, .7, .15), "no-residual", "22/43", (930, 12, 695, 0, 9, 6)),
    ((2, 9, 12, 3, .7, .15), "no-residual", "23/35", (292, 2, 223, 0, 9, 6)),
    ((2, 9, 12, 3, .7, .15), "allow-residual", "16/31", (705, 5, 530, 0, 9, 6)),
    ((2, 9, 12, 3, .7, .15), "allow-residual", "22/33", (228, 0, 174, 0, 9, 6)),
    ((3, 10, 12, 4, .7, .12), "no-residual", "21/37", (1615, 25, 1234, 0, 10, 7)),
    ((3, 10, 12, 4, .7, .12), "no-residual", "20/32", (835, 2, 645, 0, 10, 7)),
    ((3, 10, 12, 4, .7, .12), "allow-residual", "21/35", (900, 4, 687, 0, 10, 7)),
    ((3, 10, 12, 4, .7, .12), "allow-residual", "20/31", (584, 0, 447, 0, 10, 6)),
    ((4, 10, 14, 4, .65, .15), "no-residual", "27/50", (3154, 11, 2478, 0, 10, 7)),
    ((4, 10, 14, 4, .65, .15), "no-residual", "24/41", (1921, 0, 1508, 0, 10, 7)),
    ((4, 10, 14, 4, .65, .15), "allow-residual", "26/48", (3124, 8, 2457, 0, 10, 7)),
    ((4, 10, 14, 4, .65, .15), "allow-residual", "24/41", (1921, 0, 1508, 0, 10, 7)),
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
               st.max_depth, st.max_cells)
        assert got == want, (gen, regime, lam)


def test_incumbent_baseline_suppresses_equal_solutions(ref_instance):
    res = solve_subproblem(ref_instance, Ratio(16, 23), Regime.NO_RESIDUAL,
                           incumbent_F=0)
    assert res.best_F == 0
    assert res.solution is None  # nothing strictly better than the incumbent
    res = solve_subproblem(ref_instance, Ratio(15, 24), Regime.NO_RESIDUAL,
                           incumbent_F=0)
    assert res.best_F == 39 and res.solution is not None


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
    assert res.stats.max_cells <= 2


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
