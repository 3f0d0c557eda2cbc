"""Exact reference solver.

Enumerates every machine set partition and, for each, finds the best part
labeling by an exact integer dynamic program over the parts; no bounds, no
parametric reformulation, and nothing shared with the solver (it imports
neither ``bnb`` nor ``dinkelbach``, ``heuristic`` or ``model``). Its only job
is to be plainly correct so the real solver can be checked against it.

For a fixed partition into k cells every part takes a label, a cell 1..k or,
under allow-residual, 0 for the residual group, and adds that cell's ones in
its column to n1_in and the cell's zeros to n0_in. Efficacy
n1_in / (n1 + n0_in) grows with n1_in at a fixed n0_in, so the program's
state is the total of zeros inside cells and, under no-residual only, the
set of cells still without a part; each state holds the most ones that the
remaining parts can reach. The partition's best ratio is read off the zero
totals by integer cross-multiplication, and its labeling is rebuilt from the
same tables only when it beats every earlier partition.

Cost: Bell(m) partitions (4 140 at m = 8), each p steps over at most
(m * p + 1) * 2^k states (one set of cells under allow-residual) with k or
k + 1 labels per state, a few numpy operations per step. Enumerating the
(k + 1)^p part labelings of each partition instead took hours at 7x8.
"""

from __future__ import annotations

import numpy as np

from .instances import Instance
from .partitions import iter_set_partitions
from .solutions import Regime, Solution, efficacy

# A state no labeling reaches; stays negative whatever ones are added to it.
_UNREACHABLE = -(1 << 40)


class OracleSizeError(ValueError):
    pass


def oracle_solve(inst: Instance, regime: Regime, limit: tuple[int, int] = (8, 48)) -> Solution:
    """Exact maximizer of grouping efficacy over every machine partition.

    Ties break to the lexicographically smallest canonical labeling: machine
    partitions are visited in RGS order, each partition keeps its
    lexicographically smallest optimal part labeling, and only a strictly
    better ratio replaces the running best. Refuses instances beyond
    ``limit`` (default 8 machines, 48 parts). The slowest guarded case
    measured, an all-zero 8x48 matrix under no-residual, takes 5.6 s on a
    2-CPU x86-64 VM; 8x10 instances take under 1 s, A2 (5x7) 4 ms.
    """
    max_m, max_p = limit
    if inst.m > max_m or inst.p > max_p:
        raise OracleSizeError(
            f"oracle limited to {max_m}x{max_p}, got {inst.m}x{inst.p}"
        )

    a = inst.matrix
    m, p, n1 = inst.m, inst.p, inst.n1
    allow = regime is Regime.ALLOW_RESIDUAL
    first = 0 if allow else 1  # lowest label a part may take

    best_num, best_den = -1, 1
    best_machines: list[int] | None = None
    best_parts: list[int] | None = None

    for rgs in iter_set_partitions(m):
        k = max(rgs) + 1
        if not allow and k > p:
            continue  # some cell would have no parts
        # Per-label column one and zero counts; row 0 is the residual group.
        member = np.arange(k + 1)[:, None] == np.asarray(rgs) + 1
        ones = member.astype(np.int64) @ a
        zeros = member.sum(axis=1)[:, None] - ones
        ones, zeros = ones[first:], zeros[first:]
        drop = _drop_masks(k, allow)

        tables = _suffix_tables(ones, zeros, drop)
        top = tables[0][-1]  # every cell covered
        totals = np.flatnonzero(top >= 0)
        most = top[totals]
        dens = np.maximum(n1 + totals, 1)  # 0/0 means efficacy 0
        if not np.any(most * best_den > best_num * dens):
            continue
        best_num, best_den = 0, 1
        for num, den in zip(most.tolist(), dens.tolist()):
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        labels = _first_labeling(tables, ones, zeros, drop,
                                 best_num, best_den, n1)
        best_machines = [lab + 1 for lab in rgs]
        best_parts = [lab + first for lab in labels]

    sol = Solution(max(best_machines), best_machines, best_parts)
    efficacy(inst, sol)
    return sol


def _drop_masks(k: int, allow: bool) -> np.ndarray:
    """drop[l, need]: the cells still to cover once a part takes label l.

    Under no-residual need is a bitmask over the k cells and label l covers
    cell l + 1; under allow-residual nothing must be covered (one state)."""
    if allow:
        return np.zeros((k + 1, 1), dtype=np.int64)
    needs = np.arange(1 << k)
    return needs[None, :] & ~(1 << np.arange(k))[:, None]


def _suffix_tables(ones: np.ndarray, zeros: np.ndarray,
                   drop: np.ndarray) -> list[np.ndarray]:
    """tables[j][need, z]: the most ones that parts j..p-1 can add with z
    zeros inside cells while covering every cell in need, or a negative
    value if none can. ones and zeros are (labels, p)."""
    p = ones.shape[1]
    widths = (np.cumsum(zeros.max(axis=0)[::-1])[::-1] + 1).tolist()
    pad = int(zeros.max())
    # Each table row is held after pad unreachable entries, so a label's
    # zeros shift it by a plain offset, and one flat gather reads every
    # (label, need, z) at once: from starts[j, label, need] + z.
    held = np.full((p + 1, drop.shape[1], pad + widths[0]), _UNREACHABLE)
    held[p, 0, pad] = 0
    starts = drop * held.shape[2] + pad - zeros.T[:, :, None]
    gains = ones.T[:, :, None, None]
    z = np.arange(widths[0])
    for j in range(p - 1, -1, -1):
        w = widths[j]
        reach = held[j + 1].take(starts[j][:, :, None] + z[:w])
        reach += gains[j]
        reach.max(axis=0, out=held[j, :, pad:pad + w])
    return [t[:, pad:] for t in held]


def _first_labeling(tables, ones, zeros, drop, num: int, den: int,
                    n1: int) -> list[int]:
    """The lexicographically smallest labeling, as label indices, whose
    efficacy is num/den, the tables' maximum. Each part takes the first
    label after which the later parts can still reach that ratio."""
    totals = np.arange(tables[0].shape[1])
    need, zin, oin = drop.shape[1] - 1, 0, 0
    labels = []
    for j in range(ones.shape[1]):
        for lab in range(ones.shape[0]):
            rest = tables[j + 1][drop[lab, need]]
            reach = (oin + ones[lab, j] + rest) * den \
                == num * (n1 + zin + zeros[lab, j] + totals)
            if np.any((rest >= 0) & reach):
                break
        labels.append(lab)
        need = drop[lab, need]
        zin += int(zeros[lab, j])
        oin += int(ones[lab, j])
    return labels
