"""Brute-force reference solver.

Enumerates every machine set partition and, for each, every part labeling;
no pruning, no bounds, no parametric reformulation. Deliberately dumb: its
only job is to be obviously correct so the real solver can be checked
against it. Part labelings are evaluated in vectorized blocks, which keeps
enumeration affordable at the guarded sizes without touching the logic:
block winners are picked by float division (exact at these magnitudes,
numerators <= 56 and denominators <= 112 are far apart relative to float64
error) and then compared to the running best by integer cross-multiplication.
"""

from __future__ import annotations

import numpy as np

from .instances import Instance
from .partitions import iter_set_partitions
from .solutions import Regime, Solution, efficacy

_BLOCK = 1 << 15


class OracleSizeError(ValueError):
    pass


def oracle_solve(inst: Instance, regime: Regime, limit: tuple[int, int] = (7, 8)) -> Solution:
    """Exact maximizer of grouping efficacy by full enumeration.

    Ties break to the lexicographically smallest canonical labeling: machine
    partitions are visited in RGS order, part labelings in lexicographic
    order, and only strictly better values replace the running best.
    Refuses instances beyond ``limit`` (default 7 machines, 8 parts); the
    worst guarded case is still hours of work, small acceptance sizes are
    seconds.
    """
    max_m, max_p = limit
    if inst.m > max_m or inst.p > max_p:
        raise OracleSizeError(
            f"oracle limited to {max_m}x{max_p}, got {inst.m}x{inst.p}"
        )

    a = inst.matrix
    m, p = inst.m, inst.p
    n1 = inst.n1
    cols = np.arange(p)
    allow = regime is Regime.ALLOW_RESIDUAL

    best_num, best_den = -1, 1
    best_machines: list[int] | None = None
    best_parts: list[int] | None = None

    for rgs in iter_set_partitions(m):
        k = max(rgs) + 1
        if regime is Regime.NO_RESIDUAL and k > p:
            continue  # some cell would have no parts
        # Per-cell column one-counts and sizes; row 0 is the residual bucket.
        ones_cp = np.zeros((k + 1, p), dtype=np.int64)
        sizes = np.zeros(k + 1, dtype=np.int64)
        for i, lab in enumerate(rgs):
            ones_cp[lab + 1] += a[i]
            sizes[lab + 1] += 1

        base = k + 1 if allow else k
        offset = 0 if allow else 1
        total = base ** p
        for lo in range(0, total, _BLOCK):
            hi = min(lo + _BLOCK, total)
            idx = np.arange(lo, hi, dtype=np.int64)
            labels = np.empty((hi - lo, p), dtype=np.int64)
            for j in range(p - 1, -1, -1):  # mixed radix, part p-1 fastest
                labels[:, j] = idx % base + offset
                idx //= base
            if not allow:
                covered = np.ones(hi - lo, dtype=bool)
                for cell in range(1, k + 1):
                    covered &= (labels == cell).any(axis=1)
                labels = labels[covered]
                if labels.shape[0] == 0:
                    continue
            n1_in = ones_cp[labels, cols].sum(axis=1)
            pairs = sizes[labels].sum(axis=1)
            dens = n1 + (pairs - n1_in)
            dens = np.where(dens == 0, 1, dens)  # 0/0 means efficacy 0
            pos = int(np.argmax(n1_in / dens))  # first block maximizer
            num, den = int(n1_in[pos]), int(dens[pos])
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_machines = [lab + 1 for lab in rgs]
                best_parts = [int(v) for v in labels[pos]]

    sol = Solution(max(best_machines), best_machines, best_parts)
    efficacy(inst, sol)
    return sol
