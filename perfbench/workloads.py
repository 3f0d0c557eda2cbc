"""Planted instances and the three benchmark workloads.

A planted instance deals machines and parts round-robin into k blocks,
shuffles both deals, and sets each cell to 1 with probability p_in inside
its block and p_out outside it. The planted machine grouping is kept: two
workloads seed the exact solver with it instead of running the heuristic.

Every instance of a run comes from one contiguous range of generator seeds
derived from the workload seed, with the generator parameters fixed here.
No instance is ever dropped or replaced, so a slow draw stays in the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cellform import Instance, Regime


@dataclass(frozen=True)
class Row:
    """One generator setting: size, planted cell count and densities."""

    m: int
    p: int
    k: int
    p_in: float
    p_out: float

    @property
    def label(self) -> str:
        return f"{self.m}x{self.p}/k{self.k} {self.p_in}/{self.p_out}"


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple[Row, ...]
    seed_by: str         # "heuristic" (8 restarts) or "planted"
    pool_size: int       # ops generated per seed; a run cycles through them
    tail_pct: int        # percentile reported as solve_s.tail
    count_ops: int       # ops whose exact counts the traced run reports
    node_limit: int | None = None  # per-round budget; None = run to a proof


@dataclass(frozen=True)
class Planted:
    """One generated instance plus the grouping it was planted with."""

    gen_seed: int
    row: Row
    instance: Instance
    machine_cell: tuple[int, ...]  # planted block of each machine, 1..k


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a planted instance in one regime."""

    planted: Planted
    regime: Regime


# Seeds of one workload seed never overlap those of the next.
SEEDS_PER_WORKLOAD_SEED = 10_000

# DESIGN.md records why each workload exists and what it should show.
# tail_pct is the highest multiple of 5 that keeps ten ops beyond it even
# in a run 15 % slower than the slowest measured; pool_size is two to
# three times the ops of the fastest run measured.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="seeded-clean",
            rows=(Row(10, 15, 3, 0.8, 0.08), Row(12, 18, 4, 0.8, 0.08),
                  Row(14, 21, 4, 0.8, 0.08)),
            seed_by="heuristic",
            pool_size=120,
            tail_pct=70,
            count_ops=12,
        ),
        Workload(
            name="proof-planted",
            rows=(Row(10, 15, 4, 0.7, 0.12),),
            seed_by="planted",
            pool_size=1200,
            tail_pct=95,
            count_ops=96,
        ),
        Workload(
            name="capped-hard",
            rows=(Row(16, 24, 5, 0.6, 0.15), Row(24, 40, 7, 0.75, 0.08)),
            seed_by="planted",
            pool_size=120,
            tail_pct=70,
            count_ops=12,
            node_limit=50_000,
        ),
    )
}


def planted_instance(row: Row, gen_seed: int) -> Planted:
    rng = random.Random(gen_seed)
    machine_block = [i % row.k for i in range(row.m)]
    part_block = [j % row.k for j in range(row.p)]
    rng.shuffle(machine_block)
    rng.shuffle(part_block)
    a = tuple(
        tuple(1 if rng.random() < (row.p_in if machine_block[i] == part_block[j]
                                   else row.p_out) else 0
              for j in range(row.p))
        for i in range(row.m))
    name = f"planted-{row.m}x{row.p}-k{row.k}-s{gen_seed}"
    return Planted(gen_seed, row, Instance(name, row.m, row.p, a),
                   tuple(b + 1 for b in machine_block))


def ops_of(workload: Workload, seed: int) -> list[Op]:
    """The workload's pool of ops for one workload seed.

    Op j solves the instance of generator seed base + j, so every op is a
    fresh draw. Rows cycle fastest and regimes next, so each row gets an
    equal share of any prefix and the two regimes get half of it each.
    """
    base = seed * SEEDS_PER_WORKLOAD_SEED
    rows = workload.rows
    regimes = (Regime.NO_RESIDUAL, Regime.ALLOW_RESIDUAL)
    return [Op(planted_instance(rows[j % len(rows)], base + j),
               regimes[(j // len(rows)) % 2])
            for j in range(workload.pool_size)]
