#!/usr/bin/env python3
"""Record the reference optima that run.py checks Optimal ops against.

Run from the repository root (needs scipy; takes about 15 minutes):

    python3 perfbench/make_references.py

For every op in the seed-0 pool of each unbudgeted workload, this solves
the op exactly as run.py does and records the optimum. The first
MILP_OPS references of each workload are then cross-checked
independently: cellform.build_model at the recorded ratio, solved by
scipy.optimize.milp, must have maximum F* = 0 (no grouping beats the
recorded efficacy). An op whose MILP does not finish within MILP_SECONDS
is listed under milp_timed_out. Writes perfbench/references.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from run import REFERENCES, ROOT, Bench, load_cellform

SEED = 0
MILP_OPS = 120
MILP_SECONDS = 30.0


def milp_max_F(cf, inst, lam, regime, seconds: float):
    """Maximum of the parametric objective by HiGHS, or None on timeout."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    model = cf.build_model(inst, lam, regime)
    col = {name: i for i, name in enumerate(model.var_names)}
    c = np.zeros(len(col))
    for name, coef in model.objective.items():
        c[col[name]] = -coef  # milp minimizes
    rows, cols, vals, rhs = [], [], [], []
    for r, row in enumerate(model.rows):
        for name, coef in row.coeffs:
            rows.append(r)
            cols.append(col[name])
            vals.append(coef)
        rhs.append(row.rhs)
    a = coo_matrix((vals, (rows, cols)), shape=(len(model.rows), len(col)))
    res = milp(c, constraints=LinearConstraint(a, lb=rhs, ub=np.inf),
               integrality=np.ones(len(col)), bounds=Bounds(0, 1),
               options={"time_limit": seconds})
    if res.status != 0:
        return None
    value = -res.fun + model.constant
    if abs(value - round(value)) > 1e-6:
        raise RuntimeError(f"MILP optimum {value} is not integral")
    return int(round(value))


def main() -> int:
    cf = load_cellform()
    from workloads import WORKLOADS, ops_of

    out = {"seed": SEED, "workloads": {}}
    for w in WORKLOADS.values():
        if w.node_limit is not None:
            continue
        with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
            bench = Bench(cf, w, SEED, Path(tmp))
            bench.set_up(ops_of)
            optima = {}
            for i in range(len(bench.ops)):
                res = bench.run_op(i)
                if res.error:
                    print(f"error: {w.name} op {i}: {res.error}", file=sys.stderr)
                    return 1
                if res.status == "Optimal":
                    optima[i] = cf.parse_ratio(res.ratio)
            print(f"{w.name}: {len(optima)} optima", flush=True)

        checked, unchecked = [], []
        for i in sorted(optima)[:MILP_OPS]:
            op = bench.ops[i]
            t0 = perf_counter()
            F = milp_max_F(cf, op.planted.instance, optima[i], op.regime,
                           MILP_SECONDS)
            dt = perf_counter() - t0
            if F is None:
                unchecked.append(i)
            elif F != 0:
                print(f"error: {w.name} op {i}: MILP max F = {F} at "
                      f"{optima[i]}, not 0", file=sys.stderr)
                return 1
            else:
                checked.append(i)
            print(f"{w.name} op {i} {op.planted.row.label} {op.regime.value} "
                  f"milp F*={F} {dt:.2f}s", flush=True)
        out["workloads"][w.name] = {
            "rows": [r.label for r in w.rows],
            "pool": w.pool_size,
            "optima": {str(i): str(v) for i, v in sorted(optima.items())},
            "milp_checked": checked,
            "milp_timed_out": unchecked,
        }
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
