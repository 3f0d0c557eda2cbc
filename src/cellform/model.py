"""Two-index 0-1 model of the parametric subproblem, for external solvers.

Variables: x_i_k (1 iff machines i and k share a cell, stored for i<k only,
x_ii implicit) and y_i_j (1 iff part j lives in machine i's cell). At ratio
lambda = p/q the objective is sum over ones of q*y_ij minus sum over zeros
of p*y_ij, with the constant -p*n1 kept out of the LP body and reported as
an offset comment. Three rows per machine pair and part tie x to y:

    2 x_ik - y_ij - y_kj >= -1
    y_ij - y_kj - x_ik   >= -1
    y_kj - y_ij - x_ik   >= -1

which together read "x_ik = 1 exactly when rows i and k agree on every
part they own". No-residual adds cover rows: every machine sees a part,
every part a machine. decode() reads a 0-1 point back into a grouping via
connected components of the x relation; encode() is its inverse up to
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance
from .rational import Ratio
from .solutions import Regime, Solution, canonicalize, efficacy


@dataclass(frozen=True)
class ModelRow:
    """One row: the sum of coefficient * variable over coeffs >= rhs."""
    coeffs: tuple[tuple[str, int], ...]
    rhs: int


@dataclass(frozen=True)
class LinearModel:
    var_names: tuple[str, ...]
    objective: dict[str, int]   # zero-coefficient variables omitted
    constant: int
    rows: tuple[ModelRow, ...]


@dataclass
class RelationAssignment:
    """x: m x m symmetric 0/1 with unit diagonal; y: m x p 0/1."""
    x: list[list[int]]
    y: list[list[int]]


class DecodeError(ValueError):
    pass


def _xname(i: int, k: int) -> str:
    return f"x_{i + 1}_{k + 1}"


def _yname(i: int, j: int) -> str:
    return f"y_{i + 1}_{j + 1}"


def build_model(inst: Instance, lam: Ratio, regime: Regime) -> LinearModel:
    if lam > Ratio(1, 1):
        raise ValueError("lambda must lie in [0, 1]")
    m, p = inst.m, inst.p
    p_num, q_den = lam.num, lam.den

    names: list[str] = []
    for i in range(m):
        for k in range(i + 1, m):
            names.append(_xname(i, k))
    for i in range(m):
        for j in range(p):
            names.append(_yname(i, j))

    objective: dict[str, int] = {}
    for i in range(m):
        for j in range(p):
            c = q_den * inst.a[i][j] - p_num * (1 - inst.a[i][j])
            if c != 0:
                objective[_yname(i, j)] = c

    rows: list[ModelRow] = []
    for i in range(m):
        for k in range(i + 1, m):
            x = _xname(i, k)
            for j in range(p):
                yi, yk = _yname(i, j), _yname(k, j)
                rows.append(ModelRow(((x, 2), (yi, -1), (yk, -1)), -1))
                rows.append(ModelRow(((yi, 1), (yk, -1), (x, -1)), -1))
                rows.append(ModelRow(((yk, 1), (yi, -1), (x, -1)), -1))
    if regime is Regime.NO_RESIDUAL:
        for i in range(m):
            rows.append(ModelRow(tuple((_yname(i, j), 1) for j in range(p)), 1))
        for j in range(p):
            rows.append(ModelRow(tuple((_yname(i, j), 1) for i in range(m)), 1))

    return LinearModel(tuple(names), objective, -p_num * inst.n1, tuple(rows))


def _term_list(coeffs) -> list[str]:
    parts: list[str] = []
    for name, c in coeffs:
        mag = abs(c)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return parts


def _fold(prefix: str, units: list[str], width: int = 72) -> list[str]:
    """Lay whole terms onto lines; a coefficient never splits from its name."""
    lines: list[str] = []
    cur = prefix
    for u in units:
        add = u if cur.endswith(" ") else " " + u
        if len(cur) + len(add) > width and cur.strip():
            lines.append(cur)
            cur = "   " + u
        else:
            cur += add
    lines.append(cur)
    return lines


def export_lp(model: LinearModel) -> str:
    out: list[str] = []
    if model.constant != 0:
        out.append(f"\\ objective_offset = {model.constant}")
    out.append("Maximize")
    obj_terms = [(n, model.objective[n]) for n in model.var_names
                 if n in model.objective]
    units = _term_list(obj_terms) if obj_terms else [f"0 {model.var_names[0]}"]
    out.extend(_fold(" obj: ", units))
    out.append("Subject To")
    for row in model.rows:
        out.extend(_fold(" ", _term_list(row.coeffs) + [f">= {row.rhs}"]))
    out.append("Binary")
    for name in model.var_names:
        out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


def encode(inst: Instance, sol: Solution) -> RelationAssignment:
    m, p = inst.m, inst.p
    mc, pc = sol.machine_cell, sol.part_cell
    x = [[1 if (i == k or (mc[i] == mc[k] and mc[i] != 0)) else 0
          for k in range(m)] for i in range(m)]
    y = [[1 if (mc[i] == pc[j] and mc[i] != 0) else 0
          for j in range(p)] for i in range(m)]
    return RelationAssignment(x, y)


def decode(inst: Instance, assign: RelationAssignment, regime: Regime
           ) -> Solution:
    m, p = inst.m, inst.p
    x, y = assign.x, assign.y
    for i in range(m):
        for k in range(i + 1, m):
            for j in range(p):
                if x[i][k] == 1 and y[i][j] != y[k][j]:
                    raise DecodeError(
                        f"inconsistent assignment: x_{i+1}_{k+1} = 1 but "
                        f"y_{i+1}_{j+1} != y_{k+1}_{j+1}")
                if y[i][j] == 1 and y[k][j] == 1 and x[i][k] != 1:
                    raise DecodeError(
                        f"inconsistent assignment: y_{i+1}_{j+1} = "
                        f"y_{k+1}_{j+1} = 1 but x_{i+1}_{k+1} = 0")

    # components of the x relation; every machine lands in a cell
    comp = [0] * m
    c = 0
    for i in range(m):
        if comp[i]:
            continue
        c += 1
        stack = [i]
        comp[i] = c
        while stack:
            u = stack.pop()
            for v in range(m):
                if not comp[v] and (x[u][v] == 1 or x[v][u] == 1):
                    comp[v] = c
                    stack.append(v)

    part_cell = [0] * p
    for j in range(p):
        owners = [i for i in range(m) if y[i][j] == 1]
        if owners:
            part_cell[j] = comp[owners[0]]
        elif regime is Regime.NO_RESIDUAL:
            raise DecodeError(f"part {j+1} is unassigned under no-residual")
    if regime is Regime.NO_RESIDUAL:
        for cell in range(1, c + 1):
            if cell not in part_cell:
                machine = comp.index(cell) + 1
                raise DecodeError(
                    f"cell of machine {machine} has no parts under no-residual")

    sol = canonicalize(Solution(c, comp, part_cell))
    efficacy(inst, sol)
    return sol


def _value(assign: RelationAssignment, name: str) -> int:
    kind, a, b = name.split("_")
    i, k = int(a) - 1, int(b) - 1
    if kind == "x":
        return assign.x[i][k]
    return assign.y[i][k]


def objective_value(model: LinearModel, assign: RelationAssignment) -> int:
    total = model.constant
    for name, c in model.objective.items():
        total += c * _value(assign, name)
    return total


def violated_rows(model: LinearModel, assign: RelationAssignment) -> list[int]:
    """Indices of rows the 0-1 point fails (every row is a >= row)."""
    bad = []
    for idx, row in enumerate(model.rows):
        lhs = sum(c * _value(assign, name) for name, c in row.coeffs)
        if lhs < row.rhs:
            bad.append(idx)
    return bad


def read_assignment(text: str, inst: Instance) -> RelationAssignment:
    """Plain `name value` per-line reader for external solver output.

    Unlisted variables default to 0; values must sit within 0.1 of an
    integer 0 or 1. The x diagonal is implied."""
    m, p = inst.m, inst.p
    x = [[1 if i == k else 0 for k in range(m)] for i in range(m)]
    y = [[0] * p for _ in range(m)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "\\")):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"expected 'name value' at line {lineno}")
        name, sval = fields
        try:
            val = float(sval)
        except ValueError:
            raise ValueError(f"bad value {sval!r} at line {lineno}") from None
        if abs(val) <= 0.1:
            bit = 0
        elif abs(val - 1.0) <= 0.1:
            bit = 1
        else:
            raise ValueError(f"non-binary value {sval} at line {lineno}")
        try:
            kind, a, b = name.split("_")
            i, k = int(a) - 1, int(b) - 1
        except ValueError:
            raise ValueError(f"unknown variable {name!r} at line {lineno}") from None
        if kind == "x" and 0 <= i < m and 0 <= k < m:
            x[i][k] = bit
            x[k][i] = bit
        elif kind == "y" and 0 <= i < m and 0 <= k < p:
            y[i][k] = bit
        else:
            raise ValueError(f"unknown variable {name!r} at line {lineno}")
    return RelationAssignment(x, y)
