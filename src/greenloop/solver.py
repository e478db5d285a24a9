"""Linear and mixed-integer program solver.

Two-phase primal simplex on a dense tableau with Bland's lowest-index
pivoting (anti-cycling, fully deterministic), plus best-first
branch-and-bound for integer instances. No external solver: desk-scale
exactness over performance.

Instances are minimization problems

    min c.x   s.t.   A x <= b,   lb <= x <= ub

with lb finite and ub possibly +inf. Integer variables must
carry finite bounds so branch-and-bound terminates.

solve_milp builds the bound-independent part of the standard form once
per call: the rows, one unit row per variable with a finite upper bound,
the slack block and the objective. The form also holds a read-only
template, the starting tableau of a node whose slack basis is feasible
with a zero right-hand side. A cold node copies it, writes its
right-hand side and goes straight to phase 2: with only slacks basic,
pricing out subtracts nothing, so the template's last row is exactly the
phase-2 row a from-scratch build would make. A cold node with a negative
shifted right-hand side builds a tableau with artificial columns and runs
phase 1 first. Nothing outlives the call.

Only the root, and children that cannot be warm-started, are cold. A
child starts from a copy of its parent's optimal tableau. Its branch
moves one bound of x_j: raising the lower bound shifts the right-hand
side by delta times x_j's column, lowering the upper bound lowers x_j's
unit row by delta. Either way the tableau's right-hand side moves by
delta times one tableau column, which for a fractional x_j is a unit
column, so one entry moves, and the reduced costs stay optimal. A dual
simplex (Lemke 1954, Naval Research Logistics Quarterly) with Bland's
rule restores primal feasibility, and phase 2 absorbs any drift. The
siblings share their parent's array and basis until both have left the
heap. Held arrays count against WARM_START_BYTES, and children past it
are cold, so a wide search front cannot hold a tableau per pending
node. Children of a parent that keeps an artificial variable basic are
cold too; a parent's nonbasic artificial columns are dropped.

A tableau is one array: the constraint rows, then the reduced-cost row,
which each phase writes in place. A pivot divides the pivot row by its
pivot element and subtracts factors[:, None] * prow from the whole array
through one buffer per node, the objective row's factor being its own
entry in the pivot column. Each element still takes one IEEE multiply and
one subtract, as when the cost row was updated on its own.

The floats of solve_lp and of every cold node stay exactly those of a
tableau built from scratch for the node, which tests/reference_solver.py
does: each row's shift is its own np.dot (a matrix product may sum in
another order), pricing out a basis subtracts only the rows of basic
columns with a nonzero cost (basic columns are unit columns), the
entering and ratio scans compare Python floats, which are the same IEEE
doubles as numpy's, and a pivot forms each product once, as np.outer
does. Such a node thus takes the same pivots and returns the same bits.
A warm node reaches an optimum of the same LP by other pivots; where
optima tie, it may return another vertex.

Limits and tolerances are module constants. A solve ends with status
IterationLimit after MAX_ITERATIONS simplex pivots per LP (dual pivots
included) or MAX_NODES branch-and-bound nodes; WARM_START_BYTES bounds
the tableaus held for warm starts; FEAS_TOL bounds row and bound
residuals and INT_TOL the distance from an integer. MilpSolution reports
the pivots and nodes a solve took as iterations and nodes_explored.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import SolverError

MAX_ITERATIONS = 10_000
MAX_NODES = 100_000
WARM_START_BYTES = 8 << 20
FEAS_TOL = 1e-7
INT_TOL = 1e-6
_PIVOT_TOL = 1e-9


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LinearProgram:
    """Dense minimization instance: objective, <= rows, bounds, integrality."""

    objective: tuple[float, ...]
    rows: tuple[tuple[tuple[float, ...], float], ...]
    lower_bounds: tuple[float, ...]
    upper_bounds: tuple[float, ...]
    integer_mask: tuple[bool, ...]
    variable_names: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.objective)
        for coeffs, _rhs in self.rows:
            if len(coeffs) != n:
                raise SolverError(
                    f"row has {len(coeffs)} coefficients for {n} variables"
                )
        if len(self.lower_bounds) != n or len(self.upper_bounds) != n:
            raise SolverError("bound vectors must match variable count")
        if len(self.integer_mask) != n:
            raise SolverError("integer mask must match variable count")
        for j, (lo, hi) in enumerate(zip(self.lower_bounds, self.upper_bounds)):
            if not math.isfinite(lo):
                raise SolverError(f"variable {j} has non-finite lower bound")
            if lo > hi:
                raise SolverError(f"variable {j} has lower bound {lo} > upper {hi}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class MilpSolution:
    status: SolveStatus
    values: tuple[float, ...]
    objective_value: float
    nodes_explored: int = 0
    iterations: int = 0


@dataclass(frozen=True)
class Violation:
    """One feasibility defect: which row/variable and by how much.

    Kinds: "row" (a row's activity over its bound), "lower" and "upper"
    (a value outside its bounds), "integrality" (an integer variable's
    distance from the nearest integer) and "nonfinite" (a value that is
    NaN or infinite; its residual is the value itself, and no bound or
    integrality check runs on it).
    """

    kind: str
    index: int
    residual: float

    def __str__(self) -> str:
        return f"{self.kind}[{self.index}] violated by {self.residual:.6g}"


class _Tableau:
    """Mutable simplex tableau in one array: the rows of [A | rhs], then the
    reduced-cost row, whose last entry is -objective (up to a constant on a
    warm-started node). body and obj are views of those rows; buf holds a
    pivot's products."""

    def __init__(self, tab: np.ndarray, basis: list[int], eligible: int):
        self.tab = tab  # (m + 1, total_cols + 1)
        self.body = tab[:-1]
        self.obj = tab[-1]
        self.buf = np.empty_like(tab)
        self.basis = basis
        self.eligible = eligible  # columns below this index may enter the basis


def _pivot(t: _Tableau, row: int, col: int) -> None:
    tab = t.tab
    prow = tab[row]
    prow /= prow[col]
    # The objective row's factor is its own obj[col]: one subtraction
    # updates the constraint rows and the reduced costs.
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.multiply(factors[:, None], prow, out=t.buf)
    t.basis[row] = col


def _simplex(t: _Tableau, max_iters: int):
    """Run Bland-rule simplex until optimal. Returns (status, pivots)."""
    pivots = 0
    basis = t.basis
    body = t.body
    reduced = t.obj[: t.eligible]
    rhs_col = body[:, -1]
    while True:
        improving = reduced < -_PIVOT_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            return SolveStatus.OPTIMAL, pivots
        # Leaving row: min ratio, ties to the lowest basic-variable index.
        col = body[:, entering].tolist()
        rhs = rhs_col.tolist()
        best_ratio = math.inf
        leave = -1
        for i, a in enumerate(col):
            if a > _PIVOT_TOL:
                ratio = rhs[i] / a
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and leave >= 0
                    and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return SolveStatus.UNBOUNDED, pivots
        _pivot(t, leave, entering)
        pivots += 1
        if pivots >= max_iters:
            return SolveStatus.ITERATION_LIMIT, pivots


@dataclass(frozen=True)
class _StandardForm:
    """The bound-independent part of an LP's standard form.

    Rows are the LP's own rows, then one unit row per boxed variable (finite
    upper bound), each with a slack column. Branching changes bounds only,
    never which variables are boxed, so one form serves every node.
    slack_tab is the starting tableau of a node whose slack basis is
    feasible, less its right-hand side: it is read-only, and a node pivots
    a copy.
    """

    rows: tuple[np.ndarray, ...]  # the LP's rows, one array each for np.dot
    rhs: tuple[float, ...]
    boxed: np.ndarray  # indices of the variables with a finite upper bound
    slack_tab: np.ndarray  # (m + 1, n + m + 1): [A | I | 0] rows, then [c | 0 | 0]
    c: np.ndarray


def _standard_form(lp: LinearProgram) -> _StandardForm:
    n = lp.num_vars
    rows = tuple(np.array(coeffs, dtype=float) for coeffs, _ in lp.rows)
    boxed = np.array(
        [j for j, hi in enumerate(lp.upper_bounds) if math.isfinite(hi)], dtype=np.intp
    )
    k = len(rows)
    m = k + boxed.shape[0]
    c = np.array(lp.objective, dtype=float)
    slack_tab = np.zeros((m + 1, n + m + 1))
    for i, a in enumerate(rows):
        slack_tab[i, :n] = a
    slack_tab[np.arange(k, m), boxed] = 1.0
    slack_tab[:m, n : n + m] = np.eye(m)
    slack_tab[m, :n] = c
    slack_tab.flags.writeable = False
    return _StandardForm(
        rows=rows,
        rhs=tuple(r for _, r in lp.rows),
        boxed=boxed,
        slack_tab=slack_tab,
        c=c,
    )


def _cold_start(
    form: _StandardForm, lo: np.ndarray, upper: Sequence[float]
) -> tuple[_Tableau, int] | MilpSolution:
    """A node's tableau built from the slack basis, ready for phase 2, and
    the pivots phase 1 took; or phase 1's verdict. The form has a row."""
    c = form.c
    n = c.shape[0]
    m = form.slack_tab.shape[0] - 1

    # Shift x = y + lb so y >= 0; a boxed variable's row bounds y by ub - lb.
    # Each row keeps its own np.dot: a matrix product may sum in another order.
    k = len(form.rows)
    b_vec = np.empty(m)
    b_vec[:k] = [r - float(np.dot(a, lo)) for a, r in zip(form.rows, form.rhs)]
    boxed = form.boxed
    b_vec[k:] = np.array(upper, dtype=float)[boxed] - lo[boxed]

    art_rows = np.flatnonzero(b_vec < 0)
    n_art = art_rows.shape[0]
    if not n_art:
        # The slack basis is feasible: the template already holds phase 2's
        # row, since no original variable is basic to price out.
        tab = form.slack_tab.copy()
        tab[:m, -1] = np.abs(b_vec)
        return _Tableau(tab, list(range(n, n + m)), n + m), 0

    # Flip rows with negative rhs (their zeros become -0.0, as the slack
    # block's do) and give each an artificial column, basic in its row.
    total = n + m + n_art
    tab = np.zeros((m + 1, total + 1))
    body = tab[:m]
    body[:, : n + m] = form.slack_tab[:m, :-1]
    body[art_rows, : n + m] *= -1.0
    body[art_rows, n + m + np.arange(n_art)] = 1.0
    body[:, -1] = np.abs(b_vec)
    basis = list(range(n, n + m))
    for a, i in enumerate(art_rows.tolist()):
        basis[i] = n + m + a
    t = _Tableau(tab, basis, total)

    # Phase 1: minimize the artificial sum. Basic columns are unit
    # columns, so pricing out the basis subtracts each artificial row.
    obj = t.obj
    obj[n + m : total] = 1.0
    for i in art_rows.tolist():
        obj -= body[i]
    status, iterations = _simplex(t, MAX_ITERATIONS)
    if status is SolveStatus.ITERATION_LIMIT:
        return MilpSolution(status, (), math.nan, iterations=iterations)
    if -obj[-1] > 1e-8:
        return MilpSolution(SolveStatus.INFEASIBLE, (), math.nan, iterations=iterations)
    # Drive leftover artificials out of the basis where possible.
    for i, bv in enumerate(t.basis):
        if bv >= n + m:
            for j in range(n + m):
                if abs(body[i, j]) > _PIVOT_TOL:
                    _pivot(t, i, j)
                    iterations += 1
                    break
    t.eligible = n + m

    # Phase 2: original objective over shifted variables, priced out the
    # same way: only basic original variables with a nonzero cost count.
    obj.fill(0.0)
    obj[:n] = c
    cost = c.tolist()
    for i, bv in enumerate(t.basis):
        if bv < n and cost[bv] != 0.0:
            obj -= cost[bv] * body[i]
    return t, iterations


def _phase2(
    form: _StandardForm, t: _Tableau, iterations: int, lo: np.ndarray
) -> MilpSolution:
    """Run phase 2 on a primal feasible tableau and read off x = y + lo."""
    status, pivots = _simplex(t, MAX_ITERATIONS - iterations)
    iterations += pivots
    if status is not SolveStatus.OPTIMAL:
        return MilpSolution(status, (), math.nan, iterations=iterations)

    c = form.c
    y = np.zeros(c.shape[0])
    for i, bv in enumerate(t.basis):
        if bv < c.shape[0]:
            y[bv] = t.body[i, -1]
    y[np.abs(y) < 1e-12] = 0.0
    x = y + lo
    return MilpSolution(
        SolveStatus.OPTIMAL,
        tuple(x.tolist()),
        float(np.dot(c, x)),
        iterations=iterations,
    )


def _solve(
    form: _StandardForm, lower: Sequence[float], upper: Sequence[float]
) -> MilpSolution:
    """Solve the form's LP over the box lower <= x <= upper from scratch."""
    c = form.c
    lo = np.array(lower, dtype=float)
    if form.slack_tab.shape[0] == 1:
        # No constraints at all: each y_j sits at 0 unless pushing it up helps.
        if np.any(c < -FEAS_TOL):
            return MilpSolution(SolveStatus.UNBOUNDED, (), math.nan)
        return MilpSolution(
            SolveStatus.OPTIMAL, tuple(lo.tolist()), float(np.dot(c, lo))
        )
    start = _cold_start(form, lo, upper)
    if isinstance(start, MilpSolution):
        return start
    return _phase2(form, *start, lo)


def _dual_simplex(t: _Tableau, max_iters: int):
    """Restore primal feasibility of a dual feasible tableau by the dual
    simplex with Bland's rule. Returns (status, pivots)."""
    pivots = 0
    basis = t.basis
    body = t.body
    reduced = t.obj[: t.eligible]
    rhs_col = body[:, -1]
    while True:
        # Leaving row: a negative right-hand side, lowest basic index first.
        infeasible = (rhs_col < -_PIVOT_TOL).nonzero()[0].tolist()
        if not infeasible:
            return SolveStatus.OPTIMAL, pivots
        leave = min(infeasible, key=basis.__getitem__)
        # Entering column: min reduced / -a over a < 0, ties to the lowest
        # index. A row with no negative entry cannot reach its bound.
        row = body[leave, : t.eligible]
        candidates = (row < -_PIVOT_TOL).nonzero()[0]
        if not candidates.shape[0]:
            return SolveStatus.INFEASIBLE, pivots
        ratios = reduced[candidates] / -row[candidates]
        _pivot(t, leave, int(candidates[ratios.argmin()]))
        pivots += 1
        if pivots >= max_iters:
            return SolveStatus.ITERATION_LIMIT, pivots


class _Parent:
    """A solved node's final tableau, less its artificial columns, and its
    basis, held until both children have left the heap."""

    __slots__ = ("tab", "basis", "pending")

    def __init__(self, tab: np.ndarray, basis: list[int], pending: int):
        self.tab = tab
        self.basis = basis
        self.pending = pending


def _warm_start(
    parent: _Parent, col: int, delta: float
) -> tuple[_Tableau, int] | MilpSolution:
    """A child's tableau, primal feasible again, from a copy of its
    parent's, and the dual pivots that took; or the dual simplex's verdict.

    col is x_j on the up branch, whose lower bound rises by delta, and the
    slack of x_j's unit row on the down branch, whose upper bound drops by
    delta. Either way the right-hand side moves by -delta times tableau
    column col, and the reduced costs, still optimal, stay as they are.
    On the up branch the objective row's last entry, which phase 2 never
    reads, is left off -c.y by c_j * delta.
    """
    tab = parent.tab.copy()
    tab[:, -1] -= delta * tab[:, col]
    t = _Tableau(tab, list(parent.basis), tab.shape[1] - 1)
    status, pivots = _dual_simplex(t, MAX_ITERATIONS)
    if status is not SolveStatus.OPTIMAL:
        return MilpSolution(status, (), math.nan, iterations=pivots)
    return t, pivots


def solve_lp(lp: LinearProgram) -> MilpSolution:
    """Solve the LP relaxation (integer_mask ignored).

    Status OPTIMAL guarantees primal feasibility within FEAS_TOL and no
    improving reduced cost. Identical inputs give bit-identical outputs.
    A ratio or pivot may overflow on the way to a finite answer, so numpy
    warns of nothing here; an answer that is not finite raises SolverError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = _solve(_standard_form(lp), lp.lower_bounds, lp.upper_bounds)
    return _finite(sol)


def _finite(sol: MilpSolution) -> MilpSolution:
    """sol, unless its objective or one of its values is inf or NaN."""
    if sol.values and not all(map(math.isfinite, (sol.objective_value, *sol.values))):
        raise SolverError(f"solve ended {sol.status.name} with a non-finite objective or value")
    return sol


def _fractional_index(values: Sequence[float], mask: Sequence[bool]) -> int:
    """Most-fractional integer variable, lowest index on ties; -1 if integral."""
    best_j = -1
    best_frac = INT_TOL
    for j, is_int in enumerate(mask):
        if not is_int:
            continue
        frac = abs(values[j] - round(values[j]))
        if frac > best_frac:
            best_frac = frac
            best_j = j
    return best_j


def solve_milp(lp: LinearProgram) -> MilpSolution:
    """Exact best-first branch-and-bound over the LP relaxation.

    Branches on the most-fractional variable (ties to the lowest index);
    nodes are explored in best-relaxation-bound order (ties FIFO). Every
    integer variable needs finite bounds.

    The root is solved from the slack basis. A child starts from a copy of
    its parent's optimal tableau, which the two siblings share until both
    have left the heap, and a dual simplex makes it primal feasible again.
    Children are solved from the slack basis instead when their parent's
    tableau keeps an artificial variable basic, or when holding it would
    take the held tableaus past WARM_START_BYTES. A warm node's relaxation
    has the optimum a cold one would find; where its optima tie, it may
    return another vertex, and the search may branch elsewhere. Overflow
    and a non-finite answer are met as in solve_lp.
    """
    for j, is_int in enumerate(lp.integer_mask):
        if is_int and not math.isfinite(lp.upper_bounds[j]):
            raise SolverError(
                f"integer variable {j} needs a finite upper bound for branch-and-bound"
            )

    if not any(lp.integer_mask):
        sol = solve_lp(lp)
        return replace(sol, nodes_explored=1 if sol.status is SolveStatus.OPTIMAL else 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = _branch_and_bound(lp)
    return _finite(sol)


def _branch_and_bound(lp: LinearProgram) -> MilpSolution:
    """solve_milp's search, on an LP with an integer variable."""
    form = _standard_form(lp)
    n = lp.num_vars
    width = form.slack_tab.shape[1]  # n + m + 1: no artificial columns
    # The slack column of each boxed variable's unit row.
    unit_slack = {j: n + len(form.rows) + r for r, j in enumerate(form.boxed.tolist())}
    counter = 0
    # (bound, FIFO order, lower, upper, parent or None, branch column, delta)
    heap: list[tuple] = [
        (-math.inf, counter, lp.lower_bounds, lp.upper_bounds, None, 0, 0.0)
    ]
    held_bytes = 0

    best_obj = math.inf
    best_values: tuple[float, ...] = ()
    nodes = 0
    iterations = 0
    hit_node_limit = False

    while heap:
        bound, _, los, his, parent, col, delta = heapq.heappop(heap)
        if parent is not None:
            parent.pending -= 1
            if not parent.pending:
                held_bytes -= parent.tab.nbytes
        if bound >= best_obj - 1e-9:
            continue
        if nodes >= MAX_NODES:
            hit_node_limit = True
            break
        nodes += 1

        lo = np.array(los, dtype=float)
        if parent is None:
            start = _cold_start(form, lo, his)
        else:
            start = _warm_start(parent, col, delta)
        if isinstance(start, MilpSolution):
            relax = start
        else:
            t = start[0]
            relax = _phase2(form, *start, lo)
        iterations += relax.iterations
        if relax.status is SolveStatus.ITERATION_LIMIT:
            return MilpSolution(
                SolveStatus.ITERATION_LIMIT, (), math.nan, nodes, iterations
            )
        if relax.status is SolveStatus.UNBOUNDED:
            # Integer variables are boxed, so only continuous ones can run away.
            return MilpSolution(
                SolveStatus.UNBOUNDED, (), math.nan, nodes, iterations
            )
        if relax.status is not SolveStatus.OPTIMAL:
            continue
        if _finite(relax).objective_value >= best_obj - 1e-9:
            continue

        values = relax.values
        branch_j = _fractional_index(values, lp.integer_mask)
        if branch_j < 0:
            snapped = np.array(values)
            for j, is_int in enumerate(lp.integer_mask):
                if is_int:
                    snapped[j] = round(snapped[j])
            obj = float(np.dot(form.c, snapped))
            if obj < best_obj:
                best_obj = obj
                best_values = tuple(snapped.tolist())
            continue

        xj = values[branch_j]
        children = []
        down_hi = math.floor(xj)
        if los[branch_j] <= down_hi:
            down_his = list(his)
            down_his[branch_j] = down_hi
            children.append(
                (los, tuple(down_his), unit_slack[branch_j], his[branch_j] - down_hi)
            )
        up_lo = math.ceil(xj)
        if up_lo <= his[branch_j]:
            up_los = list(los)
            up_los[branch_j] = up_lo
            children.append((tuple(up_los), his, branch_j, up_lo - los[branch_j]))

        held = None
        tab = t.tab
        if tab.shape[1] > width and max(t.basis) < width - 1:
            # Phase 1's artificial columns, all nonbasic, drop out.
            tab = np.delete(tab, np.s_[width - 1 : -1], axis=1)
        if (
            children
            and tab.shape[1] == width
            and held_bytes + tab.nbytes <= WARM_START_BYTES
        ):
            held = _Parent(tab, t.basis, len(children))
            held_bytes += tab.nbytes
        for child_los, child_his, child_col, child_delta in children:
            counter += 1
            heapq.heappush(
                heap,
                (relax.objective_value, counter, child_los, child_his,
                 held, child_col, child_delta),
            )

    if hit_node_limit:
        status = SolveStatus.ITERATION_LIMIT
    else:
        status = SolveStatus.OPTIMAL if best_values else SolveStatus.INFEASIBLE
    objective = best_obj if best_values else math.nan
    return MilpSolution(status, best_values, objective, nodes, iterations)


def check_solution(lp: LinearProgram, sol: MilpSolution) -> list[Violation]:
    """Independent feasibility audit of a solution against its instance."""
    if len(sol.values) != lp.num_vars:
        raise SolverError(
            f"solution has {len(sol.values)} values for {lp.num_vars} variables"
        )
    x = np.array(sol.values, dtype=float)
    out: list[Violation] = []
    for i, (coeffs, rhs) in enumerate(lp.rows):
        residual = float(np.dot(np.array(coeffs), x) - rhs)
        if residual > FEAS_TOL * max(1.0, abs(rhs)):
            out.append(Violation("row", i, residual))
    # the values as Python floats: the same numbers, without a numpy scalar
    # per comparison (run_full audits every allocation it solves)
    per_var = zip(x.tolist(), lp.lower_bounds, lp.upper_bounds, lp.integer_mask)
    for j, (v, lo, hi, integer) in enumerate(per_var):
        if not math.isfinite(v):
            out.append(Violation("nonfinite", j, v))
            continue
        if v < lo - FEAS_TOL:
            out.append(Violation("lower", j, float(lo - v)))
        if v > hi + FEAS_TOL:
            out.append(Violation("upper", j, float(v - hi)))
        if integer:
            frac = abs(v - round(v))
            if frac > INT_TOL:
                out.append(Violation("integrality", j, float(frac)))
    return out
