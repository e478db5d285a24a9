"""Reference simplex and branch-and-bound that rebuild every node's tableau.

`solve_lp` and `solve_milp` are the solver greenloop.solver shipped before
it built each MILP's standard form once per solve: every branch-and-bound
node went through `dataclasses.replace` and a fresh `solve_lp`, which
stacked the constraint rows, the unit rows of the finite upper bounds, an
identity block of slacks and one column per artificial variable, and the
simplex read the tableau one numpy scalar at a time. They are kept as the
oracle the faster kernel is compared against: its solve_lp, and its
solve_milp with warm starts off (WARM_START_BYTES 0, every node cold),
must take the same pivots and return the same floats, node counts and
pivot counts. The bodies are unchanged apart from their imports. The
limits and tolerances are bound from greenloop.solver at import, so a
test that patches a limit in greenloop.solver patches this module's name
too.

`enumerate_integer_optimum` is the brute-force oracle both solvers are
checked against on small all-integer instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from greenloop.errors import SolverError
from greenloop.solver import (
    _PIVOT_TOL,
    FEAS_TOL,
    INT_TOL,
    MAX_ITERATIONS,
    MAX_NODES,
    LinearProgram,
    MilpSolution,
    SolveStatus,
)


@dataclass
class _Tableau:
    """Mutable simplex tableau: rows of [A | rhs], basis index per row."""

    body: np.ndarray  # (m, total_cols + 1)
    obj: np.ndarray  # (total_cols + 1,) reduced-cost row, last entry = -objective
    basis: list[int]
    eligible: np.ndarray  # bool per column: may enter the basis


def _pivot(t: _Tableau, row: int, col: int) -> None:
    t.body[row] /= t.body[row, col]
    factors = t.body[:, col].copy()
    factors[row] = 0.0
    t.body -= np.outer(factors, t.body[row])
    t.obj -= t.obj[col] * t.body[row]
    t.basis[row] = col


def _simplex(t: _Tableau, max_iters: int):
    """Run Bland-rule simplex until optimal. Returns (status, pivots)."""
    pivots = 0
    while True:
        entering = -1
        reduced = t.obj[:-1]
        for j in range(reduced.shape[0]):
            if t.eligible[j] and reduced[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return SolveStatus.OPTIMAL, pivots
        # Leaving row: min ratio, ties to the lowest basic-variable index.
        col = t.body[:, entering]
        rhs = t.body[:, -1]
        best_ratio = math.inf
        leave = -1
        for i in range(col.shape[0]):
            if col[i] > _PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and leave >= 0
                    and t.basis[i] < t.basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return SolveStatus.UNBOUNDED, pivots
        _pivot(t, leave, entering)
        pivots += 1
        if pivots >= max_iters:
            return SolveStatus.ITERATION_LIMIT, pivots


def solve_lp(lp: LinearProgram) -> MilpSolution:
    """Solve the LP relaxation (integer_mask ignored).

    Status OPTIMAL guarantees primal feasibility within FEAS_TOL and no
    improving reduced cost. Identical inputs give bit-identical outputs.
    """
    n = lp.num_vars
    lo = np.array(lp.lower_bounds, dtype=float)
    hi = np.array(lp.upper_bounds, dtype=float)

    # Shift x = y + lb so y >= 0; finite upper bounds become extra rows.
    rows = [np.array(coeffs, dtype=float) for coeffs, _ in lp.rows]
    rhs = [r - float(np.dot(a, lo)) for a, (_, r) in zip(rows, lp.rows)]
    for j in range(n):
        if math.isfinite(hi[j]):
            unit = np.zeros(n)
            unit[j] = 1.0
            rows.append(unit)
            rhs.append(hi[j] - lo[j])

    m = len(rows)
    c = np.array(lp.objective, dtype=float)
    if m == 0:
        # No constraints at all: each y_j sits at 0 unless pushing it up helps.
        if np.any(c < -FEAS_TOL):
            return MilpSolution(SolveStatus.UNBOUNDED, (), math.nan)
        x = lo.copy()
        return MilpSolution(
            SolveStatus.OPTIMAL, tuple(x.tolist()), float(np.dot(c, x))
        )

    a_mat = np.vstack(rows)
    b_vec = np.array(rhs, dtype=float)

    # Slack per row; flip rows with negative rhs and give them artificials.
    flipped = b_vec < 0
    slack = np.eye(m)
    a_std = a_mat.copy()
    a_std[flipped] *= -1.0
    slack[flipped] *= -1.0
    b_std = np.abs(b_vec)

    art_rows = np.nonzero(flipped)[0]
    n_art = art_rows.shape[0]
    art = np.zeros((m, n_art))
    for k, i in enumerate(art_rows):
        art[i, k] = 1.0

    body = np.hstack([a_std, slack, art, b_std[:, None]])
    total = n + m + n_art
    basis: list[int] = []
    for i in range(m):
        if flipped[i]:
            basis.append(n + m + int(np.nonzero(art_rows == i)[0][0]))
        else:
            basis.append(n + i)

    eligible = np.ones(total, dtype=bool)
    t = _Tableau(body=body, obj=np.zeros(total + 1), basis=basis, eligible=eligible)

    iterations = 0
    if n_art:
        # Phase 1: minimize the artificial sum.
        phase1 = np.zeros(total + 1)
        phase1[n + m : n + m + n_art] = 1.0
        for i, bv in enumerate(t.basis):
            if phase1[bv] != 0.0:
                phase1 -= phase1[bv] * t.body[i]
        t.obj = phase1
        status, pivots = _simplex(t, MAX_ITERATIONS)
        iterations += pivots
        if status is SolveStatus.ITERATION_LIMIT:
            return MilpSolution(status, (), math.nan, iterations=iterations)
        if -t.obj[-1] > 1e-8:
            return MilpSolution(
                SolveStatus.INFEASIBLE, (), math.nan, iterations=iterations
            )
        # Drive leftover artificials out of the basis where possible.
        for i, bv in enumerate(t.basis):
            if bv >= n + m:
                for j in range(n + m):
                    if abs(t.body[i, j]) > _PIVOT_TOL:
                        _pivot(t, i, j)
                        iterations += 1
                        break
        t.eligible[n + m :] = False

    # Phase 2: original objective over shifted variables.
    phase2 = np.zeros(total + 1)
    phase2[:n] = c
    for i, bv in enumerate(t.basis):
        if phase2[bv] != 0.0:
            phase2 -= phase2[bv] * t.body[i]
    t.obj = phase2
    status, pivots = _simplex(t, MAX_ITERATIONS - iterations)
    iterations += pivots
    if status is not SolveStatus.OPTIMAL:
        return MilpSolution(status, (), math.nan, iterations=iterations)

    y = np.zeros(n)
    for i, bv in enumerate(t.basis):
        if bv < n:
            y[bv] = t.body[i, -1]
    y[np.abs(y) < 1e-12] = 0.0
    x = y + lo
    return MilpSolution(
        SolveStatus.OPTIMAL,
        tuple(x.tolist()),
        float(np.dot(c, x)),
        iterations=iterations,
    )


def _fractional_index(values: np.ndarray, mask: Sequence[bool]) -> int:
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
    """
    for j, is_int in enumerate(lp.integer_mask):
        if is_int and not math.isfinite(lp.upper_bounds[j]):
            raise SolverError(
                f"integer variable {j} needs a finite upper bound for branch-and-bound"
            )

    if not any(lp.integer_mask):
        sol = solve_lp(lp)
        return replace(sol, nodes_explored=1 if sol.status is SolveStatus.OPTIMAL else 0)

    counter = 0
    heap: list[tuple[float, int, tuple[float, ...], tuple[float, ...]]] = []
    heapq.heappush(heap, (-math.inf, counter, lp.lower_bounds, lp.upper_bounds))

    best_obj = math.inf
    best_values: tuple[float, ...] = ()
    nodes = 0
    iterations = 0
    hit_node_limit = False

    while heap:
        bound, _, los, his = heapq.heappop(heap)
        if bound >= best_obj - 1e-9:
            continue
        if nodes >= MAX_NODES:
            hit_node_limit = True
            break
        nodes += 1

        node_lp = replace(lp, lower_bounds=los, upper_bounds=his)
        relax = solve_lp(node_lp)
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
        if relax.objective_value >= best_obj - 1e-9:
            continue

        values = np.array(relax.values)
        branch_j = _fractional_index(values, lp.integer_mask)
        if branch_j < 0:
            snapped = values.copy()
            for j, is_int in enumerate(lp.integer_mask):
                if is_int:
                    snapped[j] = round(snapped[j])
            obj = float(np.dot(np.array(lp.objective), snapped))
            if obj < best_obj:
                best_obj = obj
                best_values = tuple(snapped.tolist())
            continue

        xj = values[branch_j]
        down_his = list(his)
        down_his[branch_j] = math.floor(xj)
        up_los = list(los)
        up_los[branch_j] = math.ceil(xj)
        for child_los, child_his in (
            (los, tuple(down_his)),
            (tuple(up_los), his),
        ):
            if child_los[branch_j] <= child_his[branch_j]:
                counter += 1
                heapq.heappush(
                    heap, (relax.objective_value, counter, child_los, child_his)
                )

    if hit_node_limit:
        return MilpSolution(
            SolveStatus.ITERATION_LIMIT, best_values, best_obj, nodes, iterations
        )
    if best_values:
        return MilpSolution(
            SolveStatus.OPTIMAL, best_values, best_obj, nodes, iterations
        )
    return MilpSolution(SolveStatus.INFEASIBLE, (), math.nan, nodes, iterations)


def enumerate_integer_optimum(lp: LinearProgram) -> tuple[float, tuple[float, ...]]:
    """Brute-force oracle: best objective over the bounded integer lattice.

    Continuous variables are not supported; every variable must be integer
    with finite bounds. Returns (inf, ()) when no lattice point is feasible.
    """
    n = lp.num_vars
    if not all(lp.integer_mask):
        raise SolverError("enumeration oracle requires all-integer instances")
    axes = []
    for j in range(n):
        lo = math.ceil(lp.lower_bounds[j] - 1e-9)
        hi = math.floor(lp.upper_bounds[j] + 1e-9)
        if lo > hi:
            return math.inf, ()
        axes.append(np.arange(lo, hi + 1, dtype=float))
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    feasible = np.ones(points.shape[0], dtype=bool)
    for coeffs, rhs in lp.rows:
        feasible &= points @ np.array(coeffs) <= rhs + 1e-9
    if not feasible.any():
        return math.inf, ()
    objs = points[feasible] @ np.array(lp.objective)
    k = int(np.argmin(objs))
    return float(objs[k]), tuple(points[feasible][k].tolist())
