"""Solver unit tests: simplex vertices, branch-and-bound vs brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenloop import solver
from greenloop.errors import SolverError
from greenloop.solver import (
    LinearProgram,
    MilpSolution,
    SolveStatus,
    check_solution,
    enumerate_integer_optimum,
    solve_lp,
    solve_milp,
)


def lp(objective, rows=(), lower=None, upper=None, integer=None):
    n = len(objective)
    return LinearProgram(
        objective=tuple(objective),
        rows=tuple((tuple(c), r) for c, r in rows),
        lower_bounds=tuple(lower) if lower else (0.0,) * n,
        upper_bounds=tuple(upper) if upper else (math.inf,) * n,
        integer_mask=tuple(integer) if integer else (False,) * n,
    )


class TestSolveLp:
    def test_unique_vertex_optimum(self):
        sol = solve_lp(lp([-2.0, -1.0], rows=[([1.0, 1.0], 1.0)]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == pytest.approx((1.0, 0.0))
        assert sol.objective_value == pytest.approx(-2.0)

    def test_no_rows_sits_at_lower_bound(self):
        sol = solve_lp(lp([1.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == (0.0,)
        assert sol.objective_value == 0.0

    def test_unbounded(self):
        sol = solve_lp(lp([-1.0]))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_with_rows(self):
        sol = solve_lp(lp([-1.0, 0.0], rows=[([0.0, 1.0], 5.0)]))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_infeasible_via_bounds_row(self):
        sol = solve_lp(lp([1.0], rows=[([1.0], -0.5)]))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_shifted_lower_bounds(self):
        sol = solve_lp(lp([1.0, 1.0], rows=[([1.0, 1.0], 10.0)], lower=[2.0, 3.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == pytest.approx((2.0, 3.0))
        assert sol.objective_value == pytest.approx(5.0)

    def test_upper_bounds_respected(self):
        sol = solve_lp(lp([-1.0, -1.0], upper=[2.0, 3.5]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == pytest.approx((2.0, 3.5))

    def test_negative_rhs_needs_phase1(self):
        # x1 >= 2 written as -x1 <= -2.
        sol = solve_lp(lp([1.0], rows=[([-1.0], -2.0)]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == pytest.approx((2.0,))

    def test_phase2_objective_monotone(self, monkeypatch):
        # All right-hand sides are >= 0, so every pivot is a phase-2 pivot.
        trace: list[float] = []
        pivot = solver._pivot

        def recording_pivot(t, row, col):
            trace.append(-t.obj[-1])
            pivot(t, row, col)
            trace.append(-t.obj[-1])

        monkeypatch.setattr(solver, "_pivot", recording_pivot)
        instance = lp(
            [-3.0, -5.0, -4.0],
            rows=[([2.0, 3.0, 0.0], 8.0), ([0.0, 2.0, 5.0], 10.0), ([3.0, 2.0, 4.0], 15.0)],
        )
        sol = solve_lp(instance)
        assert sol.status is SolveStatus.OPTIMAL
        assert len(trace) >= 4  # at least 2 pivots recorded
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9

    def test_determinism_bit_identical(self):
        instance = lp(
            [1.5, -2.25, 0.75],
            rows=[([1.0, 2.0, -1.0], 4.0), ([-1.0, 1.0, 3.0], 6.0)],
            upper=[10.0, 10.0, 10.0],
        )
        a = solve_lp(instance)
        b = solve_lp(instance)
        assert a == b


class TestSolveMilp:
    def test_knapsack_enumerated(self):
        # obj(0,0)=0, obj(1,0)=-3, obj(0,1)=-4, (1,1) infeasible.
        instance = lp(
            [-3.0, -4.0],
            rows=[([2.0, 3.0], 4.0)],
            upper=[1.0, 1.0],
            integer=[True, True],
        )
        sol = solve_milp(instance)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == (0.0, 1.0)
        assert sol.objective_value == pytest.approx(-4.0)

    def test_integral_relaxation_matches_lp(self):
        instance = lp(
            [-1.0, -1.0],
            rows=[([1.0, 0.0], 2.0), ([0.0, 1.0], 3.0)],
            upper=[5.0, 5.0],
            integer=[True, True],
        )
        relaxed = solve_lp(instance)
        sol = solve_milp(instance)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == pytest.approx(relaxed.values)
        assert sol.objective_value == pytest.approx(relaxed.objective_value)

    def test_integer_infeasible(self):
        instance = lp(
            [1.0], rows=[([1.0], -0.5)], upper=[1.0], integer=[True]
        )
        sol = solve_milp(instance)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded_integer_var_rejected(self):
        with pytest.raises(SolverError):
            solve_milp(lp([1.0], integer=[True]))

    def test_fractional_relaxation_branches(self):
        instance = lp(
            [-1.0],
            rows=[([2.0], 3.0)],
            upper=[5.0],
            integer=[True],
        )
        sol = solve_milp(instance)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == (1.0,)
        assert sol.nodes_explored >= 2


def random_instance(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    c = rng.integers(-5, 6, size=n).astype(float)
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-2, 13, size=m).astype(float)
    return lp(
        c.tolist(),
        rows=[(a[i].tolist(), float(b[i])) for i in range(m)],
        upper=[3.0] * n,
        integer=[True] * n,
    )


@st.composite
def degenerate_instances(draw):
    """All-integer instances of 1-4 variables, degenerate by construction.

    Each base row may be repeated, scaled into a parallel row with the same
    or a shifted bound, or negated, which with a zero shift pins it to an
    equality. Right-hand sides are often zero, and the objective is often
    zero or a multiple of a row, so whole faces of the feasible set tie.
    """
    n = draw(st.integers(1, 4))
    coeff = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.0])
    coeffs = st.lists(coeff, min_size=n, max_size=n)
    shift = st.sampled_from([0.0, 0.0, 1.0])
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(coeffs), draw(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, -1.0]))
        rows.append((a, b))
        kinds = st.lists(st.sampled_from(["same", "parallel", "negated"]), max_size=3)
        for kind in draw(kinds):
            if kind == "same":
                rows.append((a, b))
            elif kind == "parallel":
                k = draw(st.sampled_from([0.5, 2.0, 3.0]))
                rows.append(([k * v for v in a], k * b + draw(shift)))
            else:
                rows.append(([-v for v in a], -b + draw(shift)))
    rows = draw(st.permutations(rows))
    tie = draw(st.sampled_from(["free", "row", "zero"]))
    if tie == "free":
        objective = draw(coeffs)
    elif tie == "row":
        k = draw(st.sampled_from([-1.0, 1.0, 2.0]))
        objective = [k * v for v in draw(st.sampled_from(rows))[0]]
    else:
        objective = [0.0] * n
    upper = draw(st.lists(st.integers(1, 3).map(float), min_size=n, max_size=n))
    return lp(objective, rows=rows, upper=upper, integer=[True] * n)


def oracle_mismatch(instance):
    """How solve_milp disagrees with the enumeration oracle, or None."""
    expected_obj, _ = enumerate_integer_optimum(instance)
    sol = solve_milp(instance)
    if math.isinf(expected_obj):
        if sol.status is not SolveStatus.INFEASIBLE:
            return "expected infeasible", sol.status
    elif sol.status is not SolveStatus.OPTIMAL:
        return "expected optimal", sol.status
    elif abs(sol.objective_value - expected_obj) > 1e-6:
        return expected_obj, sol.objective_value
    elif check_solution(instance, sol):
        return "infeasible incumbent", sol.values
    return None


class TestOracleEquivalence:
    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(20240917)
        mismatches = []
        for k in range(120):
            found = oracle_mismatch(random_instance(rng))
            if found is not None:
                mismatches.append((k, *found))
        assert not mismatches, mismatches[:5]

    @settings(deadline=None, max_examples=150)
    @given(instance=degenerate_instances())
    def test_degenerate_instances_match_enumeration(self, instance):
        """Degenerate pivots, and artificial variables that phase 1 leaves
        basic at zero, on the instances that make them."""
        assert oracle_mismatch(instance) is None


class TestCheckSolution:
    def test_row_violation_reports_residual(self):
        instance = lp([0.0, 0.0], rows=[([1.0, 1.0], 1.0)])
        fake = MilpSolution(SolveStatus.OPTIMAL, (2.0, 0.0), 0.0)
        violations = check_solution(instance, fake)
        assert len(violations) == 1
        assert violations[0].kind == "row"
        assert violations[0].residual == pytest.approx(1.0)

    def test_integrality_violation(self):
        instance = lp([0.0], upper=[1.0], integer=[True])
        fake = MilpSolution(SolveStatus.OPTIMAL, (0.5,), 0.0)
        violations = check_solution(instance, fake)
        assert len(violations) == 1
        assert violations[0].kind == "integrality"

    def test_optimal_output_passes(self):
        instance = lp(
            [-3.0, -4.0],
            rows=[([2.0, 3.0], 4.0)],
            upper=[1.0, 1.0],
            integer=[True, True],
        )
        sol = solve_milp(instance)
        assert check_solution(instance, sol) == []

    def test_length_mismatch_rejected(self):
        instance = lp([1.0, 2.0])
        with pytest.raises(SolverError):
            check_solution(instance, MilpSolution(SolveStatus.OPTIMAL, (1.0,), 1.0))
