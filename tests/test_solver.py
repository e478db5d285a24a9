"""Solver unit tests: simplex vertices, branch-and-bound vs brute force,
bit-identity with the per-node reference in reference_solver, warm-started
nodes against cold ones, and the node, pivot and memory limits."""

import math
import tracemalloc

import numpy as np
import pytest
import reference_solver as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from greenloop import solver
from greenloop.cli import main
from greenloop.errors import SolverError
from greenloop.solver import (
    LinearProgram,
    MilpSolution,
    SolveStatus,
    check_solution,
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

    def test_non_finite_objective_raises(self):
        # each cost is finite; the objective at the optimum overflows
        with pytest.raises(SolverError, match="OPTIMAL with a non-finite objective"):
            solve_lp(lp([1e308, 1e308], lower=[1.0, 1.0]))

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
    def test_non_finite_relaxation_raises(self):
        # not pruned as if no point were feasible
        instance = lp([1e308, 1e308], rows=[([1.0, 1.0], 4.0)], lower=[1.0, 1.0],
                      upper=[2.0, 2.0], integer=[True, True])
        with pytest.raises(SolverError, match="non-finite objective"):
            solve_milp(instance)

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
    expected_obj, _ = reference.enumerate_integer_optimum(instance)
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

    def test_bound_violations_in_variable_order(self):
        instance = lp([0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0], integer=[True, True, False])
        fake = MilpSolution(SolveStatus.OPTIMAL, (-0.25, 1.75, 1.5), 0.0)
        assert [str(v) for v in check_solution(instance, fake)] == [
            "lower[0] violated by 0.25", "integrality[0] violated by 0.25",
            "upper[1] violated by 0.75", "integrality[1] violated by 0.25",
            "upper[2] violated by 0.5",
        ]

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

    @pytest.mark.parametrize(
        "values",
        [(math.nan, math.nan), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)],
        ids=["nan-continuous", "nan-integer", "inf-continuous", "minus-inf-integer"],
    )
    def test_nonfinite_values_reported(self, values):
        instance = lp([0.0, 0.0], rows=[([1.0, 1.0], 1.0)], upper=[1.0, 1.0],
                      integer=[False, True])
        violations = check_solution(instance, MilpSolution(SolveStatus.OPTIMAL, values, 0.0))
        nonfinite = [v for v in violations if v.kind == "nonfinite"]
        bad = [j for j, x in enumerate(values) if not math.isfinite(x)]
        assert [v.index for v in nonfinite] == bad
        assert [repr(v.residual) for v in nonfinite] == [repr(values[j]) for j in bad]
        assert not [v for v in violations if v.kind in ("lower", "upper", "integrality")]


def cold_solve_milp(instance):
    """solve_milp with every node solved from the slack basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "WARM_START_BYTES", 0)
        return solve_milp(instance)


def same_as_reference(instance):
    """solve_lp, and solve_milp with every node cold, return what the
    per-node reference returns, down to the float bits, the node count and
    the pivot count."""
    assert repr(solve_lp(instance)) == repr(reference.solve_lp(instance))
    assert repr(cold_solve_milp(instance)) == repr(reference.solve_milp(instance))


HALVES = st.integers(-8, 8).map(lambda k: k / 2)


@st.composite
def boxed_instances(draw):
    """1-6 integer or continuous variables with lower bounds of 0-2, finite
    or infinite upper bounds on the continuous ones, and up to 5 rows whose
    right-hand sides are often negative."""
    n = draw(st.integers(1, 6))
    integer = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lower = draw(st.lists(st.integers(0, 2).map(float), min_size=n, max_size=n))
    width = st.integers(0, 4).map(float)
    upper = [
        lo + draw(width if is_int else st.one_of(width, st.just(math.inf)))
        for lo, is_int in zip(lower, integer)
    ]
    row = st.tuples(
        st.lists(HALVES, min_size=n, max_size=n), st.integers(-6, 12).map(float)
    )
    rows = draw(st.lists(row, max_size=5))
    objective = draw(st.lists(HALVES, min_size=n, max_size=n))
    return lp(objective, rows=rows, lower=lower, upper=upper, integer=integer)


@st.composite
def covering_instances(draw):
    """min c.x with c > 0 over >= rows written as -a.x <= -b: every row has
    a negative right-hand side, so each starts with an artificial variable
    in the basis and phase 1 runs at every node."""
    n = draw(st.integers(2, 6))
    coeff = st.integers(0, 4).map(float)
    rows = [
        ([-v for v in draw(st.lists(coeff, min_size=n, max_size=n))],
         -float(draw(st.integers(1, 8))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    objective = draw(st.lists(st.integers(1, 6).map(float), min_size=n, max_size=n))
    upper = draw(st.lists(st.integers(1, 4).map(float), min_size=n, max_size=n))
    integer = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return lp(objective, rows=rows, upper=upper, integer=integer)


@st.composite
def alloc_knapsacks(draw):
    """Integer knapsacks shaped like perfbench's alloc-milp scenarios: 12-20
    processes with costs of -10 to -1, 4-6 limits that each consume about
    half of them (every process at least once), availability 10-20% of a
    limit's full consumption, and each process bounded by its tightest
    limit, as scenario.integer_upper_bounds does. Values have 3 decimals."""
    n = draw(st.integers(12, 20))
    m = draw(st.integers(4, 6))
    milli = st.integers(500, 5000).map(lambda k: k / 1000)
    rows = [
        [draw(milli) if used else 0.0
         for used in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
        for _ in range(m)
    ]
    for j in range(n):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, m - 1))][j] = draw(milli)
    share = st.integers(100, 200).map(lambda k: k / 1000)
    rhs = [round(sum(row) * draw(share), 3) for row in rows]
    upper = [min(b / row[j] for row, b in zip(rows, rhs) if row[j] > 0) for j in range(n)]
    objective = [-k / 1000 for k in draw(st.lists(st.integers(1000, 10000),
                                                  min_size=n, max_size=n))]
    return lp(objective, rows=list(zip(rows, rhs)), upper=upper, integer=[True] * n)


class TestReferenceEquivalence:
    """The kernel that builds each MILP's standard form once takes the same
    pivots and returns the same bits as rebuilding every node's tableau,
    when no node is warm-started."""

    @settings(deadline=None, max_examples=150)
    @given(instance=boxed_instances())
    def test_boxed_instances(self, instance):
        same_as_reference(instance)

    @settings(deadline=None, max_examples=60)
    @given(instance=degenerate_instances())
    def test_degenerate_instances(self, instance):
        same_as_reference(instance)

    @settings(deadline=None, max_examples=60)
    @given(instance=covering_instances())
    def test_negative_rhs_instances(self, instance):
        same_as_reference(instance)

    @settings(deadline=None, max_examples=20)
    @given(instance=alloc_knapsacks())
    def test_alloc_shaped_knapsacks(self, instance):
        same_as_reference(instance)


# 15 nodes to optimality, in 23 pivots with warm-started children and 50
# with every node cold; the first incumbent, (1, 0, 0, 1), is found at node 12.
LIMIT_KNAPSACK = lp(
    [-5.0, -4.0, -3.0, -7.0],
    rows=[([2.0, 3.0, 1.0, 4.0], 6.5), ([3.0, 1.0, 2.0, 2.0], 5.5)],
    upper=[2.0] * 4,
    integer=[True] * 4,
)


@pytest.fixture
def pivot_count(monkeypatch):
    """Counts every pivot the solver makes, phase 1, drive-out and phase 2."""
    calls = []
    pivot = solver._pivot

    def counting_pivot(t, row, col):
        calls.append((row, col))
        pivot(t, row, col)

    monkeypatch.setattr(solver, "_pivot", counting_pivot)
    return calls


class TestLimits:
    def test_full_solve_counts(self, pivot_count):
        sol = solve_milp(LIMIT_KNAPSACK)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == (1.0, 0.0, 0.0, 1.0)
        assert (sol.nodes_explored, sol.iterations) == (15, 23) == (15, len(pivot_count))

    @pytest.mark.parametrize("limit", [1, 11, 12, 14])
    def test_node_limit_returns_incumbent(self, monkeypatch, pivot_count, limit):
        monkeypatch.setattr(solver, "MAX_NODES", limit)
        monkeypatch.setattr(reference, "MAX_NODES", limit)
        sol = solve_milp(LIMIT_KNAPSACK)
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert sol.nodes_explored == limit
        assert sol.iterations == len(pivot_count)
        # with every node cold, the pivots are the per-node reference's
        monkeypatch.setattr(solver, "WARM_START_BYTES", 0)
        cold = solve_milp(LIMIT_KNAPSACK)
        assert (cold.status, cold.values, cold.nodes_explored) == (
            sol.status, sol.values, sol.nodes_explored
        )
        ref = reference.solve_milp(LIMIT_KNAPSACK)
        if limit >= 12:
            assert sol.values == (1.0, 0.0, 0.0, 1.0)
            assert sol.objective_value == -12.0
            assert check_solution(LIMIT_KNAPSACK, sol) == []
            assert repr(cold) == repr(ref)
        else:
            # no incumbent yet: no objective value, as on every other exit
            # without a solution (the reference reports inf here)
            assert sol.values == ()
            assert math.isnan(sol.objective_value)
            assert (cold.status, cold.values, cold.nodes_explored, cold.iterations) == (
                ref.status, ref.values, ref.nodes_explored, ref.iterations
            )

    @pytest.mark.parametrize("limit", [1, 3])
    def test_iteration_limit_ends_the_solve(self, monkeypatch, pivot_count, limit):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", limit)
        monkeypatch.setattr(reference, "MAX_ITERATIONS", limit)
        relaxed = solve_lp(LIMIT_KNAPSACK)
        assert relaxed.status is SolveStatus.ITERATION_LIMIT
        assert (relaxed.values, relaxed.iterations) == ((), limit)
        sol = solve_milp(LIMIT_KNAPSACK)
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert (sol.values, sol.nodes_explored, sol.iterations) == ((), 1, limit)
        assert len(pivot_count) == 2 * limit
        assert repr(sol) == repr(reference.solve_milp(LIMIT_KNAPSACK))

    def test_iteration_limit_in_phase1(self, monkeypatch, pivot_count):
        # x1 + x2 >= 3 and x1 - x2 >= 1 as <= rows: each starts with an
        # artificial variable, and phase 1 takes two pivots.
        instance = lp([1.0, 1.0], rows=[([-1.0, -1.0], -3.0), ([-1.0, 1.0], -1.0)])
        assert solve_lp(instance).iterations == 2
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        sol = solve_lp(instance)
        assert (sol.status, sol.values, sol.iterations) == (SolveStatus.ITERATION_LIMIT, (), 1)
        assert len(pivot_count) == 3

    @pytest.mark.parametrize("limit", ["MAX_NODES", "MAX_ITERATIONS"])
    def test_run_on_a_limited_solve_exits_5(self, tmp_path, monkeypatch, capsys, limit):
        # alloc_small takes 3 nodes and 4 pivots to optimality (5 all cold).
        monkeypatch.setattr(solver, limit, 1)
        out = tmp_path / "out"
        assert main(["run", "--scenario", "alloc_small.json", "--mode", "framework",
                     "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "allocation solve ended ITERATION_LIMIT" in err
        assert not out.exists()


# The root's slack basis is feasible, so its tableau has the template's
# width, with no artificial column, and phase 1 takes no pivot. The
# up-branch y >= 4 shifts the first row's bound to -7.5: that node runs
# phase 1 and then phase 2 in a wider tableau.
TEMPLATE_THEN_PHASE1 = lp(
    [-2.0, -2.0],
    rows=[([-2.0, 3.0], 4.5), ([1.0, 1.0], 8.5)],
    upper=[5.0, 5.0],
    integer=[True, True],
)


class TestSlackTemplate:
    def test_template_never_pivoted_in_place(self):
        form = solver._standard_form(LIMIT_KNAPSACK)
        template = form.slack_tab.tobytes()
        boxes = [
            ((0.0,) * 4, (2.0,) * 4),  # the root: slack basis feasible
            ((0.0,) * 4, (1.0, 2.0, 2.0, 2.0)),
            ((2.0, 0.0, 0.0, 1.0), (2.0,) * 4),  # row 0's bound shifts to -1.5
            ((1.0, 0.0, 0.0, 0.0), (2.0,) * 4),
        ]
        first = solver._solve(form, *boxes[0])
        assert first.iterations > 0
        for lower, upper in boxes[1:]:
            solver._solve(form, lower, upper)
        assert repr(solver._solve(form, *boxes[0])) == repr(first)
        assert form.slack_tab.tobytes() == template

    def test_template_root_and_phase1_branch_match_reference(self, monkeypatch):
        monkeypatch.setattr(solver, "WARM_START_BYTES", 0)
        starts = []
        simplex = solver._simplex

        def recording_simplex(t, max_iters):
            starts.append((t.tab.shape[1], t.eligible))
            return simplex(t, max_iters)

        monkeypatch.setattr(solver, "_simplex", recording_simplex)
        sol = solve_milp(TEMPLATE_THEN_PHASE1)
        width = solver._standard_form(TEMPLATE_THEN_PHASE1).slack_tab.shape[1]
        # the root runs both phases on the template's width; a wider
        # tableau (artificial columns) later reaches phase 2 as well
        assert starts[0] == (width, width - 1)
        assert any(w > width and e == width - 1 for w, e in starts)
        assert repr(sol) == repr(reference.solve_milp(TEMPLATE_THEN_PHASE1))


def warm_matches_cold(instance):
    """Warm-started children reach what cold ones reach: the same status and
    optimum, and a feasible incumbent. Values may differ where optima tie."""
    warm = solve_milp(instance)
    cold = cold_solve_milp(instance)
    assert warm.status is cold.status
    if cold.status is SolveStatus.OPTIMAL:
        tol = 1e-9 * max(1.0, abs(cold.objective_value))
        assert abs(warm.objective_value - cold.objective_value) <= tol
        assert check_solution(instance, warm) == []


# min -sum(x) over 21 binaries with 2 sum(x) <= 21: every relaxation ties at
# -10.5, so best-first search keeps a wide front of pending nodes, and the
# first incumbent, -10, comes only at node 2,048.
BINARY_KNAPSACK = lp([-1.0] * 21, rows=[([2.0] * 21, 21.0)], upper=[1.0] * 21,
                     integer=[True] * 21)


class TestWarmStart:
    """Children started from their parent's tableau by the dual simplex,
    against every node solved from the slack basis."""

    @settings(deadline=None, max_examples=80)
    @given(instance=boxed_instances())
    def test_boxed_instances(self, instance):
        warm_matches_cold(instance)

    @settings(deadline=None, max_examples=60)
    @given(instance=degenerate_instances())
    def test_degenerate_instances(self, instance):
        warm_matches_cold(instance)

    @settings(deadline=None, max_examples=60)
    @given(instance=covering_instances())
    def test_negative_rhs_instances(self, instance):
        """Each root runs phase 1, so its children start from a tableau whose
        artificial columns were dropped."""
        warm_matches_cold(instance)

    @settings(deadline=None, max_examples=15)
    @given(instance=alloc_knapsacks())
    def test_alloc_shaped_knapsacks(self, instance):
        warm_matches_cold(instance)

    def test_every_child_starts_warm(self, monkeypatch):
        starts = []
        cold_start, warm_start = solver._cold_start, solver._warm_start

        def counting_cold(*args):
            starts.append("cold")
            return cold_start(*args)

        def counting_warm(*args):
            starts.append("warm")
            return warm_start(*args)

        monkeypatch.setattr(solver, "_cold_start", counting_cold)
        monkeypatch.setattr(solver, "_warm_start", counting_warm)
        sol = solve_milp(LIMIT_KNAPSACK)
        assert sol.nodes_explored == 15
        assert starts == ["cold"] + ["warm"] * 14

    def test_held_tableaus_stay_within_the_budget(self, monkeypatch):
        budget = 64 << 10  # 8 of the knapsack's 8 KB tableaus
        monkeypatch.setattr(solver, "MAX_NODES", 800)
        cold_starts = [0]
        cold_start = solver._cold_start

        def counting_cold(*args):
            cold_starts[0] += 1
            return cold_start(*args)

        def traced_solve(held):
            monkeypatch.setattr(solver, "WARM_START_BYTES", held)
            tracemalloc.start()
            try:
                return solve_milp(BINARY_KNAPSACK), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cold, cold_peak = traced_solve(0)
        monkeypatch.setattr(solver, "_cold_start", counting_cold)
        warm, warm_peak = traced_solve(budget)
        assert warm.status is cold.status is SolveStatus.ITERATION_LIMIT
        # no incumbent on either side before node 2,048
        assert warm.values == cold.values == ()
        assert math.isnan(warm.objective_value) and math.isnan(cold.objective_value)
        assert warm_peak <= cold_peak + budget
        # the budget binds: past it, children start from the slack basis
        assert cold_starts[0] > 1
