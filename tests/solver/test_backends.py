"""The HiGHS solver against the branch-and-bound oracle.

The oracle (``branch_bound_oracle.py``) is differential-tested against
HiGHS on randomized knapsack-style instances — they must agree on
optimal objective values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branch_bound_oracle import solve_with_branch_bound
from repro.solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_with_highs
from repro.solver.model import MILPBuilder


def knapsack(values, weights, capacity, ub=3):
    builder = MILPBuilder()
    n = len(values)
    idx = builder.add_variables("x", n, lb=0.0, ub=ub)
    builder.add_constraint(idx, np.asarray(weights, dtype=float), ub=capacity)
    builder.set_objective(idx, np.asarray(values, dtype=float), "maximize")
    return builder


@pytest.mark.parametrize("solve", [solve_with_highs, solve_with_branch_bound])
def test_simple_knapsack_optimal(solve):
    builder = knapsack([6.0, 10.0, 12.0], [1.0, 2.0, 3.0], 5.0, ub=1)
    result = solve(builder)
    assert result.status == STATUS_OPTIMAL
    assert result.objective == pytest.approx(22.0)
    assert builder.check_feasible(result.x)


@pytest.mark.parametrize("solve", [solve_with_highs, solve_with_branch_bound])
def test_infeasible_detected(solve):
    builder = MILPBuilder()
    i = builder.add_variable("x", 0, 5)
    builder.add_constraint([i], [1.0], lb=10.0)
    assert solve(builder).status == STATUS_INFEASIBLE


@pytest.mark.parametrize("solve", [solve_with_highs, solve_with_branch_bound])
def test_equality_constraints(solve):
    builder = MILPBuilder()
    idx = builder.add_variables("x", 2, lb=0.0, ub=10.0)
    builder.add_constraint(idx, [1.0, 1.0], lb=4.0, ub=4.0)
    builder.set_objective(idx, [1.0, 2.0], "minimize")
    result = solve(builder)
    assert result.status == STATUS_OPTIMAL
    assert result.objective == pytest.approx(4.0)  # all weight on x0


@pytest.mark.parametrize("solve", [solve_with_highs, solve_with_branch_bound])
def test_minimization_with_negative_coefficients(solve):
    builder = MILPBuilder()
    idx = builder.add_variables("x", 2, lb=0.0, ub=2.0)
    builder.set_objective(idx, [-1.0, -2.0], "minimize")
    result = solve(builder)
    assert result.objective == pytest.approx(-6.0)


def test_integrality_enforced_where_lp_is_fractional():
    # LP optimum is x = 2.5; the MILP must round down to 2.
    builder = MILPBuilder()
    i = builder.add_variable("x", 0, 10, integer=True)
    builder.add_constraint([i], [2.0], ub=5.0)
    builder.set_objective([i], [1.0], "maximize")
    for solve in (solve_with_highs, solve_with_branch_bound):
        result = solve(builder)
        assert result.x[i] == pytest.approx(2.0)


def test_indicator_constraint_through_solver():
    """y is forced to 0 when the implied constraint cannot hold."""
    builder = MILPBuilder()
    x = builder.add_variable("x", 0, 3)
    y = builder.add_variable("y", 0, 1)
    builder.add_indicator(y, [x], [1.0], ">=", 2.0)
    builder.add_constraint([x], [1.0], ub=1.0)  # x <= 1 < 2
    builder.set_objective([y], [1.0], "maximize")
    result = solve_with_highs(builder)
    assert result.objective == pytest.approx(0.0)


def test_builder_solve_dispatch():
    """``MILPBuilder.solve`` is HiGHS; there is no backend to choose."""
    builder = knapsack([6.0, 10.0, 12.0], [1.0, 2.0, 3.0], 5.0, ub=1)
    result = builder.solve()
    assert result.status == STATUS_OPTIMAL
    np.testing.assert_array_equal(result.x, solve_with_highs(builder).x)
    with pytest.raises(TypeError):
        builder.solve(backend="highs")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    data=st.data(),
)
def test_branch_bound_agrees_with_highs(n, data):
    """Differential test on random bounded knapsacks with a side
    constraint: both backends must find the same optimal value."""
    values = [data.draw(st.integers(-5, 10)) for _ in range(n)]
    weights = [data.draw(st.integers(1, 6)) for _ in range(n)]
    capacity = data.draw(st.integers(3, 15))
    builder_a = knapsack(values, weights, float(capacity), ub=2)
    builder_b = knapsack(values, weights, float(capacity), ub=2)
    result_highs = solve_with_highs(builder_a)
    result_bb = solve_with_branch_bound(builder_b)
    assert result_highs.status == STATUS_OPTIMAL
    assert result_bb.status == STATUS_OPTIMAL
    assert result_bb.objective == pytest.approx(result_highs.objective, abs=1e-6)
    assert builder_a.check_feasible(result_bb.x)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    data=st.data(),
)
def test_warm_started_backends_agree(n, data):
    """Warm-started differential test: seeding either backend with a
    feasible (possibly suboptimal) hint must not change the optimal
    objective value, and both backends must still agree."""
    values = [data.draw(st.integers(-5, 10)) for _ in range(n)]
    weights = [data.draw(st.integers(1, 6)) for _ in range(n)]
    capacity = data.draw(st.integers(3, 15))
    cold = knapsack(values, weights, float(capacity), ub=2)
    reference = solve_with_highs(cold)
    assert reference.status == STATUS_OPTIMAL

    # Hints of varying quality: empty package, one greedy item, optimum.
    hints = [np.zeros(n)]
    cheapest = int(np.argmin(weights))
    if weights[cheapest] <= capacity:
        one_item = np.zeros(n)
        one_item[cheapest] = 1.0
        hints.append(one_item)
    hints.append(reference.x)
    for hint in hints:
        for solve in (solve_with_highs, solve_with_branch_bound):
            builder = knapsack(values, weights, float(capacity), ub=2)
            builder.set_warm_start(hint)
            result = solve(builder)
            assert result.status == STATUS_OPTIMAL
            assert result.objective == pytest.approx(
                reference.objective, abs=1e-6
            )
            assert builder.check_feasible(result.x)
