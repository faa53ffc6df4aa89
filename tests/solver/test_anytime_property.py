"""Property suite for the anytime contract of HiGHS solves (docs/qos.md).

* **gap validity** — a solve stopped by its time limit returns a
  feasible incumbent within the reported relative gap of the returned
  best bound, and the bound really bounds every feasible point from the
  optimization side (checked against the incumbent of a longer solve);
* **ample-budget exactness** — a time limit that never binds changes
  nothing: the result is bit-identical to the unbudgeted solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    solve_with_highs,
)
from repro.solver.model import MILPBuilder


def knapsack(values, weights, capacity, ub=3) -> MILPBuilder:
    builder = MILPBuilder()
    idx = builder.add_variables("x", len(values), lb=0.0, ub=ub)
    builder.add_constraint(idx, np.asarray(weights, dtype=float), ub=capacity)
    builder.set_objective(idx, np.asarray(values, dtype=float), "maximize")
    return builder


def correlated_knapsack(seed: int, n: int = 30, rows: int = 3) -> MILPBuilder:
    """Gain tracks the mean weight to within 0.05: HiGHS needs seconds."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(5, 50, size=(rows, n)).astype(float)
    builder = MILPBuilder()
    idx = builder.add_variables("x", n, lb=0.0, ub=1.0)
    for row in weights:
        builder.add_constraint(idx, row, ub=row.sum() / 2)
    gain = weights.mean(axis=0) + rng.uniform(0.0, 0.05, size=n)
    builder.set_objective(idx, gain, "maximize")
    return builder


values_st = st.lists(
    st.integers(min_value=1, max_value=30), min_size=3, max_size=7
)


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(0, 2**16),
    budget=st.sampled_from([0.01, 0.02, 0.05]),
)
def test_gap_bounds_truncated_incumbent(seed, budget):
    builder = correlated_knapsack(seed)
    result = solve_with_highs(builder, time_limit=budget)
    longer = solve_with_highs(correlated_knapsack(seed), time_limit=0.3)
    assert longer.has_solution

    if result.status == STATUS_OPTIMAL:
        assert result.objective >= longer.objective - 1e-6
        return
    if result.x is None:
        return  # no incumbent: nothing to bound
    assert result.status == STATUS_FEASIBLE
    assert builder.check_feasible(result.x)
    assert result.gap is not None and result.gap >= 0.0
    bound = result.meta["best_bound"]
    # Maximization: the best bound is an upper bound on the optimum,
    # hence on the incumbent and on any other feasible point.
    assert bound >= result.objective - 1e-6
    assert bound >= longer.objective - 1e-6
    # The reported gap IS the relative incumbent-to-bound distance.
    expected = abs(result.objective - bound) / max(1.0, abs(result.objective))
    assert result.gap == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # ... so the incumbent is certified within gap of anything better.
    assert (
        longer.objective - result.objective
        <= result.gap * max(1.0, abs(result.objective)) + 1e-6
    )


@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_ample_budget_bit_identical_to_unbudgeted(data):
    values = data.draw(values_st)
    n = len(values)
    weights = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=10), min_size=n, max_size=n
        )
    )
    capacity = data.draw(st.integers(min_value=1, max_value=40))

    unbudgeted = solve_with_highs(knapsack(values, weights, float(capacity)))
    generous = solve_with_highs(
        knapsack(values, weights, float(capacity)), time_limit=1_000_000.0
    )
    assert unbudgeted.status == STATUS_OPTIMAL
    assert generous.status == STATUS_OPTIMAL
    assert generous.objective == unbudgeted.objective
    assert np.array_equal(generous.x, unbudgeted.x)
    assert generous.gap == unbudgeted.gap
