"""Exactness of the root-LP reduction (``repro.solver.reduce``).

Every model is solved three ways — HiGHS behind the reduction, HiGHS on
the full model, and the never-reduced branch-and-bound oracle
(``branch_bound_oracle.py``) — and the three must agree on status and
on the objective within ``mip_gap``.  The size floor and the probe
minimum are lowered for the test so that models small enough for the
oracle still reach every verdict.
"""

from __future__ import annotations

import collections
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.solver.reduce as reduce_module
from branch_bound_oracle import solve_with_branch_bound
from repro.solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_with_highs
from repro.solver.model import MILPBuilder

MIP_GAP = 1e-6


@contextmanager
def size_floor(columns: int, probe_min: int = 2):
    """Temporarily move the reduction's size floor (and probe minimum)."""
    saved = reduce_module.MIN_COLUMNS, reduce_module._PROBE_MIN
    reduce_module.MIN_COLUMNS, reduce_module._PROBE_MIN = columns, probe_min
    try:
        yield
    finally:
        reduce_module.MIN_COLUMNS, reduce_module._PROBE_MIN = saved


def solve_reduced(builder, **kwargs):
    with size_floor(0):
        return solve_with_highs(builder, mip_gap=MIP_GAP, **kwargs)


def solve_unreduced(builder, **kwargs):
    with size_floor(10**9):
        result = solve_with_highs(builder, mip_gap=MIP_GAP, **kwargs)
    assert "reduction" not in result.meta
    return result


# --- model families --------------------------------------------------------------


def cardinality_model(rng, n, sense):
    """Binary columns, a COUNT range and a weight cap (galaxy-shaped)."""
    builder = MILPBuilder()
    idx = builder.add_variables("x", n, lb=0.0, ub=1.0)
    lo = int(rng.integers(0, max(1, n // 3)))
    builder.add_constraint(idx, np.ones(n), lb=lo, ub=lo + int(rng.integers(0, 4)))
    weights = rng.integers(1, 9, size=n).astype(float)
    # Occasionally too tight for the COUNT floor: the infeasible verdict.
    builder.add_constraint(idx, weights, ub=float(rng.integers(1, n)))
    builder.set_objective(idx, rng.integers(1, 60, size=n) / 4.0, sense)
    return builder


def knapsack_model(rng, n, sense):
    """General-integer columns with a ranged weight row."""
    builder = MILPBuilder()
    idx = builder.add_variables("x", n, lb=0.0, ub=float(rng.integers(1, 4)))
    weights = rng.integers(1, 12, size=n).astype(float)
    hi = float(rng.integers(5, 6 * n))
    builder.add_constraint(idx, weights, lb=max(0.0, hi - rng.integers(3, 30)), ub=hi)
    values = rng.integers(-10, 50, size=n).astype(float)
    values[values == 0] = 1.0
    builder.set_objective(idx, values, sense)
    return builder


def indicator_model(rng, n, sense):
    """CSA-shaped: x columns, big-M indicator rows, a cardinality row on y."""
    builder = MILPBuilder()
    n_y = int(rng.integers(1, 4))
    idx = builder.add_variables("x", n - n_y, lb=0.0, ub=1.0)
    builder.add_constraint(idx, np.ones(idx.size), lb=1, ub=int(rng.integers(2, 6)))
    y = builder.add_variables("y", n_y, lb=0.0, ub=1.0)
    for z in range(n_y):
        coefficients = rng.integers(-8, 9, size=idx.size).astype(float)
        op = ">=" if rng.integers(2) else "<="
        builder.add_indicator(int(y[z]), idx, coefficients, op, float(rng.integers(-4, 5)))
    builder.add_constraint(y, np.ones(n_y), lb=int(rng.integers(1, n_y + 1)))
    builder.set_objective(idx, rng.integers(1, 80, size=idx.size) / 8.0, sense)
    return builder


FAMILIES = (cardinality_model, knapsack_model, indicator_model)


def feasible_hint(builder, rng):
    """A feasible, usually suboptimal point: the optimum of another objective."""
    other = builder.clone()
    n = other.n_variables
    other.set_objective(np.arange(n), rng.integers(-9, 10, size=n).astype(float))
    with size_floor(10**9):
        result = solve_with_highs(other)
    return result.x


def minimized(builder, value: float) -> float:
    return -value if builder.sense == "maximize" else value


def assert_agree(builder, reduced, unreduced, oracle):
    assert reduced.status == unreduced.status == oracle.status
    if reduced.status != STATUS_OPTIMAL:
        assert reduced.status == STATUS_INFEASIBLE
        return
    assert builder.check_feasible(reduced.x)
    tolerance = 2 * MIP_GAP * max(1.0, abs(unreduced.objective))
    assert reduced.objective == pytest.approx(unreduced.objective, abs=tolerance)
    assert reduced.objective == pytest.approx(oracle.objective, abs=tolerance)
    assert reduced.gap is not None and reduced.gap <= 2 * MIP_GAP


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(FAMILIES),
    n=st.integers(8, 26),
    sense=st.sampled_from(["minimize", "maximize"]),
    with_hint=st.booleans(),
)
def test_three_solvers_agree(seed, family, n, sense, with_hint):
    rng = np.random.default_rng(seed)
    builder = family(rng, n, sense)
    unreduced = solve_unreduced(builder)
    oracle = solve_with_branch_bound(builder, mip_gap=MIP_GAP)
    hint = None
    if with_hint and unreduced.status == STATUS_OPTIMAL:
        hint = feasible_hint(builder, rng)
        builder.set_warm_start(hint)
    reduced = solve_reduced(builder)
    assert "reduction" in reduced.meta
    assert_agree(builder, reduced, unreduced, oracle)
    if hint is not None:
        # The _better_of contract: the hint never beats what is returned.
        assert minimized(builder, reduced.objective) <= minimized(
            builder, builder.objective_value(hint)
        ) + 1e-9


def test_every_verdict_is_reached_and_exact():
    """The families above must not all fall back: count the verdicts."""
    rng = np.random.default_rng(20200614)
    verdicts = collections.Counter()
    for trial in range(150):
        family = FAMILIES[trial % len(FAMILIES)]
        builder = family(rng, int(rng.integers(12, 27)), ("minimize", "maximize")[trial % 2])
        unreduced = solve_unreduced(builder)
        if trial % 5 == 0 and unreduced.status == STATUS_OPTIMAL:
            builder.set_warm_start(feasible_hint(builder, rng))
        reduced = solve_reduced(builder)
        record = reduced.meta["reduction"]
        verdicts[record["verdict"]] += 1
        assert record["cols"] == builder.n_variables
        assert 0 <= record["free"] <= record["cols"]
        assert reduced.status == unreduced.status
        if reduced.status == STATUS_OPTIMAL:
            assert reduced.objective == pytest.approx(
                unreduced.objective, abs=2 * MIP_GAP * max(1.0, abs(unreduced.objective))
            )
    assert verdicts["reduced"] >= 20
    assert verdicts["lp_integral"] >= 5
    assert verdicts["lp_infeasible"] >= 3
    assert verdicts["full"] >= 5


def test_lp_infeasible_means_unreduced_infeasible():
    builder = MILPBuilder()
    idx = builder.add_variables("x", 12, lb=0.0, ub=1.0)
    builder.add_constraint(idx, np.ones(12), lb=5)
    builder.add_constraint(idx, np.full(12, 2.0), ub=7.0)  # at most 3 tuples
    builder.set_objective(idx, np.arange(1.0, 13.0))
    reduced = solve_reduced(builder)
    assert reduced.status == STATUS_INFEASIBLE
    assert reduced.meta["reduction"]["verdict"] == "lp_infeasible"
    assert solve_unreduced(builder).status == STATUS_INFEASIBLE
    assert solve_with_branch_bound(builder).status == STATUS_INFEASIBLE


def test_non_integer_bounds_on_integer_columns_are_tightened():
    # ub = 2.5 on an integer column: the preferred bound must be 2.
    builder = MILPBuilder()
    idx = builder.add_variables("x", 10, lb=0.0, ub=2.5)
    builder.add_constraint(idx, np.arange(1.0, 11.0), ub=17.5)
    builder.set_objective(idx, np.arange(10.0, 0.0, -1.0) + 0.5, "maximize")
    reduced, unreduced = solve_reduced(builder), solve_unreduced(builder)
    assert reduced.status == unreduced.status == STATUS_OPTIMAL
    assert builder.check_feasible(reduced.x)
    assert reduced.objective == pytest.approx(unreduced.objective)


def test_models_the_reduction_must_leave_alone():
    rng = np.random.default_rng(3)
    # Below the (real) size floor.
    small = cardinality_model(rng, 40, "minimize")
    assert "reduction" not in solve_with_highs(small).meta
    with size_floor(0):
        # A continuous column.
        mixed = cardinality_model(rng, 20, "minimize")
        mixed.add_variable("slack", 0.0, 1.0, integer=False)
        assert "reduction" not in solve_with_highs(mixed).meta
        # Objective on fewer than half of the columns.
        sparse_objective = cardinality_model(rng, 20, "minimize")
        sparse_objective.set_objective([0, 1, 2], [1.0, 2.0, 3.0])
        assert "reduction" not in solve_with_highs(sparse_objective).meta
