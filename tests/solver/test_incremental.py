"""Incremental MILPBuilder API: clones, CSR cache, warm starts.

The invariant under test throughout: a model assembled incrementally
(retain base → clone → append rows) materializes to exactly the same
arrays as the same model built from scratch.
"""

import numpy as np
import pytest

from branch_bound_oracle import solve_with_branch_bound
from exact.harness import assert_same_arrays
from repro.errors import SolverError
from repro.solver import STATUS_FEASIBLE, STATUS_OPTIMAL, solve_with_highs
from repro.solver.model import MILPBuilder


def base_model():
    """Small knapsack base: 4 bounded integers, one capacity row."""
    builder = MILPBuilder()
    idx = builder.add_variables("x", 4, lb=0.0, ub=3.0)
    builder.add_constraint(idx, [2.0, 1.0, 3.0, 1.5], ub=8.0)
    builder.set_objective(idx, [3.0, 1.0, 4.0, 2.0], "maximize")
    return builder, idx


def append_indicators(builder, idx):
    """The per-iteration block: two indicator rows plus a cardinality."""
    y = builder.add_variables("y", 2, lb=0.0, ub=1.0)
    builder.add_indicator(int(y[0]), idx, [1.0, 1.0, 1.0, 1.0], ">=", 2.0)
    builder.add_indicator(int(y[1]), idx, [1.0, -1.0, 1.0, -1.0], "<=", 1.0)
    builder.add_constraint(y, [1.0, 1.0], lb=1.0)
    return y


def test_clone_is_independent_and_equal():
    builder, idx = base_model()
    builder.to_arrays()
    clone = builder.clone()
    append_indicators(clone, idx)
    # The original is untouched by the clone's appends.
    assert builder.n_variables == 4
    assert builder.n_constraints == 1
    scratch, scratch_idx = base_model()
    append_indicators(scratch, scratch_idx)
    assert_same_arrays(clone.to_arrays(), scratch.to_arrays())
    # Two clones of one template do not interfere.
    a, b = builder.clone(), builder.clone()
    append_indicators(a, idx)
    assert b.n_constraints == 1
    assert_same_arrays(b.to_arrays(), builder.to_arrays())


def test_csr_cache_survives_variable_growth():
    builder, idx = base_model()
    first = builder.to_arrays()
    assert first[1].shape == (1, 4)
    builder.add_variables("y", 2, lb=0.0, ub=1.0)
    second = builder.to_arrays()
    # The cached row widened to the new variable count.
    assert second[1].shape == (1, 6)
    np.testing.assert_array_equal(second[1].toarray()[:, :4], first[1].toarray())


def test_warm_start_validation():
    builder, idx = base_model()
    with pytest.raises(SolverError):
        builder.set_warm_start([1.0, 2.0])  # wrong length
    builder.set_warm_start([1.0, 1.0, 0.0, 0.0])
    assert builder.validated_warm_start() is not None
    builder.set_warm_start([3.0, 3.0, 3.0, 3.0])  # violates capacity
    assert builder.validated_warm_start() is None
    builder.set_warm_start(None)
    assert builder.validated_warm_start() is None


def test_warm_start_not_cloned():
    builder, idx = base_model()
    builder.set_warm_start([1.0, 1.0, 0.0, 0.0])
    clone = builder.clone()
    assert clone.validated_warm_start() is None
    assert builder.validated_warm_start() is not None


@pytest.mark.parametrize("solve", [solve_with_highs, solve_with_branch_bound])
def test_warm_started_solve_matches_cold(solve):
    cold, idx = base_model()
    cold_result = solve(cold)
    assert cold_result.status == STATUS_OPTIMAL

    warm, idx = base_model()
    warm.set_warm_start(cold_result.x)
    warm_result = solve(warm)
    assert warm_result.status in (STATUS_OPTIMAL, STATUS_FEASIBLE)
    assert warm_result.objective == pytest.approx(cold_result.objective)


def test_branch_bound_warm_start_prunes_nodes():
    builder, idx = base_model()
    cold = solve_with_branch_bound(builder)
    warm_builder, _ = base_model()
    warm_builder.set_warm_start(cold.x)
    warm = solve_with_branch_bound(warm_builder)
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.n_nodes <= cold.n_nodes


def test_highs_returns_warm_incumbent_on_hopeless_time_limit():
    """With an (effectively) zero time limit HiGHS finds nothing; the
    feasible warm-start hint must be returned as the incumbent."""
    builder = MILPBuilder()
    idx = builder.add_variables("x", 60, lb=0.0, ub=1.0)
    rng = np.random.default_rng(7)
    weights = rng.uniform(1.0, 5.0, size=60)
    values = rng.uniform(1.0, 5.0, size=60)
    builder.add_constraint(idx, weights, ub=float(weights.sum() / 3))
    builder.set_objective(idx, values, "maximize")
    hint = np.zeros(60)
    hint[int(np.argmin(weights))] = 1.0
    builder.set_warm_start(hint)
    result = solve_with_highs(builder, time_limit=1e-9)
    if result.status == STATUS_OPTIMAL:  # pragma: no cover - machine-speed dependent
        pytest.skip("solver finished within the epsilon time limit")
    assert result.status == STATUS_FEASIBLE
    assert result.x is not None
    assert result.objective >= builder.objective_value(hint) - 1e-9
