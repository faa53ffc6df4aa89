"""Incremental evaluation layer: base-model reuse and warm starts must
be pure optimizations — formulations and results identical to cold mode.

Cold mode is made here, on the test side: a cold context builds its base
model from scratch on every call (``base_milp = build_base_milp``) and
the formulations install no warm start (``cold_models``, the incremental
row of ``tests/exact/harness.py``).
"""

import numpy as np
import pytest

from exact.harness import assert_same_arrays, check
from repro.core.context import EvaluationContext
from repro.core.csa import formulate_csa
from repro.core.saa import formulate_saa
from repro.core.summaries import SummaryBuilder
from repro.core.warmstart import apply_warm_start, indicator_values


def cold_context(problem, config):
    """A context that rebuilds its base model on every formulation."""
    ctx = EvaluationContext(problem, config)
    ctx.base_milp = ctx.build_base_milp
    return ctx


def test_incremental_saa_formulation_equals_cold(chance_problem, fast_config):
    cold_ctx = cold_context(chance_problem, fast_config)
    inc_ctx = EvaluationContext(chance_problem, fast_config)
    for n_scenarios in (5, 9, 9):
        cold = formulate_saa(cold_ctx, n_scenarios)
        incremental = formulate_saa(inc_ctx, n_scenarios)
        assert_same_arrays(
            incremental.builder.to_arrays(), cold.builder.to_arrays()
        )


def test_incremental_csa_formulation_equals_cold(chance_problem, fast_config):
    cold_ctx = cold_context(chance_problem, fast_config)
    inc_ctx = EvaluationContext(chance_problem, fast_config)
    n_scenarios, n_summaries = 12, 3
    item = inc_ctx.chance_items()[0]
    x_prev = np.zeros(chance_problem.n_vars, dtype=np.int64)
    x_prev[:2] = 1
    for alpha in (0.25, 0.5, 1.0):
        summaries = {
            item["index"]: SummaryBuilder(inc_ctx, n_scenarios, n_summaries).build(
                item, alpha, x_prev
            )
        }
        cold = formulate_csa(cold_ctx, summaries, n_scenarios)
        incremental = formulate_csa(
            inc_ctx, summaries, n_scenarios, warm_x=x_prev
        )
        assert_same_arrays(
            incremental.builder.to_arrays(), cold.builder.to_arrays()
        )


def test_successive_formulations_are_independent(chance_context):
    """Two live formulations from one incremental context must not share
    mutable state (the second must not clobber the first)."""
    small = formulate_saa(chance_context, 5)
    large = formulate_saa(chance_context, 15)
    assert small.builder is not large.builder
    assert small.builder.n_variables == chance_context.problem.n_vars + 5
    assert large.builder.n_variables == chance_context.problem.n_vars + 15


def test_warm_start_indicator_derivation():
    columns = np.array([[1.0, -1.0], [2.0, 0.5]])  # 2 vars x 2 indicators
    x = np.array([1.0, 1.0])
    np.testing.assert_array_equal(
        indicator_values(x, columns, ">=", 1.0), [1.0, 0.0]
    )
    np.testing.assert_array_equal(
        indicator_values(x, columns, "<=", 1.0), [0.0, 1.0]
    )


def test_apply_warm_start_rejects_infeasible_carryover():
    from repro.solver.model import MILPBuilder

    builder = MILPBuilder()
    x_idx = builder.add_variables("x", 2, lb=0.0, ub=2.0)
    builder.add_constraint(x_idx, [1.0, 1.0], ub=1.0)
    assert not apply_warm_start(builder, x_idx, np.array([2.0, 2.0]), [])
    assert builder.validated_warm_start() is None
    assert apply_warm_start(builder, x_idx, np.array([1.0, 0.0]), [])
    assert builder.validated_warm_start() is not None
    assert not apply_warm_start(builder, x_idx, None, [])


def test_warm_started_csa_solve_installs_hint(chance_context):
    """The derived hint (x plus implied indicators) must be feasible for
    the CSA whose summaries were built around that same x."""
    ctx = chance_context
    item = ctx.chance_items()[0]
    x = np.zeros(ctx.problem.n_vars, dtype=np.int64)
    x[np.argsort(-ctx.mean_coefficients(item["expr"]))[:3]] = 1
    summaries = {
        item["index"]: SummaryBuilder(ctx, 12, 2).build(item, 1.0, x)
    }
    formulation = formulate_csa(ctx, summaries, 12, warm_x=x)
    hint = formulation.builder.validated_warm_start()
    assert hint is not None
    np.testing.assert_array_equal(
        np.round(hint[formulation.x_indices]).astype(np.int64), x
    )


@pytest.mark.parametrize(
    "case", ["items-chance", "items-chance-naive"], ids=["summarysearch", "naive"]
)
def test_methods_return_same_package_incremental_on_and_off(case):
    """The incremental row of the exactness harness: every record."""
    check("incremental", case)
