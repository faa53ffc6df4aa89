"""CSA formulation and CSA-Solve (Algorithm 3)."""

import math

import numpy as np
import pytest

from repro.core.approx import compute_objective_bounds
from repro.core.context import EvaluationContext
from repro.core.csa import (
    MAX_CSA_ITERATIONS,
    CSASolveResult,
    csa_solve,
    formulate_csa,
)
from repro.core.summaries import SummaryBuilder
from repro.core.validator import Validator
from repro.silp.compile import compile_query


def _summaries(ctx, n_scenarios, n_summaries, alpha, x=None):
    builder = SummaryBuilder(ctx, n_scenarios, n_summaries)
    out = {}
    for item in ctx.chance_items():
        out[item["index"]] = builder.build(item, alpha, x)
    return out


def test_csa_size_independent_of_m(chance_context):
    """Θ(N·Z·K) coefficients: scenario count must not affect CSA size."""
    small = formulate_csa(
        chance_context, _summaries(chance_context, 10, 2, 0.5), 10
    )
    large = formulate_csa(
        chance_context, _summaries(chance_context, 50, 2, 0.5), 50
    )
    assert small.builder.n_variables == large.builder.n_variables
    assert small.builder.n_variables == 5 + 2  # x's + Z indicators


def test_csa_cardinality_requirement(chance_context):
    n_summaries = 4
    formulation = formulate_csa(
        chance_context, _summaries(chance_context, 12, n_summaries, 0.5), 12
    )
    result = formulation.builder.solve()
    assert result.has_solution
    # ceil(0.8 * 4) = 4: all summaries must be satisfied.
    x = formulation.extract_package(result.x)
    constraint = chance_context.problem.chance_constraints[0]
    summary_set = _summaries(chance_context, 12, n_summaries, 0.5, x)[0]


def test_alpha_zero_items_skipped(chance_context):
    formulation = formulate_csa(chance_context, {0: None}, 10)
    assert formulation.builder.n_variables == 5  # no indicators


def test_csa_solution_more_conservative_than_saa(chance_context):
    """At equal M, a CSA(α=1, Z=1) solution satisfies every optimization
    scenario, so its satisfied count is at least SAA's ⌈pM⌉."""
    n_scenarios = 10
    formulation = formulate_csa(
        chance_context, _summaries(chance_context, n_scenarios, 1, 1.0), n_scenarios
    )
    result = formulation.builder.solve()
    assert result.has_solution
    x = formulation.extract_package(result.x)
    constraint = chance_context.problem.chance_constraints[0]
    matrix = chance_context.optimization_matrix(constraint.expr, n_scenarios)
    satisfied = int(((x @ matrix) >= constraint.rhs - 1e-9).sum())
    assert satisfied == n_scenarios


def test_csa_solve_no_chance_items_short_circuits(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 2 MINIMIZE SUM(price)",
        items_catalog,
    )
    ctx = EvaluationContext(problem, fast_config)
    validator = Validator(ctx)
    x0 = np.zeros(5, dtype=np.int64)
    result = csa_solve(ctx, validator, None, x0, 10, 1, 0.5)
    assert result.feasible and result.eps_ok
    assert np.array_equal(result.x, x0)


def test_csa_solve_finds_feasible_solution(chance_context):
    validator = Validator(chance_context)
    bounds = compute_objective_bounds(chance_context)
    x0 = np.zeros(5, dtype=np.int64)
    result = csa_solve(chance_context, validator, bounds, x0, 20, 1, 10.0)
    assert result.feasible
    assert result.report.items[0].satisfied_fraction >= 0.8
    # The α search starts least-conservative and the iterations recorded
    # must begin at α = 0.
    assert result.iterations[0].alphas == (0.0,)


def test_csa_solve_terminates_within_budget(chance_context):
    validator = Validator(chance_context)
    result = csa_solve(chance_context, validator, None, np.zeros(5, dtype=np.int64),
                       20, 1, 0.0)
    assert len(result.iterations) <= MAX_CSA_ITERATIONS + 1


def test_probability_objective_claim_is_conservative(items_catalog, fast_config):
    """The CSA claimed probability never exceeds what the optimization
    sample actually achieves (guaranteed-fraction weights)."""
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) BETWEEN 1 AND 2"
        " MAXIMIZE PROBABILITY OF SUM(Value) >= 10",
        items_catalog,
    )
    ctx = EvaluationContext(problem, fast_config)
    n_scenarios = 12
    summaries = _summaries(ctx, n_scenarios, 3, 0.5)
    formulation = formulate_csa(ctx, summaries, n_scenarios)
    result = formulation.builder.solve()
    assert result.has_solution
    x = formulation.extract_package(result.x)
    claimed = formulation.claimed_objective(result.x, ctx)
    matrix = ctx.optimization_matrix(problem.objective.expr, n_scenarios)
    actual = float(((x @ matrix) >= 10.0 - 1e-9).mean())
    assert claimed <= actual + 1e-9
