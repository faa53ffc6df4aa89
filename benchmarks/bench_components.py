"""Component microbenchmarks (design-choice ablations from DESIGN.md).

Covers the moving parts the end-to-end numbers are made of:

* scenario generation — scenario-wise vs tuple-wise seeding (the §5.5
  trade-off: bulk generation favors scenario-wise on larger tables);
* summary construction — §5.5's in-memory strategy (the one implemented);
* out-of-sample validation (streaming, package-restricted);
* DILP solve — Naïve's SAA vs the reduced CSA at equal M (the paper's
  core size argument: Θ(N·M·K) vs Θ(N·Z·K));
* incremental vs cold iteration — SummarySearch's q>1 re-solve with the
  retained model skeleton and warm start vs a from-scratch rebuild.
"""

import time

import numpy as np
import pytest

from repro.config import STREAM_OPTIMIZATION
from repro.core.context import EvaluationContext
from repro.core.csa import formulate_csa
from repro.core.saa import formulate_saa
from repro.core.summaries import SummaryBuilder
from repro.core.validator import Validator
from repro.mcdb.scenarios import MODE_SCENARIO_WISE, MODE_TUPLE_WISE, ScenarioGenerator
from repro.silp.compile import compile_query
from repro.workloads import get_query

from conftest import bench_config, cached_catalog

M = 64


def _context():
    spec = get_query("galaxy", "Q1")
    catalog = cached_catalog("galaxy", "Q1")
    config = bench_config()
    problem = compile_query(spec.spaql, catalog)
    return EvaluationContext(problem, config)


@pytest.mark.parametrize("mode", (MODE_SCENARIO_WISE, MODE_TUPLE_WISE))
def test_scenario_generation_modes(benchmark, mode):
    ctx = _context()
    generator = ScenarioGenerator(ctx.model, 17, STREAM_OPTIMIZATION, mode=mode)
    benchmark.pedantic(
        lambda: generator.matrix("Petromag_r", M), rounds=3, iterations=1
    )
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["n_rows"] = ctx.relation.n_rows


def test_summary_construction(benchmark):
    ctx = _context()
    builder = SummaryBuilder(ctx, M, 1)
    item = ctx.chance_items()[0]
    x = np.zeros(ctx.problem.n_vars, dtype=np.int64)
    x[:5] = 1
    benchmark.pedantic(
        lambda: builder.build(item, alpha=0.05, prev_x=x), rounds=3, iterations=1
    )


def test_validation_streaming(benchmark):
    ctx = _context()
    validator = Validator(ctx)
    x = np.zeros(ctx.problem.n_vars, dtype=np.int64)
    x[:7] = 1
    benchmark.pedantic(lambda: validator.validate(x), rounds=3, iterations=1)
    benchmark.extra_info["n_validation_scenarios"] = validator.n_scenarios


def test_saa_formulate_and_solve(benchmark):
    ctx = _context()

    def run():
        formulation = formulate_saa(ctx, M)
        return formulation.builder.solve(time_limit=30.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["coefficients"] = "Theta(N*M*K)"


def test_csa_formulate_and_solve(benchmark):
    ctx = _context()
    builder = SummaryBuilder(ctx, M, 1)
    item = ctx.chance_items()[0]

    def run():
        summaries = {item["index"]: builder.build(item, 0.05, None)}
        formulation = formulate_csa(ctx, summaries, M)
        return formulation.builder.solve(time_limit=30.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["coefficients"] = "Theta(N*Z*K)"


def test_csa_incremental_vs_cold(benchmark):
    """SummarySearch iteration q>1: retained skeleton + warm start vs
    cold rebuild, on the portfolio workload.

    Mirrors Algorithm 3 exactly: the summaries of iteration q are built
    around iteration q-1's incumbent, which therefore carries over as a
    feasible MIP start.  The cold path rebuilds the model from scratch
    and rediscovers an incumbent from nothing; the incremental path
    clones the cached base block and carries the previous incumbent as
    its warm start.  The cold context is made here: its ``base_milp``
    rebuilds from scratch, and it is never handed a warm start.
    """
    spec = get_query("portfolio", "Q1")
    catalog = cached_catalog("portfolio", "Q1", scale=400)
    config = bench_config(mip_gap=0.01)
    problem = compile_query(spec.spaql, catalog)
    inc_ctx = EvaluationContext(problem, config)
    cold_ctx = EvaluationContext(problem, config)
    cold_ctx.base_milp = cold_ctx.build_base_milp
    item = inc_ctx.chance_items()[0]
    m_scenarios, n_summaries = 32, 4
    builder = SummaryBuilder(inc_ctx, m_scenarios, n_summaries)

    # Iteration q-1: cold-solve once to obtain the incumbent.
    x0 = np.zeros(problem.n_vars, dtype=np.int64)
    x0[:5] = 1
    warmup = formulate_csa(cold_ctx, {item["index"]: builder.build(item, 0.25, x0)},
                           m_scenarios)
    # Tight-gap warmup: the q-1 iterate of a real run is an optimal
    # solution of the neighbouring model, so carry a strong incumbent.
    previous = warmup.builder.solve(time_limit=60.0, mip_gap=1e-6)
    assert previous.has_solution
    incumbent = warmup.extract_package(previous.x)
    # Iteration q's summaries, built around the incumbent (Section 5.3).
    summaries = {item["index"]: builder.build(item, 0.25, incumbent)}

    def iteration(ctx, warm_x):
        started = time.perf_counter()
        formulation = formulate_csa(ctx, summaries, m_scenarios, warm_x=warm_x)
        result = formulation.builder.solve(time_limit=60.0, mip_gap=config.mip_gap)
        return time.perf_counter() - started, result

    # Warm both paths once (ensures the incremental template exists).
    iteration(inc_ctx, incumbent)
    iteration(cold_ctx, None)
    rounds = 3
    cold_times = [iteration(cold_ctx, None)[0] for _ in range(rounds)]
    incremental_times = []

    def measured():
        elapsed, result = iteration(inc_ctx, incumbent)
        incremental_times.append(elapsed)
        return result

    result = benchmark.pedantic(measured, rounds=rounds, iterations=1)
    assert result.has_solution
    # The acceptance bar: incremental q>1 model-build+solve strictly
    # faster than the cold rebuild.
    assert min(incremental_times) < min(cold_times)
    benchmark.extra_info["cold_min_s"] = min(cold_times)
    benchmark.extra_info["incremental_min_s"] = min(incremental_times)
    benchmark.extra_info["speedup"] = min(cold_times) / max(min(incremental_times), 1e-12)


def test_expectation_precompute(benchmark):
    """Monte Carlo expectation estimation (Pareto has no finite mean)."""
    spec = get_query("galaxy", "Q5")
    catalog = cached_catalog("galaxy", "Q5")
    config = bench_config()
    problem = compile_query(spec.spaql, catalog)

    def run():
        ctx = EvaluationContext(problem, config)
        return ctx.mean_coefficients(problem.objective.expr)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n_expectation_scenarios"] = config.n_expectation_scenarios
