"""Naïve Monte Carlo query evaluation (Algorithm 1, Section 3).

The optimize/validate loop of the stochastic-programming literature:
build ``SAA_{Q,M}`` from ``M`` scenarios, solve, validate against ``M̂``
out-of-sample scenarios, and on failure add ``m`` scenarios and repeat.
Scenarios accumulate across iterations (line 9); the DILP grows as
Θ(N·M·K), which is exactly the blow-up SummarySearch avoids.
"""

from __future__ import annotations

import numpy as np

from ..config import SPQConfig
from ..silp.model import StochasticPackageProblem
from ..utils.timing import Deadline, Stopwatch
from .approx import compute_objective_bounds, epsilon_certificate
from .context import EvaluationContext
from .package import Package, PackageResult
from .saa import formulate_saa
from .stats import IterationRecord, RunStats
from .validator import Validator

METHOD_NAIVE = "naive"


def naive_evaluate(
    problem: StochasticPackageProblem, config: SPQConfig, store=None
) -> PackageResult:
    """Evaluate a stochastic package query with the Naïve algorithm.

    ``store`` optionally routes scenario realization through a shared
    :class:`repro.service.ScenarioStore` (bit-identical results).
    """
    return _naive(EvaluationContext(problem, config, store=store))


def _naive(ctx: EvaluationContext) -> PackageResult:
    problem, config = ctx.problem, ctx.config
    validator = Validator(ctx)
    stats = RunStats(METHOD_NAIVE)
    # QoS deadline and batch time limit share one enforcement path.
    deadline = Deadline(config.effective_time_limit())
    bounds = (
        compute_objective_bounds(ctx) if problem.objective is not None else None
    )
    sense = ctx.objective_sense

    n_scenarios = config.n_initial_scenarios
    best: PackageResult | None = None
    iteration = 0
    prev_x = None
    while True:
        iteration += 1
        solve_watch = Stopwatch()
        with solve_watch:
            # Iteration q+1 reuses iteration q's model skeleton (via the
            # context's incremental base) and solution (as a MIP start).
            formulation = formulate_saa(ctx, n_scenarios, warm_x=prev_x)
            time_limit = min(
                config.solver_time_limit, max(deadline.remaining(), 0.01)
            )
            result = formulation.builder.solve(
                time_limit=time_limit, mip_gap=config.mip_gap
            )
        record = IterationRecord(
            method=METHOD_NAIVE,
            iteration=iteration,
            n_scenarios=n_scenarios,
            solver_status=result.status,
            solve_time=solve_watch.elapsed,
        )
        stats.add(record)

        if result.has_solution:
            x = formulation.extract_package(result.x)
            prev_x = x
            claimed = formulation.claimed_objective(result.x, ctx)
            validate_watch = Stopwatch()
            with validate_watch:
                report = validator.validate(x, claimed_objective=claimed)
            record.validate_time = validate_watch.elapsed
            record.feasible = report.feasible
            record.objective = report.objective
            eps = (
                epsilon_certificate(sense, report.objective, bounds)
                if sense and report.feasible
                else None
            )
            report.epsilon_upper = eps
            record.epsilon_upper = eps
            candidate = _package_result(
                ctx, x, report, stats, feasible=report.feasible, eps=eps,
                bounds=bounds,
            )
            best = _keep_best(ctx, best, candidate)
            if report.feasible:
                stats.total_time = deadline.elapsed
                return candidate

        if deadline.expired():
            stats.timed_out = True
            break
        if n_scenarios >= config.max_scenarios:
            stats.declared_infeasible = result.status == "infeasible"
            break
        n_scenarios += config.scenario_increment

    stats.total_time = deadline.elapsed
    if best is not None:
        best.stats = stats
        if stats.timed_out:
            best.meta["truncated_stages"] = ("solve",)
        best.message = (
            "naive failed to reach validation feasibility"
            f" (final M={stats.final_n_scenarios})"
        )
        return best
    return PackageResult(
        package=None,
        feasible=False,
        objective=None,
        method=METHOD_NAIVE,
        stats=stats,
        message=(
            "no solution: the SAA was "
            + ("infeasible" if stats.declared_infeasible else "unsolved")
            + f" up to M={stats.final_n_scenarios}"
        ),
    )


def _package_result(
    ctx, x, report, stats, feasible: bool, eps, bounds=None
) -> PackageResult:
    return PackageResult(
        package=Package(ctx.problem, x),
        feasible=feasible,
        objective=report.objective,
        method=METHOD_NAIVE,
        validation=report,
        stats=stats,
        epsilon_upper=eps,
        meta={"bounds": bounds, "objective_sense": ctx.objective_sense},
    )


def _keep_best(ctx, best, candidate):
    if best is None:
        return candidate
    if candidate.feasible != best.feasible:
        return candidate if candidate.feasible else best
    if ctx.better(candidate.objective, best.objective):
        return candidate
    return best
