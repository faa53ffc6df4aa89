"""Deterministic package-query evaluation (the PaQL baseline).

Package queries with no probabilistic parts translate directly into an
ILP (Section 2.1); this evaluator is both the PackageBuilder-style
baseline and the building block SummarySearch uses to solve the
probabilistically-unconstrained problem ``Q₀`` (Algorithm 2, line 2).
"""

from __future__ import annotations

import numpy as np

from ..config import SPQConfig
from ..errors import EvaluationError
from ..silp.model import StochasticPackageProblem
from ..solver.result import MILPResult, STATUS_FEASIBLE, STATUS_TIME_LIMIT
from ..utils.timing import Stopwatch
from .context import EvaluationContext
from .package import Package, PackageResult
from .stats import IterationRecord, RunStats
from .validator import ValidationReport

METHOD_DETERMINISTIC = "deterministic"


def solve_unconstrained(ctx: EvaluationContext, time_limit: float) -> MILPResult:
    """Solve the base MILP (mean constraints + mean objective) directly.

    This is ``Solve(SAA(Q₀, M̂))``: expectation coefficients are the μ̂
    estimates computed from the expectation stream, chance constraints
    are absent, and a probability objective degenerates to feasibility
    (its conservative claim at α = 0 is zero).
    """
    builder, _ = ctx.base_milp()
    # The empty package is the canonical anytime seed: when it is
    # feasible (pure upper-bound constraints), a deadline truncation is
    # guaranteed to return an incumbent with a certified gap instead of
    # a bare timeout.  The hint is validated at solve time, so queries
    # with covering (>=) constraints simply ignore it.
    builder.set_warm_start(np.zeros(builder.n_variables))
    return builder.solve(time_limit=time_limit, mip_gap=ctx.config.mip_gap)


def deterministic_evaluate(
    problem: StochasticPackageProblem, config: SPQConfig, store=None
) -> PackageResult:
    """Evaluate a package query with no probabilistic parts.

    ``store`` is accepted for interface uniformity with the stochastic
    evaluators; deterministic queries never realize scenarios.
    """
    if problem.chance_constraints or problem.has_probability_objective:
        raise EvaluationError(
            "deterministic evaluation requires a query without probabilistic"
            " constraints or objectives; use naive or summarysearch"
        )
    return _deterministic(EvaluationContext(problem, config, store=store))


def _deterministic(ctx: EvaluationContext) -> PackageResult:
    problem, config = ctx.problem, ctx.config
    stats = RunStats(METHOD_DETERMINISTIC)
    watch = Stopwatch()
    with watch:
        # The QoS deadline and the batch budget share one clamp, so a
        # solve HiGHS stops on its time limit surfaces as an anytime
        # incumbent with a certified gap instead of silently reporting
        # gap 0.
        result = solve_unconstrained(
            ctx, min(config.solver_time_limit, config.effective_time_limit())
        )
    stats.add(
        IterationRecord(
            method=METHOD_DETERMINISTIC,
            iteration=1,
            n_scenarios=0,
            solver_status=result.status,
            solve_time=result.solve_time,
            feasible=result.has_solution,
            objective=result.objective,
        )
    )
    stats.total_time = watch.elapsed
    truncated = result.status in (STATUS_FEASIBLE, STATUS_TIME_LIMIT)
    if truncated:
        stats.timed_out = True
    if not result.has_solution:
        return PackageResult(
            package=None,
            feasible=False,
            objective=None,
            method=METHOD_DETERMINISTIC,
            stats=stats,
            message=f"solver reported {result.status}",
        )
    x = np.round(result.x[: problem.n_vars]).astype(np.int64)
    objective = ctx.mean_objective_value(x)
    report = ValidationReport(feasible=True, items=[], objective=objective)
    meta = {}
    if truncated:
        # Carry the solver's own anytime certificate into the envelope:
        # finalize_anytime prefers it, so the AnytimeResult gap and bound
        # equal the MILPResult's bit-for-bit.
        meta = {
            "truncated_stages": ("solve",),
            "solver_gap": result.gap,
            "solver_best_bound": result.meta.get("best_bound"),
        }
    return PackageResult(
        package=Package(problem, x),
        feasible=True,
        objective=objective,
        method=METHOD_DETERMINISTIC,
        validation=report,
        stats=stats,
        meta=meta,
    )
