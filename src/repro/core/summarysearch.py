"""SummarySearch query evaluation (Algorithm 2, Section 4.2).

1. Solve the probabilistically-unconstrained problem ``Q₀`` for
   ``x^{(0)}`` — the least conservative solution (α = 0).
2. With ``Z = 1`` summaries, call CSA-Solve (Algorithm 3).  On a feasible
   ``(1+ε)``-approximate solution, stop.
3. If feasible but not accurate enough, add summaries (``Z += z``); if
   infeasible, add scenarios (``M += m``); repeat.

The objective-value bounds feeding the ε certificates are tightened with
``ω^{(0)}`` (the relaxation bound of Section 5.4: a lower bound on ``ω̂``
for minimization, an upper bound for maximization), and the user ε is
clamped to ``ε_min`` when that quantity is computable.
"""

from __future__ import annotations

import numpy as np

from ..config import SPQConfig
from ..obs import stage
from ..obs.events import KIND_CSA_ROUND, emit
from ..silp.model import (
    ExpectationObjectiveIR,
    SENSE_MAX,
    StochasticPackageProblem,
)
from ..utils.timing import Deadline, Stopwatch
from .approx import compute_objective_bounds, epsilon_min
from .context import EvaluationContext
from .csa import csa_solve
from .deterministic import solve_unconstrained
from .package import Package, PackageResult
from .stats import IterationRecord, RunStats
from .validator import Validator

METHOD_SUMMARY_SEARCH = "summarysearch"


def summary_search_evaluate(
    problem: StochasticPackageProblem,
    config: SPQConfig,
    store=None,
    warm_x: np.ndarray | None = None,
) -> PackageResult:
    """Evaluate a stochastic package query with SummarySearch.

    ``store`` optionally routes scenario realization through a shared
    :class:`repro.service.ScenarioStore` (bit-identical results).

    ``warm_x`` optionally seeds the CSA loop's starting incumbent (a
    previous package aligned to this problem's variables, e.g. the
    pre-delta sub-package in a repair solve); it flows into the first
    formulation's MIP start through ``core/warmstart.py``.  Ignored when
    its length does not match the problem.
    """
    return _summary_search(EvaluationContext(problem, config, store=store), warm_x)


def _summary_search(ctx: EvaluationContext, warm_x) -> PackageResult:
    problem, config = ctx.problem, ctx.config
    validator = Validator(ctx)
    stats = RunStats(METHOD_SUMMARY_SEARCH)
    # The per-query QoS deadline and the batch time limit share one
    # enforcement path; expiry returns the best incumbent (anytime).
    deadline = Deadline(config.effective_time_limit())

    # --- Step 1: x(0) = Solve(SAA(Q0, M̂)) ------------------------------------
    q0_watch = Stopwatch()
    with q0_watch, stage("solve.q0") as q0_span:
        q0_result = solve_unconstrained(
            ctx, min(config.solver_time_limit, max(deadline.remaining(), 0.01))
        )
        if q0_result.meta.get("memo"):
            q0_span.set("memo", True)
    stats.precompute_time = q0_watch.elapsed
    if not q0_result.has_solution:
        stats.declared_infeasible = q0_result.status == "infeasible"
        stats.total_time = deadline.elapsed
        return PackageResult(
            package=None,
            feasible=False,
            objective=None,
            method=METHOD_SUMMARY_SEARCH,
            stats=stats,
            message=(
                "the probabilistically-unconstrained problem is"
                f" {q0_result.status}; the query has no solution"
            ),
        )
    x0 = np.round(q0_result.x[: problem.n_vars]).astype(np.int64)
    start_x = x0
    if warm_x is not None and len(warm_x) == problem.n_vars:
        start_x = np.asarray(warm_x, dtype=np.int64)

    # --- bounds and ε (Section 5.4) --------------------------------------------
    bounds = (
        compute_objective_bounds(ctx) if problem.objective is not None else None
    )
    # Only an optimal Q₀ bounds ω̂: a time-limited Q₀ may hand back its
    # warm-start hint, whose objective certifies nothing.
    relaxation_objective = (
        ctx.mean_objective_value(x0) if q0_result.is_optimal else None
    )
    if (
        bounds is not None
        and relaxation_objective is not None
        and isinstance(problem.objective, ExpectationObjectiveIR)
    ):
        if problem.objective.sense == SENSE_MAX:
            bounds = bounds.tightened(
                upper=relaxation_objective, source="relaxation"
            )
        else:
            bounds = bounds.tightened(
                lower=relaxation_objective, source="relaxation"
            )
    eps_min_value = (
        epsilon_min(ctx.objective_sense, bounds) if bounds is not None else None
    )
    epsilon = config.epsilon
    if eps_min_value is not None and np.isfinite(eps_min_value):
        epsilon = max(epsilon, eps_min_value)

    # --- Algorithm 2 main loop ------------------------------------------------------
    n_scenarios = config.n_initial_scenarios
    n_summaries = config.initial_summaries
    best: PackageResult | None = None
    iteration = 0
    quality_rounds = 0
    while True:
        iteration += 1
        with stage(
            "csa",
            iteration=iteration,
            M=n_scenarios,
            Z=min(n_summaries, n_scenarios),
        ):
            result = csa_solve(
                ctx,
                validator,
                bounds,
                start_x,
                n_scenarios,
                min(n_summaries, n_scenarios),
                epsilon,
                deadline=deadline,
            )
        record = IterationRecord(
            method=METHOD_SUMMARY_SEARCH,
            iteration=iteration,
            n_scenarios=n_scenarios,
            n_summaries=min(n_summaries, n_scenarios),
            csa_iterations=len(result.iterations),
            solve_time=sum(r.solve_time for r in result.iterations),
            validate_time=sum(r.validate_time for r in result.iterations),
            summary_time=sum(r.summary_time for r in result.iterations),
            feasible=result.feasible,
            objective=result.objective,
            epsilon_upper=(
                result.report.epsilon_upper if result.report is not None else None
            ),
            alphas=result.iterations[-1].alphas if result.iterations else (),
        )
        stats.add(record)
        # Outer ε-trajectory record: one per (M, Z) escalation, closing
        # the round that csa_solve's per-q records opened.
        emit(
            KIND_CSA_ROUND,
            iteration=iteration,
            M=n_scenarios,
            Z=min(n_summaries, n_scenarios),
            epsilon_upper=record.epsilon_upper,
            feasible=bool(result.feasible),
            objective=result.objective,
        )

        if result.x is not None:
            candidate = PackageResult(
                package=Package(problem, result.x),
                feasible=result.feasible,
                objective=result.objective,
                method=METHOD_SUMMARY_SEARCH,
                validation=result.report,
                stats=stats,
                epsilon_upper=(
                    result.report.epsilon_upper if result.report else None
                ),
                meta={
                    "eps_min": eps_min_value,
                    "epsilon_effective": epsilon,
                    "relaxation_objective": relaxation_objective,
                    "bounds": bounds,
                    "objective_sense": ctx.objective_sense,
                    "final_M": n_scenarios,
                    "final_Z": min(n_summaries, n_scenarios),
                },
            )
            best = _keep_best(ctx, best, candidate)
            if result.feasible and result.eps_ok:
                stats.total_time = deadline.elapsed
                return candidate
            if result.feasible and candidate.epsilon_upper is None:
                # Feasible but structurally uncertifiable (no usable
                # bounds for this objective/sign combination): accept
                # rather than search forever.
                stats.total_time = deadline.elapsed
                candidate.meta["uncertified"] = True
                return candidate

        if deadline.expired():
            stats.timed_out = True
            break
        if result.feasible and n_summaries < n_scenarios:
            quality_rounds += 1
            if (
                config.max_quality_rounds is not None
                and quality_rounds > config.max_quality_rounds
            ):
                # The user ε is unattainable with the available bounds;
                # return the best feasible solution found while refining.
                break
            n_summaries += min(
                config.summary_increment, n_scenarios - n_summaries
            )
        else:
            if n_scenarios >= config.max_scenarios:
                break
            n_scenarios += config.scenario_increment

    stats.total_time = deadline.elapsed
    if best is not None:
        best.stats = stats
        if stats.timed_out:
            # Anytime return: the main loop was cut short by the
            # deadline; the envelope (gap, deadline_met) is derived from
            # this marker plus the candidate's ε certificate and bounds.
            best.meta["truncated_stages"] = ("csa",)
        if not best.feasible:
            best.message = (
                "summarysearch failed to reach validation feasibility"
                f" (final M={stats.final_n_scenarios})"
            )
        return best
    return PackageResult(
        package=None,
        feasible=False,
        objective=None,
        method=METHOD_SUMMARY_SEARCH,
        stats=stats,
        message="no solution found",
        meta=(
            {"truncated_stages": ("csa",)} if stats.timed_out else {}
        ),
    )


def _keep_best(ctx, best, candidate):
    if best is None:
        return candidate
    if candidate.feasible != best.feasible:
        return candidate if candidate.feasible else best
    if candidate.feasible and ctx.better(candidate.objective, best.objective):
        return candidate
    return best
