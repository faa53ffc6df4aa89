"""SketchRefine-style divide and conquer for large relations.

Section 8 lists "scaling up SummarySearch to very large datasets by
combining summaries with divide-and-conquer approaches like SketchRefine"
as future work.  This module implements that extension for the
*deterministic* DILPs the system solves (the PaQL baseline and the
probabilistically-unconstrained ``Q₀`` of Algorithm 2), following the
SketchRefine recipe of Brucato et al. (VLDB Journal 2018):

1. **Partition** the active tuples into groups of similar coefficient
   vectors (quantile partitioning on the objective coefficients, refined
   by constraint coefficients);
2. **Sketch**: solve a reduced ILP with one *representative* variable per
   group (centroid coefficients, group-aggregate multiplicity bounds);
3. **Refine**: group by group, replace the representative's multiplicity
   with real tuples by solving a small ILP restricted to that group while
   the other groups' contributions stay fixed.

The result is feasible for the original problem (each refine step
re-checks the true constraints) but possibly suboptimal; quality/speed is
traded off through ``n_partitions``.
"""

from __future__ import annotations

import numpy as np

from ..errors import EvaluationError
from ..silp.model import (
    ExpectationObjectiveIR,
    OP_EQ,
    OP_GE,
    OP_LE,
    StochasticPackageProblem,
)
from ..solver.model import MILPBuilder
from ..utils.timing import Stopwatch
from .context import EvaluationContext
from .package import Package, PackageResult
from .stats import IterationRecord, RunStats
from .validator import ValidationReport

METHOD_SKETCH_REFINE = "sketchrefine"


def make_groups(ctx: EvaluationContext, n_partitions: int) -> list[np.ndarray]:
    """Partition active tuples into groups of similar coefficients.

    Tuples are ordered by their objective coefficient (falling back to
    the first constraint's coefficients for feasibility problems) and cut
    into quantile groups, so each group's centroid represents its members
    well — the property refine quality depends on.
    """
    n = ctx.problem.n_vars
    n_partitions = max(1, min(n_partitions, n))
    objective = ctx.problem.objective
    if isinstance(objective, ExpectationObjectiveIR):
        key = ctx.mean_coefficients(objective.expr)
    elif ctx.problem.mean_constraints:
        key = ctx.mean_coefficients(ctx.problem.mean_constraints[0].expr)
    else:
        key = np.zeros(n)
    order = np.argsort(key, kind="stable")
    return [group for group in np.array_split(order, n_partitions) if len(group)]


def _constraint_rows(ctx):
    """(coefficients, op, rhs) triples for all mean constraints."""
    rows = []
    for constraint in ctx.problem.mean_constraints:
        rows.append(
            (ctx.mean_coefficients(constraint.expr), constraint.op, constraint.rhs)
        )
    return rows


def _sketch(ctx, groups, constraint_rows, objective_coeffs, time_limit):
    """Solve the reduced ILP over one representative per group."""
    builder = MILPBuilder()
    group_ub = [int(ctx.variable_ub[g].sum()) for g in groups]
    g_idx = builder.add_variables(
        "g", len(groups), lb=0.0, ub=np.asarray(group_ub, dtype=float)
    )
    for coeffs, op, rhs in constraint_rows:
        centroid = np.array([coeffs[g].mean() for g in groups])
        if op == OP_LE:
            builder.add_constraint(g_idx, centroid, ub=rhs)
        elif op == OP_GE:
            builder.add_constraint(g_idx, centroid, lb=rhs)
        else:
            builder.add_constraint(g_idx, centroid, lb=rhs, ub=rhs)
    if objective_coeffs is not None:
        centroid = np.array([objective_coeffs[g].mean() for g in groups])
        sense = ctx.problem.objective.sense
        builder.set_objective(g_idx, centroid, sense)
    return builder.solve(time_limit=time_limit, mip_gap=ctx.config.mip_gap)


def _refine_group(
    ctx, group, residual_rows, objective_coeffs, group_budget, time_limit
):
    """Solve the within-group ILP given the other groups' residuals.

    ``residual_rows`` are (coeffs, op, residual-rhs) with the fixed
    contribution of all other groups already subtracted.  The group's
    total multiplicity is capped by its sketch allocation plus slack
    (letting refine correct centroid error).
    """
    builder = MILPBuilder()
    x_idx = builder.add_variables(
        "x", len(group), lb=0.0, ub=ctx.variable_ub[group].astype(float)
    )
    for coeffs, op, rhs in residual_rows:
        local = coeffs[group]
        if op == OP_LE:
            builder.add_constraint(x_idx, local, ub=rhs)
        elif op == OP_GE:
            builder.add_constraint(x_idx, local, lb=rhs)
        else:
            builder.add_constraint(x_idx, local, lb=rhs, ub=rhs)
    if group_budget is not None:
        builder.add_constraint(x_idx, np.ones(len(group)), ub=group_budget)
    if objective_coeffs is not None:
        builder.set_objective(
            x_idx, objective_coeffs[group], ctx.problem.objective.sense
        )
    return builder.solve(time_limit=time_limit, mip_gap=ctx.config.mip_gap)


def sketch_refine_evaluate(
    problem: StochasticPackageProblem,
    config,
    n_partitions: int = 16,
) -> PackageResult:
    """Approximately evaluate a deterministic package query.

    Raises :class:`EvaluationError` for queries with probabilistic parts
    (combining summaries with partitioning — the paper's full future-work
    item — is out of scope; this accelerates the deterministic solves).
    """
    if problem.chance_constraints or problem.has_probability_objective:
        raise EvaluationError(
            "sketchrefine handles deterministic package queries only"
            " (stochastic queries take the repro.scale driver)"
        )
    if n_partitions < 1:
        raise EvaluationError("n_partitions must be >= 1")
    if problem.n_vars == 0:
        # Compiled queries cannot reach here (compile_query rejects an
        # all-filtering WHERE), but directly-constructed problems must
        # hit the evaluation-error contract, not a raw solver crash.
        raise EvaluationError(
            "no active tuples: the WHERE clause filtered out every row"
        )
    ctx = EvaluationContext(problem, config)
    stats = RunStats(METHOD_SKETCH_REFINE)
    watch = Stopwatch()
    try:
        with watch:
            x = _run(ctx, n_partitions, stats)
        objective = None if x is None else ctx.mean_objective_value(x)
    finally:
        ctx.close()
    stats.total_time = watch.elapsed
    if x is None:
        return PackageResult(
            package=None,
            feasible=False,
            objective=None,
            method=METHOD_SKETCH_REFINE,
            stats=stats,
            message="sketch (or every refine step) was infeasible",
        )
    return PackageResult(
        package=Package(problem, x),
        feasible=True,
        objective=objective,
        method=METHOD_SKETCH_REFINE,
        validation=ValidationReport(feasible=True, items=[], objective=objective),
        stats=stats,
        meta={"n_partitions": n_partitions},
    )


def _run(ctx, n_partitions, stats) -> np.ndarray | None:
    groups = make_groups(ctx, n_partitions)
    constraint_rows = _constraint_rows(ctx)
    objective = ctx.problem.objective
    objective_coeffs = (
        ctx.mean_coefficients(objective.expr)
        if isinstance(objective, ExpectationObjectiveIR)
        else None
    )
    time_limit = ctx.config.solver_time_limit

    sketch = _sketch(ctx, groups, constraint_rows, objective_coeffs, time_limit)
    stats.add(
        IterationRecord(
            method=METHOD_SKETCH_REFINE,
            iteration=1,
            n_scenarios=0,
            solver_status=f"sketch:{sketch.status}",
            solve_time=sketch.solve_time,
        )
    )
    if not sketch.has_solution:
        return None
    sketch_counts = np.round(sketch.x[: len(groups)]).astype(np.int64)

    # Refine groups with nonzero sketch allocation, largest first; the
    # sketch's centroid contribution stands in for not-yet-refined groups.
    x = np.zeros(ctx.problem.n_vars, dtype=np.int64)
    pending = {
        g: int(sketch_counts[g])
        for g in range(len(groups))
        if sketch_counts[g] > 0
    }
    refine_order = sorted(pending, key=pending.get, reverse=True)
    for iteration, g in enumerate(refine_order, start=2):
        residual_rows = []
        for coeffs, op, rhs in constraint_rows:
            fixed = float(coeffs @ x)
            for other, count in pending.items():
                if other != g:
                    fixed += coeffs[groups[other]].mean() * count
            residual_rows.append((coeffs, op, rhs - fixed))
        # No extra multiplicity cap: count pressure already flows through
        # the residual rows (COUNT(*) is itself a mean constraint), and
        # the final check rejects centroid-error leakage.
        refined = _refine_group(
            ctx, groups[g], residual_rows, objective_coeffs, None,
            ctx.config.solver_time_limit,
        )
        stats.add(
            IterationRecord(
                method=METHOD_SKETCH_REFINE,
                iteration=iteration,
                n_scenarios=0,
                solver_status=f"refine:{refined.status}",
                solve_time=refined.solve_time,
            )
        )
        if not refined.has_solution:
            return None
        x[groups[g]] = np.round(refined.x[: len(groups[g])]).astype(np.int64)
        del pending[g]

    # Final feasibility check against the true constraints (centroid
    # error could in principle leak through; reject rather than return an
    # infeasible package).
    for coeffs, op, rhs in constraint_rows:
        value = float(coeffs @ x)
        if op == OP_LE and value > rhs + 1e-6:
            return None
        if op == OP_GE and value < rhs - 1e-6:
            return None
        if op == OP_EQ and abs(value - rhs) > 1e-6:
            return None
    return x
