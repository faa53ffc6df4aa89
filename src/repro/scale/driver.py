"""Stochastic SketchRefine: divide-and-conquer SummarySearch.

Section 8 of the paper names "scaling up SummarySearch to very large
datasets by combining summaries with divide-and-conquer approaches like
SketchRefine" as future work; :mod:`repro.core.sketchrefine` implements
that recipe for the deterministic DILPs only.  This module is the
stochastic half: the full SummarySearch pipeline (SAA/CSA solves,
summaries, out-of-sample validation) runs partition-by-partition, so no
solve ever holds more than one partition's tuples as decision variables
and no realized scenario matrix ever spans the whole relation.

The recipe, for a query with mean constraints ``Σ f_e(t)x_t ⊙ v_e`` and
chance constraints ``Pr(Σ f_c(t)x_t ⊙ v_c) ≥ p_c``:

1. **Partition** — active tuples are quantile-cut into groups of similar
   pilot behaviour (:mod:`repro.scale.partition`); the cut is persisted
   in the partition index so repeated queries skip it.
2. **Sketch** — SummarySearch solves the *same query* over a tiny
   relation with one representative row per partition: deterministic
   columns are group centroids, each stochastic attribute is a Gaussian
   calibrated to the group's pilot mean/std, and per-representative cap
   rows bound each group by its aggregate multiplicity capacity
   (``Σ ub_i`` over members).  The sketch solution decides which
   partitions participate and with how much weight.
3. **Refine** — every participating partition is solved as a standalone
   SummarySearch instance over its own tuples, against *allocated*
   constraint shares: each RHS is split across partitions in proportion
   to the partition's sketch contribution (shares sum exactly to the
   original RHS), and every chance constraint's probability is boosted
   to ``1 − (1−p)/k`` so a union bound over ``k`` refined partitions
   recovers the original ``p``.  Sibling contributions are thereby fixed
   before any refine starts, which makes refines order-independent —
   they fan out across ``config.n_workers`` forkserver workers with
   bit-identical results for any worker count.
4. **Validate** — the combined package is validated out-of-sample
   against the *original* constraints through
   :class:`repro.core.validator.Validator` (which realizes scenarios
   only for package tuples, so validation is cheap even at millions of
   base tuples).  The driver's feasibility verdict is the validator's,
   never the allocation's.

The result is validator-certified feasible but possibly suboptimal —
allocation fixes cross-partition trade-offs at sketch granularity;
quality/speed is traded through ``config.scale_n_partitions``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..config import SPQConfig
from ..db.expressions import Attr, Compare, Const, attributes_of, evaluate
from ..db.relation import Relation
from ..errors import EvaluationError
from ..mcdb.stochastic import StochasticModel
from ..obs import stage
from ..obs.events import KIND_REFINE_OUTCOME, emit
from ..silp.model import (
    ChanceConstraint,
    ExpectationObjectiveIR,
    MeanConstraint,
    ProbabilityObjectiveIR,
    StochasticPackageProblem,
)
from ..utils.timing import Deadline, Stopwatch
from .metrics import scale_metrics
from .partition import (
    PartitionIndex,
    PilotStats,
    delta_refresh_index,
    partition_index_key,
    partition_labels,
    pilot_statistics,
    probed_attributes,
)
from .refinecache import SolveArtifact, query_digest, refine_cache

METHOD_SKETCH_REFINE = "sketchrefine"

#: Prefix of the synthetic pilot-mean columns on the sketch relation.
_PILOT_MEAN = "__pilot_mean_"

#: Clamp for boosted refine probabilities (must stay inside (0, 1)).
_MAX_PROBABILITY = 1.0 - 1e-9

#: Fraction of each chance constraint's violation budget ``1 − p`` held
#: back from the refines.  The union bound splits the budget across the
#: refined partitions; refines certify on *their own* validation streams
#: (sub-relation block identities), while the final verdict uses the
#: full relation's stream — without reserved slack, a marginally-feasible
#: refine fails the final validation on sampling noise alone (exactly at
#: one refined partition, where the boost would otherwise equal ``p``).
_VALIDATION_MARGIN = 0.1


def scale_sketch_refine_evaluate(
    problem: StochasticPackageProblem,
    config: SPQConfig,
    store=None,
) -> "PackageResult":
    """Evaluate a stochastic package query partition-by-partition.

    ``store`` optionally routes pilot and per-partition scenario
    realization through a shared :class:`repro.service.ScenarioStore`
    (results are bit-identical with or without it).
    """
    from ..core.package import PackageResult

    if problem.n_vars == 0:
        raise EvaluationError(
            "no active tuples: the WHERE clause filtered out every row"
        )
    if isinstance(problem.objective, ProbabilityObjectiveIR):
        raise EvaluationError(
            "the scale driver supports expectation (or absent) objectives"
            " only; probability objectives need whole-relation"
            " summarysearch"
        )
    if not problem.chance_constraints:
        raise EvaluationError(
            "stochastic sketchrefine needs at least one chance constraint;"
            " deterministic queries take the core sketchrefine path"
        )
    if problem.model is None:
        raise EvaluationError(
            "stochastic sketchrefine needs a stochastic model on the"
            " relation"
        )

    from ..core.context import EvaluationContext
    from ..core.stats import IterationRecord, RunStats
    from ..core.validator import Validator

    stats = RunStats(METHOD_SKETCH_REFINE)
    total_watch = Stopwatch()
    with total_watch:
        result = _run(
            problem, config, store, stats, IterationRecord, PackageResult,
            EvaluationContext, Validator,
        )
    stats.total_time = total_watch.elapsed
    result.stats = stats
    return result


def _run(
    problem, config, store, stats, IterationRecord, PackageResult,
    EvaluationContext, Validator, reuse: bool = True,
):
    """One pipeline pass.  ``reuse`` allows delta-scoped repair: splicing
    the partition index and reusing clean partitions' sub-packages from
    the previous solve of the same query (see ``docs/live_data.md``);
    the cold fallback after a failed repair passes ``reuse=False``.
    """
    return _pipeline(
        EvaluationContext(problem, config, store=store), store, stats,
        IterationRecord, PackageResult, EvaluationContext, Validator, reuse,
    )


def _pipeline(
    ctx, store, stats, IterationRecord, PackageResult,
    EvaluationContext, Validator, reuse,
):
    problem, config = ctx.problem, ctx.config
    # QoS budget for the whole pipeline: each stage gets the remaining
    # share (deadline_ms is consumed here, not re-applied per stage).
    deadline = Deadline(config.effective_time_limit())

    # --- partition (index-cached, delta-refreshed) --------------------------------
    with stage("partition") as partition_span:
        k_requested = max(1, min(config.scale_n_partitions, problem.n_vars))
        index = PartitionIndex(problem.relation)
        index_key = partition_index_key(problem, config, k_requested)
        cached = index.get(index_key)
        if cached is not None and set(cached[1].per_attr) != set(
            probed_attributes(problem)
        ):
            cached = None  # stale/foreign entry: never partition on wrong stats
        index_hit = cached is not None
        index_refreshed = False
        n_dirty_active = 0
        if cached is not None:
            labels, pilot = cached
        else:
            refreshed = (
                delta_refresh_index(
                    problem, config, k_requested, index, index_key, store
                )
                if reuse
                else None
            )
            if refreshed is not None:
                labels, pilot, n_dirty_active = refreshed
                index_refreshed = True
            else:
                pilot = pilot_statistics(problem, config, store=store)
                labels = partition_labels(pilot, k_requested)
                index.put(
                    index_key, labels, pilot, active_rows=problem.active_rows
                )
        n_groups = int(labels.max()) + 1 if len(labels) else 0
        groups = [np.nonzero(labels == g)[0] for g in range(n_groups)]
        partition_span.set("index_hit", index_hit)
        partition_span.set("index_delta_refreshed", index_refreshed)
        partition_span.set("n_partitions", n_groups)

    # --- sketch -------------------------------------------------------------------
    sketch_watch = Stopwatch()
    with sketch_watch, stage("sketch", n_partitions=n_groups):
        sketch_result, rep_relation = _solve_sketch(
            problem,
            ctx,
            config.replace(
                deadline_ms=None,
                time_limit=max(deadline.remaining(), 0.01),
            ),
            pilot,
            groups,
        )
    stats.precompute_time = sketch_watch.elapsed
    stats.add(
        IterationRecord(
            method=METHOD_SKETCH_REFINE,
            iteration=1,
            n_scenarios=(
                sketch_result.stats.final_n_scenarios
                if sketch_result.stats is not None
                else 0
            ),
            solver_status=f"sketch:{'ok' if sketch_result.succeeded else 'fail'}",
            solve_time=sketch_watch.elapsed,
            feasible=sketch_result.feasible,
            objective=sketch_result.objective,
        )
    )
    if not sketch_result.succeeded:
        scale_metrics.record_run(n_groups, 0, sketch_watch.elapsed, 0.0)
        return PackageResult(
            package=None,
            feasible=False,
            objective=None,
            method=METHOD_SKETCH_REFINE,
            message=(
                "the sketch over partition representatives found no"
                f" feasible allocation: {sketch_result.message or 'infeasible'}"
            ),
            meta=_meta(config, n_groups, [], index_hit),
        )
    sketch_counts = sketch_result.package.multiplicities

    # --- allocation ----------------------------------------------------------------
    refined = [g for g in range(n_groups) if sketch_counts[g] > 0]
    with stage("allocate", n_refined=len(refined)):
        allocations = _allocate_constraints(
            problem, rep_relation, sketch_counts, refined
        )

    # --- delta-scoped reuse (previous run's refined sub-packages) -----------------
    from ..service.store import model_fingerprint

    fp = model_fingerprint(problem.model)
    qdigest = query_digest(problem, config)
    base_rows = np.asarray(problem.active_rows)
    group_rows = [base_rows[g] for g in groups]
    reused: dict[int, dict] = {}
    warm: dict[int, np.ndarray] = {}
    repair_attempted = False
    n_dirty_partitions = 0
    if reuse:
        repair = refine_cache.lookup_repair(
            fp, qdigest, problem.relation.n_rows
        )
        if repair is not None:
            repair_attempted = True
            reused, warm, n_dirty_partitions = _plan_reuse(
                problem, repair, group_rows, refined
            )
            scale_metrics.record_delta_repair(n_dirty_partitions, len(reused))

    # --- refine (fan-out) -----------------------------------------------------------
    refine_config = config.replace(
        deadline_ms=None,
        time_limit=max(deadline.remaining(), 0.01),
    )
    refine_watch = Stopwatch()
    with refine_watch, stage("refine.fanout", n_refined=len(refined)):
        outcomes = _run_refines(
            problem,
            config,
            refine_config,
            store,
            groups,
            refined,
            allocations,
            reused=reused,
            warm=warm,
        )
    for i, (g, outcome) in enumerate(zip(refined, outcomes), start=2):
        stats.add(
            IterationRecord(
                method=METHOD_SKETCH_REFINE,
                iteration=i,
                n_scenarios=outcome["final_m"],
                solver_status=f"refine[{g}]:{outcome['status']}",
                solve_time=outcome["solve_time"],
                validate_time=outcome["validate_time"],
                feasible=outcome["feasible"],
                objective=outcome["objective"],
            )
        )
        # Refine-outcome stream: emitted here (the driver's context)
        # rather than inside _refine_partition, because parallel refines
        # run in pool children that do not carry the trace context.
        emit(
            KIND_REFINE_OUTCOME,
            partition=int(g),
            status=outcome["status"],
            feasible=bool(outcome["feasible"]),
            final_m=outcome["final_m"],
            solve_time=outcome["solve_time"],
            validate_time=outcome["validate_time"],
        )
    scale_metrics.record_run(
        n_groups, len(refined), sketch_watch.elapsed, refine_watch.elapsed
    )
    failed = [
        (g, outcome)
        for g, outcome in zip(refined, outcomes)
        if outcome["multiplicities"] is None
    ]
    if failed:
        g, outcome = failed[0]
        return PackageResult(
            package=None,
            feasible=False,
            objective=None,
            method=METHOD_SKETCH_REFINE,
            message=(
                f"refine failed for partition {g} (of {len(refined)}"
                f" refined): {outcome['message'] or 'infeasible'}"
            ),
            meta=_meta(config, n_groups, refined, index_hit),
        )

    # --- combine + validate ----------------------------------------------------------
    from ..core.package import Package

    x = np.zeros(problem.n_vars, dtype=np.int64)
    for g, outcome in zip(refined, outcomes):
        x[groups[g]] = outcome["multiplicities"]
    objective = ctx.mean_objective_value(x)
    validate_watch = Stopwatch()
    with validate_watch:
        report = Validator(ctx).validate(x, claimed_objective=objective)
    if not report.feasible and (reused or warm):
        # Reused sub-packages solved against the *previous* run's
        # allocation shares; when the combined package fails the
        # original constraints out-of-sample, the repair is discarded
        # and the solve re-runs cold — reuse is an optimization, never
        # a correctness dependency (the validator always has the last
        # word).
        scale_metrics.record_delta_repair_fallback()
        return _run(
            problem,
            config,
            store,
            stats,
            IterationRecord,
            PackageResult,
            EvaluationContext,
            Validator,
            reuse=False,
        )
    meta = _meta(config, n_groups, refined, index_hit)
    meta["refine_probability_boost"] = allocations["p_boost"]
    meta["partition_index_delta_refreshed"] = index_refreshed
    if repair_attempted:
        meta["delta_repair"] = {
            "partitions_reused": len(reused),
            "partitions_refined": len(refined) - len(reused),
            "partitions_dirty": n_dirty_partitions,
            "reuse_ratio": (
                len(reused) / len(refined) if refined else 1.0
            ),
            "dirty_rows": int(n_dirty_active),
        }
    if report.feasible:
        key_values = np.asarray(problem.relation.column(problem.relation.key))
        refine_cache.record(
            SolveArtifact(
                fingerprint=fp,
                query_digest=qdigest,
                group_rows=[
                    np.asarray(rows, dtype=np.int64) for rows in group_rows
                ],
                multiplicities={
                    g: np.asarray(outcome["multiplicities"], dtype=np.int64)
                    for g, outcome in zip(refined, outcomes)
                },
                group_keys={g: key_values[group_rows[g]] for g in refined},
            )
        )
    if deadline.expired():
        # The refines consumed the whole budget; the combined package is
        # a best-effort incumbent (still validated out-of-sample above).
        stats.timed_out = True
        meta["truncated_stages"] = ("refine",)
        meta["objective_sense"] = ctx.objective_sense
    # Unified per-stage breakdown (same keys across BENCH_scale.json and
    # BENCH_service.json): sketch / refine / validate.
    meta["stage_seconds"] = {
        "sketch": sketch_watch.elapsed,
        "refine": refine_watch.elapsed,
        "validate": validate_watch.elapsed,
    }
    return PackageResult(
        package=Package(problem, x),
        feasible=report.feasible,
        objective=report.objective if objective is None else objective,
        method=METHOD_SKETCH_REFINE,
        validation=report,
        message=(
            ""
            if report.feasible
            else "combined package failed out-of-sample validation"
        ),
        meta=meta,
    )


def _meta(config, n_groups: int, refined: list, index_hit: bool) -> dict:
    return {
        "n_partitions": n_groups,
        "n_refined": len(refined),
        "refined_partitions": list(refined),
        "pilot_scenarios": config.scale_pilot_scenarios,
        "partition_index_hit": index_hit,
    }


def _plan_reuse(
    problem, repair, group_rows, refined
) -> tuple[dict[int, dict], dict[int, np.ndarray], int]:
    """Decide, per refined partition, reuse / warm-start / cold refine.

    A partition's previous sub-package is reused verbatim iff its member
    base positions are bit-identical to a previously-refined group's
    *and* no member is dirty w.r.t. the artifact's fingerprint.  Every
    other refined partition gets a warm-start vector aligned by key
    value from the previous package's counts (empty hints are omitted).
    Returns ``(reused outcomes, warm hints, n dirty partitions)``.
    """
    artifact, dirty_mask = repair
    prev_mult: dict[bytes, np.ndarray] = {}
    for gi, mult in artifact.multiplicities.items():
        if gi < len(artifact.group_rows):
            token = np.asarray(
                artifact.group_rows[gi], dtype=np.int64
            ).tobytes()
            prev_mult[token] = np.asarray(mult, dtype=np.int64)
    prev_key_mult: dict = {}
    for gi, mult in artifact.multiplicities.items():
        keys_g = artifact.group_keys.get(gi)
        if keys_g is None:
            continue
        for key_value, m in zip(
            np.asarray(keys_g).tolist(), np.asarray(mult).tolist()
        ):
            if m:
                prev_key_mult[key_value] = int(m)
    reused: dict[int, dict] = {}
    warm: dict[int, np.ndarray] = {}
    n_dirty = 0
    pending: list[tuple[int, np.ndarray]] = []
    for g in refined:
        rows = np.asarray(group_rows[g], dtype=np.int64)
        dirty = bool(np.any(dirty_mask[rows]))
        if dirty:
            n_dirty += 1
        if not dirty and rows.tobytes() in prev_mult:
            reused[g] = {
                "multiplicities": prev_mult[rows.tobytes()],
                "feasible": True,
                "objective": None,
                "message": "",
                "status": "reused",
                "final_m": 0,
                "solve_time": 0.0,
                "validate_time": 0.0,
            }
        else:
            pending.append((g, rows))
    if pending and prev_key_mult:
        key_values = np.asarray(problem.relation.column(problem.relation.key))
        for g, rows in pending:
            hint = np.array(
                [
                    prev_key_mult.get(key_value, 0)
                    for key_value in key_values[rows].tolist()
                ],
                dtype=np.int64,
            )
            if hint.any():
                warm[g] = hint
    return reused, warm, n_dirty


# --- sketch construction -------------------------------------------------------


def _constraint_exprs(problem) -> list:
    exprs = [c.expr for c in problem.constraints]
    expr = getattr(problem.objective, "expr", None)
    if expr is not None:
        exprs.append(expr)
    return exprs


def _deterministic_columns(problem) -> list[str]:
    """Relation columns referenced by constraint/objective expressions."""
    model = problem.model
    names: set[str] = set()
    for expr in _constraint_exprs(problem):
        for name in attributes_of(expr):
            if model is not None and model.is_stochastic(name):
                continue
            names.add(name)
    return sorted(names)


def _solve_sketch(problem, ctx, config, pilot: PilotStats, groups):
    """Build and solve the representative problem; returns (result, rep)."""
    from ..core.summarysearch import summary_search_evaluate

    relation = problem.relation
    k = len(groups)
    columns: dict[str, np.ndarray] = {}
    for name in _deterministic_columns(problem):
        full = relation.column(name)
        if full.dtype.kind not in ("f", "i", "u", "b"):
            raise EvaluationError(
                f"constraint expressions over text column {name!r} cannot"
                " be centroided by the scale driver"
            )
        active = np.asarray(full, dtype=float)[problem.active_rows]
        columns[name] = np.array([active[g].mean() for g in groups])
    for attr, (mean, std) in sorted(pilot.per_attr.items()):
        columns[_PILOT_MEAN + attr] = np.array(
            [mean[g].mean() for g in groups]
        )
        columns["__pilot_std_" + attr] = np.array(
            [std[g].mean() for g in groups]
        )
    columns["__group"] = np.arange(k, dtype=np.int64)
    rep_relation = Relation(
        f"{relation.name}__sketch", columns, key="__group"
    )
    from ..mcdb.distributions import GaussianNoiseVG

    attributes = {
        attr: GaussianNoiseVG(
            _PILOT_MEAN + attr,
            rep_relation.column("__pilot_std_" + attr),
        )
        for attr in pilot.per_attr
    }
    rep_model = StochasticModel(rep_relation, attributes)

    # Aggregate bounds: representative g may allocate at most the sum of
    # its members' multiplicity bounds, expressed as one cap row per
    # group (an indicator expression, so the derived variable bounds
    # pick it up exactly).
    constraints = list(problem.constraints)
    for g in range(k):
        cap = float(ctx.variable_ub[groups[g]].sum())
        constraints.append(
            MeanConstraint(
                expr=Compare("=", Attr("__group"), Const(g)),
                op="<=",
                rhs=cap,
            )
        )
    sketch_problem = StochasticPackageProblem(
        relation=rep_relation,
        model=rep_model,
        active_rows=np.arange(k, dtype=np.int64),
        objective=problem.objective,
        constraints=constraints,
        repeat=None,
    )
    return summary_search_evaluate(sketch_problem, config), rep_relation


# --- allocation ----------------------------------------------------------------


def _group_unit_means(expr, rep_relation, stochastic: set[str]) -> np.ndarray:
    """Per-representative expected value of one unit of ``expr``."""

    def resolver(name: str) -> np.ndarray:
        if name in stochastic:
            return rep_relation.column(_PILOT_MEAN + name)
        return np.asarray(rep_relation.column(name), dtype=float)

    values = evaluate(expr, resolver)
    return np.broadcast_to(
        np.asarray(values, dtype=float), (rep_relation.n_rows,)
    ).astype(float)


def _shares(unit_means, counts, refined) -> np.ndarray:
    """Per-refined-partition share of one constraint's RHS (sums to 1).

    Proportional to the partition's sketch contribution when all
    contributions carry one sign; mixed-sign or all-zero contributions
    fall back to multiplicity shares, which are always nonnegative and
    sum to one.
    """
    contributions = np.array(
        [unit_means[g] * counts[g] for g in refined], dtype=float
    )
    total = contributions.sum()
    same_sign = np.all(contributions >= 0) or np.all(contributions <= 0)
    if total != 0 and same_sign:
        return contributions / total
    multiplicity = np.array([counts[g] for g in refined], dtype=float)
    return multiplicity / multiplicity.sum()


def _allocate_constraints(problem, rep_relation, counts, refined) -> dict:
    """Split every constraint's RHS across the refined partitions.

    Returns ``{"per_group": {g: [constraint, ...]}, "p_boost": p'-map}``
    where each partition's constraint list mirrors the original
    constraint order with allocated RHS values (and boosted
    probabilities for chance constraints).
    """
    model = problem.model
    stochastic = {
        name
        for expr in _constraint_exprs(problem)
        for name in attributes_of(expr)
        if model is not None and model.is_stochastic(name)
    }
    k_r = max(1, len(refined))
    per_group: dict[int, list] = {g: [] for g in refined}
    p_boost: dict[float, float] = {}
    for constraint in problem.constraints:
        unit_means = _group_unit_means(constraint.expr, rep_relation, stochastic)
        shares = _shares(unit_means, counts, refined)
        if isinstance(constraint, MeanConstraint):
            for g, share in zip(refined, shares):
                per_group[g].append(
                    MeanConstraint(
                        expr=constraint.expr,
                        op=constraint.op,
                        rhs=float(constraint.rhs * share),
                    )
                )
        else:
            budget = (1.0 - constraint.probability) * (1.0 - _VALIDATION_MARGIN)
            boosted = min(1.0 - budget / k_r, _MAX_PROBABILITY)
            p_boost[constraint.probability] = boosted
            for g, share in zip(refined, shares):
                per_group[g].append(
                    ChanceConstraint(
                        expr=constraint.expr,
                        inner_op=constraint.inner_op,
                        rhs=float(constraint.rhs * share),
                        probability=boosted,
                    )
                )
    return {"per_group": per_group, "p_boost": p_boost}


# --- refine --------------------------------------------------------------------


def _refine_partition(
    relation, model, objective, repeat, active_rows, rows, constraints,
    config, store=None, warm_x=None,
) -> dict:
    """Solve one partition's SummarySearch instance; returns a lean dict.

    ``rows`` are positions into the active-row vector; the partition
    becomes a standalone in-memory sub-relation with the original model's
    VG families re-bound to it, so the evaluation is a pure function of
    (partition content, allocated constraints, config) — independent of
    which process runs it and of every sibling partition.
    """
    from ..core.summarysearch import summary_search_evaluate

    base_rows = np.asarray(active_rows)[np.asarray(rows)]
    sub_relation = relation.take(base_rows)
    sub_model = StochasticModel(
        sub_relation,
        {
            name: model.vg(name).unbound_copy()
            for name in model.attribute_names
        },
    )
    sub_problem = StochasticPackageProblem(
        relation=sub_relation,
        model=sub_model,
        active_rows=np.arange(sub_relation.n_rows, dtype=np.int64),
        objective=objective,
        constraints=list(constraints),
        repeat=repeat,
    )
    result = summary_search_evaluate(
        sub_problem, config, store=store, warm_x=warm_x
    )
    run_stats = result.stats
    # Allocation is conservative (proportional shares + union-bound
    # probability boost), so a partition that cannot certify its share
    # may still be fine in the whole: the combined package is validated
    # out-of-sample against the ORIGINAL constraints, and that verdict —
    # not the per-partition one — decides feasibility.  Best-effort
    # packages therefore flow through; a partition with no package at
    # all degenerates to empty when the zero vector provably satisfies
    # its allocated constraints (an empty partition satisfies its share
    # with probability one, keeping the union bound intact).
    if result.package is not None:
        multiplicities = np.asarray(
            result.package.multiplicities, dtype=np.int64
        )
        status = "ok" if result.succeeded else "best-effort"
    elif _zero_satisfies(constraints):
        multiplicities = np.zeros(sub_relation.n_rows, dtype=np.int64)
        status = "empty"
    else:
        multiplicities = None
        status = "fail"
    return {
        "multiplicities": multiplicities,
        "feasible": bool(result.feasible),
        "objective": result.objective,
        "message": result.message,
        "status": status,
        "final_m": run_stats.final_n_scenarios if run_stats else 0,
        "solve_time": run_stats.total_solve_time if run_stats else 0.0,
        "validate_time": run_stats.total_validate_time if run_stats else 0.0,
    }


def _zero_satisfies(constraints) -> bool:
    """Whether the empty package satisfies every allocated constraint."""
    for constraint in constraints:
        rhs = constraint.rhs
        if isinstance(constraint, MeanConstraint):
            op = constraint.op
            if op == "<=":
                ok = rhs >= -1e-9
            elif op == ">=":
                ok = rhs <= 1e-9
            else:
                ok = abs(rhs) <= 1e-9
        else:
            # Empty partitions score identically zero in every scenario.
            ok = rhs <= 1e-9 if constraint.inner_op == ">=" else rhs >= -1e-9
        if not ok:
            return False
    return True


#: Worker-process refine state installed by the pool initializer
#: (pickled through the forkserver with the initargs).
_REFINE_STATE = None


def _init_refine_worker(state) -> None:
    from ..core import lane

    global _REFINE_STATE
    _REFINE_STATE = state
    # The pool's workers are the parallelism here: no ladder lane.
    lane.disable()


def _refine_worker_task(g: int) -> tuple[int, dict]:
    state = _REFINE_STATE
    outcome = _refine_partition(
        state["relation"],
        state["model"],
        state["objective"],
        state["repeat"],
        state["active_rows"],
        state["groups"][g],
        state["allocations"][g],
        state["config"],
        store=None,
        warm_x=state["warm"].get(g),
    )
    return g, outcome


def _run_refines(
    problem, config, refine_config, store, groups, refined, allocations,
    reused=None, warm=None,
) -> list[dict]:
    """Refine every participating partition, fanned out when configured.

    Each refine is self-contained, so parallel execution is bit-identical
    to sequential for any worker count; pool failures degrade to the
    sequential path with a warning, never a behaviour change.

    ``reused`` supplies pre-decided outcomes for partitions whose
    previous sub-package is reused verbatim (no solve runs for them);
    ``warm`` supplies per-partition warm-start vectors for the rest.
    """
    per_group = allocations["per_group"]
    reused = reused or {}
    warm = warm or {}
    pending = [g for g in refined if g not in reused]
    if config.n_workers > 1 and len(pending) > 1:
        # Refine workers come from the forkserver context: the driver
        # runs inside multithreaded serving processes (broker thread
        # pools, HTTP handlers), where forking can deadlock the child on
        # a lock some other thread held at fork time.  The worker state
        # (relation, model, allocations) is pickled through the
        # forkserver — everything the driver ships is picklable,
        # ColumnStores by path.
        from ..parallel.executor import refine_context

        state = {
            "relation": problem.relation,
            "model": problem.model,
            "objective": problem.objective,
            "repeat": problem.repeat,
            "active_rows": problem.active_rows,
            "groups": groups,
            "allocations": per_group,
            "config": refine_config,
            "warm": warm,
        }
        pool = None
        by_group: dict[int, dict] = dict(reused)
        futures: dict[int, object] = {}
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(config.n_workers, len(pending)),
                mp_context=refine_context(),
                initializer=_init_refine_worker,
                initargs=(state,),
            )
            futures = {
                g: pool.submit(_refine_worker_task, g) for g in pending
            }
            # One shared deadline across all futures (not per-future):
            # a wedged worker pool must degrade to the sequential path
            # within the evaluation's own time budget, never hang.
            deadline = time.monotonic() + refine_config.time_limit
            for g, future in futures.items():
                remaining = max(0.0, deadline - time.monotonic())
                by_group[g] = future.result(timeout=remaining)[1]
            pool.shutdown(wait=True)
            return [by_group[g] for g in refined]
        except BaseException as error:
            if pool is not None:
                # Salvage whatever already finished before tearing down:
                # the fallback then re-runs only the missing partitions.
                for g, future in futures.items():
                    if g not in by_group and future.done():
                        try:
                            by_group[g] = future.result(timeout=0)[1]
                        except BaseException:
                            pass
                # cancel_futures leaves *running* workers solving: kill
                # them, or the sequential re-run of those partitions
                # competes with its own orphans for the CPU.  The list is
                # taken first: shutdown() drops the pool's reference.
                processes = list(
                    (getattr(pool, "_processes", None) or {}).values()
                )
                pool.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    try:
                        process.terminate()
                    except Exception:  # pragma: no cover - already gone
                        pass
            if not isinstance(error, Exception):
                raise
            warnings.warn(
                f"parallel refine degraded after worker-pool failure"
                f" ({type(error).__name__}: {error});"
                f" {len(refined) - len(by_group)} of {len(refined)}"
                f" partitions re-run sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
    else:
        by_group = dict(reused)
    for g in refined:
        if g not in by_group:
            # Sequential refines trace per-partition; parallel refines run
            # in pool children that do not carry the trace context (their
            # wall time is covered by the parent ``refine.fanout`` span).
            with stage("refine", partition=g):
                by_group[g] = _refine_partition(
                    problem.relation,
                    problem.model,
                    problem.objective,
                    problem.repeat,
                    problem.active_rows,
                    groups[g],
                    per_group[g],
                    refine_config,
                    store=store,
                    warm_x=warm.get(g),
                )
    return [by_group[g] for g in refined]
