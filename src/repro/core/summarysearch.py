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

Every CSA-Solve restarts from ``x^{(0)}`` at α = 0, so a rung depends on
its ``(M, Z)`` and not on the rung before it.  Once the ladder has
branched and its last rung was solver-bound, the process's ladder lane
(``core/lane.py``) solves the rung the same branch leads to next while
this thread solves the current one; rungs are consumed in ladder order,
so the answer is the sequential one.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

import numpy as np

from ..config import SPQConfig
from ..obs import activate, bill, current_session, fork_session, stage
from ..obs.events import KIND_CSA_ROUND, emit
from ..silp.model import (
    ExpectationObjectiveIR,
    SENSE_MAX,
    StochasticPackageProblem,
)
from ..utils.timing import Deadline, Stopwatch
from . import lane
from .approx import (
    compute_objective_bounds,
    epsilon_min,
    no_package_result,
    prove_no_package,
)
from .context import EvaluationContext
from .csa import csa_solve
from .deterministic import infeasibility_meta, solve_unconstrained
from .package import Package, PackageResult
from .stats import IterationRecord, RunStats
from .validator import Validator

METHOD_SUMMARY_SEARCH = "summarysearch"

#: Share of a rung's wall spent in MILP solves above which the next rung
#: goes to the lane: α-fit-bound and memo-replayed rungs hold the GIL,
#: so overlapping them buys nothing.
LANE_SOLVE_SHARE = 0.5


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
            meta=infeasibility_meta(ctx, q0_result),
        )
    x0 = np.round(q0_result.x[: problem.n_vars]).astype(np.int64)
    start_x = x0
    if warm_x is not None and len(warm_x) == problem.n_vars:
        start_x = np.asarray(warm_x, dtype=np.int64)

    # --- bounds and ε (Section 5.4) --------------------------------------------
    bounds = (
        compute_objective_bounds(ctx) if problem.objective is not None else None
    )
    # An optimal Q₀ bounds ω̂ by its objective.  A time-limited one may
    # hand back its warm-start hint, whose objective certifies nothing:
    # it contributes HiGHS's dual bound (caller sense), or nothing.
    relaxation_objective = None
    if isinstance(problem.objective, ExpectationObjectiveIR):
        relaxation_objective = (
            ctx.mean_objective_value(x0)
            if q0_result.is_optimal
            else q0_result.meta.get("best_bound")
        )
    if bounds is not None and relaxation_objective is not None:
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
    ahead = _Ahead(ctx, bounds, start_x, epsilon, deadline)
    #: The branch of the last (M, Z) transition (True: Z grew) and
    #: whether the rung before it was solver-bound.
    branch = None
    solver_bound = False
    try:
        while True:
            iteration += 1
            rung = (n_scenarios, n_summaries)
            outcome = ahead.take(rung)
            if outcome is None:
                ahead.discard()
                if branch is not None and solver_bound:
                    ahead.start(
                        _next_rung(config, *rung, quality_rounds, branch),
                        iteration + 1,
                    )
                outcome = _solve_rung(
                    ctx, validator, bounds, start_x, rung, epsilon, deadline,
                    iteration,
                )
            result, solver_bound = outcome
            z_used = min(n_summaries, n_scenarios)
            record = IterationRecord(
                method=METHOD_SUMMARY_SEARCH,
                iteration=iteration,
                n_scenarios=n_scenarios,
                n_summaries=z_used,
                csa_iterations=len(result.iterations),
                solve_time=sum(r.solve_time for r in result.iterations),
                validate_time=sum(r.validate_time for r in result.iterations),
                summary_time=sum(r.summary_time for r in result.iterations),
                feasible=result.feasible,
                objective=result.objective,
                epsilon_upper=(
                    result.report.epsilon_upper
                    if result.report is not None else None
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
                Z=z_used,
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
                        "final_Z": z_used,
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

            # An infeasible first rung (so no feasible package yet) asks
            # the member bound once whether any package can be feasible.
            if iteration == 1 and not result.feasible:
                proof = prove_no_package(ctx)
                if proof is not None:
                    stats.total_time = deadline.elapsed
                    return no_package_result(METHOD_SUMMARY_SEARCH, stats, proof)
            if deadline.expired():
                stats.timed_out = True
                break
            branch = bool(result.feasible and n_summaries < n_scenarios)
            step = _next_rung(config, *rung, quality_rounds, branch)
            if step is None:
                # Out of scenarios, or the user ε is unattainable with
                # the available bounds: return the best solution found.
                break
            n_scenarios, n_summaries, quality_rounds = step
    finally:
        ahead.close()

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


def _next_rung(config, n_scenarios, n_summaries, quality_rounds, quality):
    """The rung after ``(M, Z)`` on one branch, or None where the ladder stops.

    ``quality``: the rung was feasible with ``Z < M``, so Z grows (at most
    ``max_quality_rounds`` times); otherwise M grows up to
    ``max_scenarios``.  Returns ``(M, Z, quality_rounds)``.
    """
    if quality:
        if n_summaries >= n_scenarios:
            return None
        quality_rounds += 1
        if (
            config.max_quality_rounds is not None
            and quality_rounds > config.max_quality_rounds
        ):
            return None
        n_summaries += min(config.summary_increment, n_scenarios - n_summaries)
        return n_scenarios, n_summaries, quality_rounds
    if n_scenarios >= config.max_scenarios:
        return None
    return n_scenarios + config.scenario_increment, n_summaries, quality_rounds


def _solve_rung(
    ctx, validator, bounds, start_x, rung, epsilon, deadline, iteration, **attrs
):
    """CSA-Solve at one ``(M, Z)`` rung, and whether it was solver-bound."""
    n_scenarios, n_summaries = rung
    n_summaries = min(n_summaries, n_scenarios)
    started = time.perf_counter()
    with stage(
        "csa", iteration=iteration, M=n_scenarios, Z=n_summaries, **attrs
    ):
        result = csa_solve(
            ctx, validator, bounds, start_x, n_scenarios, n_summaries,
            epsilon, deadline=deadline,
        )
    wall = time.perf_counter() - started
    solved = sum(r.solve_time for r in result.iterations)
    return result, solved >= LANE_SOLVE_SHARE * wall


class _Ahead:
    """The ladder's rung on the lane, if any (``core/lane.py``).

    The lane rung has its own :class:`Validator` (a validator re-keys one
    Philox) and a deadline the ladder can cut short; it runs under a
    child trace session that :meth:`take` merges into the query's trace
    in ladder order and :meth:`discard` drops.
    """

    def __init__(self, ctx, bounds, start_x, epsilon, deadline):
        self.ctx = ctx
        self.args = (bounds, start_x, epsilon)
        self.deadline = deadline
        self.validator: Validator | None = None
        self.rung = None
        self.future = None
        self.cancelled: threading.Event | None = None
        #: Discarded rungs still winding down; :meth:`close` waits for them.
        self.abandoned: list = []

    def start(self, step, iteration: int) -> None:
        """Hand rung ``step`` (from :func:`_next_rung`) to the lane, if free."""
        if step is None:
            return
        rung = step[:2]
        if self.validator is None:
            # What two threads would otherwise both build lazily is
            # built here, before the lane can run.
            self.ctx.prepare_threads()
            self.validator = Validator(self.ctx)
        cancelled = threading.Event()
        ctx, validator = self.ctx, self.validator
        bounds, start_x, epsilon = self.args
        deadline = _Cancellable(self.deadline, cancelled)

        def solve():
            cpu = time.thread_time()
            forked = fork_session()
            with activate(*forked) if forked else nullcontext():
                outcome = _solve_rung(
                    ctx, validator, bounds, start_x, rung, epsilon, deadline,
                    iteration, lane=True,
                )
            bill("cpu_s", time.thread_time() - cpu)
            return outcome, forked[0] if forked else None

        future = lane.try_submit(solve)
        if future is not None:
            bill("lane_rungs_started", 1)
            self.rung, self.future, self.cancelled = rung, future, cancelled

    def take(self, rung):
        """The lane's ``(result, solver_bound)`` for ``rung``, or None."""
        if self.future is None or self.rung != rung:
            return None
        outcome, child = self.future.result()
        self.future = None
        session = current_session()
        if child is not None and session is not None:
            session.merge(child)
        bill("lane_rungs_consumed", 1)
        return outcome

    def discard(self) -> None:
        """Cut the lane rung short: the ladder did not take it."""
        if self.future is None:
            return
        self.cancelled.set()
        self.abandoned.append(self.future)
        self.future = None
        bill("lane_rungs_discarded", 1)

    def close(self) -> None:
        """Discard the lane rung and wait until none of ours is running.

        Waiting keeps a discarded rung from outliving its evaluation (its
        relation, caches and memo); cut short, it ends within one solve.
        """
        self.discard()
        for future in self.abandoned:
            try:
                future.result()
            except Exception:  # noqa: BLE001 - an answer nobody asked for
                pass
        self.abandoned.clear()


class _Cancellable:
    """The ladder's deadline, expired at once when its rung is discarded."""

    def __init__(self, deadline, cancelled: threading.Event):
        self._deadline = deadline
        self._cancelled = cancelled

    def expired(self) -> bool:
        return self._cancelled.is_set() or self._deadline.expired()

    def remaining(self) -> float:
        return 0.0 if self._cancelled.is_set() else self._deadline.remaining()


def _keep_best(ctx, best, candidate):
    if best is None:
        return candidate
    if candidate.feasible != best.feasible:
        return candidate if candidate.feasible else best
    if candidate.feasible and ctx.better(candidate.objective, best.objective):
        return candidate
    return best
