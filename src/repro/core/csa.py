"""Conservative Summary Approximation and CSA-Solve (Sections 4–5).

``formulate_csa`` builds the reduced DILP ``CSA_{Q,M,Z}``: each
probabilistic constraint is approximated by ``Z`` α-summaries with one
indicator each and the cardinality constraint ``Σ_z y_z ≥ ⌈pZ⌉`` —
Θ(N·Z·K) coefficients, independent of ``M`` (Section 4.1).

``csa_solve`` implements Algorithm 3: starting from the
probabilistically-unconstrained solution ``x^{(0)}``, it alternates
validation (measuring per-item p-surpluses), α updates
(``GuessOptimalConservativeness``), summary regeneration (greedy ``G_z``
from the incumbent's scenario scores, with convergence acceleration when
α decreases), and re-solving — until it certifies a feasible
``(1+ε)``-approximate solution, detects a cycle, or exhausts its
iteration budget, in which case the best solution in the history is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..obs import stage
from ..obs.events import KIND_CSA_ROUND, emit
from ..silp.canonical import flip_chance_constraint
from ..silp.model import SENSE_MAX, SENSE_MIN
from ..solver.model import MILPBuilder
from ..solver.result import STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_UNBOUNDED
from ..utils.timing import Stopwatch
from .alpha import guess_alpha, snap_to_grid
from .approx import epsilon_certificate
from .package import package_key
from .summaries import SummaryBuilder, SummarySet
from .validator import ValidationReport, Validator
from .warmstart import apply_warm_start


#: CSA-Solve iterations before falling back to the best solution in the
#: history (guards against slow α oscillation).
MAX_CSA_ITERATIONS = 25


@dataclass
class CSAFormulation:
    """The reduced DILP plus bookkeeping to interpret solutions."""

    builder: MILPBuilder
    x_indices: np.ndarray
    n_scenarios: int
    objective_weights: np.ndarray | None = None
    objective_indicators: np.ndarray | None = None
    objective_flipped: bool = False

    def extract_package(self, solution: np.ndarray) -> np.ndarray:
        """Integer multiplicities of the decision variables in ``solution``."""
        return np.round(solution[self.x_indices]).astype(np.int64)

    def claimed_objective(self, solution: np.ndarray, ctx) -> float | None:
        """Conservative objective claim of the CSA solution.

        For probability objectives: the guaranteed satisfied fraction
        ``Σ_z y_z ⌈α|Π_z|⌉ / M`` (or its complement when minimizing).
        """
        x = self.extract_package(solution)
        if self.objective_indicators is None:
            return ctx.mean_objective_value(x)
        chosen = np.round(solution[self.objective_indicators])
        fraction = float(self.objective_weights @ chosen)
        return 1.0 - fraction if self.objective_flipped else fraction


def formulate_csa(
    ctx,
    item_summaries: dict[int, SummarySet | None],
    n_scenarios: int,
    warm_x: np.ndarray | None = None,
) -> CSAFormulation:
    """Build ``CSA_{Q,M,Z}`` from per-item summaries.

    ``item_summaries[k] = None`` encodes α = 0 for item ``k``: the
    constraint is dropped (0% of scenarios need to be satisfied), and a
    probability objective degenerates to a feasibility objective.

    The deterministic block is reused across calls (only the
    summary-indicator rows are appended), and ``warm_x`` — the incumbent
    the summaries were built around — seeds
    the solver as a MIP start when it is feasible for the new CSA.
    """
    builder, x_idx = ctx.base_milp()
    objective_weights = None
    objective_indicators = None
    objective_flipped = False
    indicator_blocks = []
    for item in ctx.chance_items():
        summary_set = item_summaries.get(item["index"])
        if summary_set is None:
            continue
        n_summaries = summary_set.n_summaries
        y_idx = builder.add_variables(
            f"y_item{item['index']}", n_summaries, lb=0.0, ub=1.0, integer=True
        )
        inner_op = summary_set.inner_op
        for z in range(n_summaries):
            builder.add_indicator(
                int(y_idx[z]), x_idx, summary_set.values[:, z], inner_op, item["rhs"]
            )
        indicator_blocks.append(
            (y_idx, summary_set.values, inner_op, item["rhs"])
        )
        if not item["is_objective"]:
            required = math.ceil(item["p"] * n_summaries)
            builder.add_constraint(y_idx, np.ones(n_summaries), lb=required)
            continue
        weights = summary_set.guaranteed_fraction_weights(n_scenarios)
        builder.set_objective(y_idx, weights, SENSE_MAX)
        objective_weights = weights
        objective_indicators = y_idx
        objective_flipped = item.get("sense") == SENSE_MIN
    apply_warm_start(builder, x_idx, warm_x, indicator_blocks)
    return CSAFormulation(
        builder=builder,
        x_indices=x_idx,
        n_scenarios=n_scenarios,
        objective_weights=objective_weights,
        objective_indicators=objective_indicators,
        objective_flipped=objective_flipped,
    )


def _objective_item_for_summaries(item: dict) -> dict:
    """Summaries for a minimized probability objective bound violations.

    Maximization keeps the item's own inner constraint; minimization
    flips it so each satisfied summary certifies violated scenarios.
    """
    if not item["is_objective"] or item.get("sense") != SENSE_MIN:
        return item
    flipped_op, _ = flip_chance_constraint(item["inner_op"], 0.5)
    flipped = dict(item)
    flipped["inner_op"] = flipped_op
    return flipped


@dataclass
class CSAIteration:
    """One validate/guess/summarize/solve round of CSA-Solve."""

    q: int
    alphas: tuple
    feasible: bool
    objective: float | None
    claimed: float | None
    epsilon_upper: float | None
    surpluses: tuple
    solver_status: str = ""
    solve_time: float = 0.0
    summary_time: float = 0.0
    validate_time: float = 0.0


@dataclass
class CSASolveResult:
    """Outcome of one CSA-Solve call (Algorithm 3's return value)."""

    x: np.ndarray | None
    report: ValidationReport | None
    feasible: bool
    eps_ok: bool
    iterations: list = field(default_factory=list)
    cycle_detected: bool = False

    @property
    def objective(self) -> float | None:
        return self.report.objective if self.report is not None else None


def _solution_key(x: np.ndarray, alphas: list[float]) -> tuple:
    return (*package_key(x), tuple(round(a, 9) for a in alphas))


#: Solver outcomes a round answer is kept for (see ``solver/highs.py``).
_REPLAYABLE = (STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED)


def _round_key(ctx, n_scenarios, n_summaries, histories, x) -> tuple:
    """Memo key of one CSA round's outcome: everything it is built from.

    The α update reads each item's ``(α, surplus)`` history (its grid
    step is ``Z/M``, its floor the item's probability), and the snapped
    α and acceleration flags follow from it.  The summaries add the
    optimization scenarios (model, seed, expression, active rows, ``M``),
    the partitions (seed, ``M``, ``Z``) and the incumbent ``x``; the
    model adds the base block and each item's right-hand side and
    probability, the MIP start is ``x`` itself and the solve adds
    ``mip_gap``.  What is shared by every round of the evaluation is in
    :meth:`EvaluationContext.round_head`.
    """
    return (
        *ctx.round_head(), n_scenarios, n_summaries,
        tuple(tuple(history) for history in histories), *package_key(x),
    )


def csa_solve(
    ctx,
    validator: Validator,
    bounds,
    x0: np.ndarray,
    n_scenarios: int,
    n_summaries: int,
    epsilon: float,
    deadline=None,
) -> CSASolveResult:
    """Algorithm 3: find the best solution for fixed ``M`` and ``Z``."""
    items = [dict(item) for item in ctx.chance_items()]
    n_items = len(items)
    if n_items == 0:
        # No probabilistic parts: x0 already solves the full problem.
        report = validator.validate(x0)
        return CSASolveResult(
            x=x0, report=report, feasible=report.feasible, eps_ok=True
        )
    summary_builder = SummaryBuilder(ctx, n_scenarios, n_summaries)
    grid_step = max(n_summaries / n_scenarios, 1e-9)
    sense = ctx.objective_sense

    alphas = [0.0] * n_items
    histories: list[list[tuple[float, float]]] = [[] for _ in range(n_items)]
    x = np.asarray(x0, dtype=np.int64)
    claimed: float | None = None
    #: Whether the solve that produced the current ``x`` was a memo hit.
    solve_memo = False
    seen: set = set()
    iterations: list[CSAIteration] = []
    best: CSASolveResult | None = None
    cycle = False

    for q in range(MAX_CSA_ITERATIONS + 1):
        key = _solution_key(x, alphas)
        if key in seen:
            cycle = True
            break
        seen.add(key)

        validate_watch = Stopwatch()
        hits_before = validator.memo_hits
        with validate_watch:
            report = validator.validate(x, claimed_objective=claimed)
        eps_q = (
            epsilon_certificate(sense, report.objective, bounds)
            if sense and report.feasible
            else None
        )
        report.epsilon_upper = eps_q
        surpluses = _item_surpluses(items, report, claimed)
        record = CSAIteration(
            q=q,
            alphas=tuple(alphas),
            feasible=report.feasible,
            objective=report.objective,
            claimed=claimed,
            epsilon_upper=eps_q,
            surpluses=tuple(surpluses),
            validate_time=validate_watch.elapsed,
        )
        iterations.append(record)
        # ε-trajectory stream: one record per validate/guess/solve round
        # (no-op unless a trace session is active).
        emit(
            KIND_CSA_ROUND,
            q=q,
            epsilon_upper=None if eps_q is None else float(eps_q),
            feasible=bool(report.feasible),
            objective=None if report.objective is None else float(report.objective),
            claimed=None if claimed is None else float(claimed),
            solve_memo=solve_memo,
            validate_memo=validator.memo_hits - hits_before == n_items,
        )

        candidate = CSASolveResult(
            x=x.copy(),
            report=report,
            feasible=report.feasible,
            eps_ok=_eps_ok(report.feasible, eps_q, epsilon, sense),
            iterations=iterations,
        )
        best = _better_result(ctx, best, candidate)
        if candidate.feasible and candidate.eps_ok:
            return candidate

        if deadline is not None and deadline.expired():
            break
        if q == MAX_CSA_ITERATIONS:
            break

        # --- update α per item and rebuild summaries ------------------------
        for k in range(n_items):
            histories[k].append((alphas[k], surpluses[k]))

        # A round, its α update included, is a pure function of these
        # inputs: a repeated query's round on a store replays its outcome
        # instead of refitting α and rebuilding its summaries and model.
        key = _round_key(ctx, n_scenarios, n_summaries, histories, x)
        replay_watch = Stopwatch()
        with replay_watch:
            answer = ctx.memo.get(key)
        if answer is not None:
            fitted, status, next_x, next_claimed = answer
            alphas = list(fitted)
            with stage("solve", q=q) as solve_span:
                solve_span.set("status", status)
                solve_span.set("memo", True)
            solve_memo = True
            record.solver_status = status
            record.solve_time = replay_watch.elapsed
            if next_x is None:
                break
            x = next_x.copy()
            claimed = next_claimed
            continue

        accelerate = [False] * n_items
        for k in range(n_items):
            new_alpha = guess_alpha(histories[k], grid_step, target_p=items[k]["p"])
            accelerate[k] = new_alpha < alphas[k] - 1e-12
            alphas[k] = new_alpha
        snapped = [snap_to_grid(alpha, grid_step) for alpha in alphas]

        summary_watch = Stopwatch()
        with summary_watch, stage("summaries", Z=n_summaries):
            item_summaries: dict[int, SummarySet | None] = {}
            for k, item in enumerate(items):
                summary_item = _objective_item_for_summaries(item)
                item_summaries[item["index"]] = summary_builder.build(
                    summary_item, snapped[k], x, accelerate[k]
                )
        # The incumbent the summaries were built around doubles as the
        # MIP start for the re-solve (Algorithm 3's iterate q).
        with stage("milp.build"):
            formulation = formulate_csa(ctx, item_summaries, n_scenarios, warm_x=x)

        time_limit = ctx.config.solver_time_limit
        if deadline is not None:
            time_limit = min(time_limit, max(deadline.remaining(), 0.01))
        with stage("solve", q=q) as solve_span:
            result = formulation.builder.solve(
                time_limit=time_limit, mip_gap=ctx.config.mip_gap
            )
            solve_span.set("status", result.status)
            solve_memo = bool(result.meta.get("memo"))
            if solve_memo:
                solve_span.set("memo", True)
        record.solver_status = result.status
        record.solve_time = result.solve_time
        record.summary_time = summary_watch.elapsed
        next_x = next_claimed = None
        if result.has_solution:
            next_x = formulation.extract_package(result.x)
            next_claimed = formulation.claimed_objective(result.x, ctx)
        if result.status in _REPLAYABLE:
            # Outcomes that do not depend on the time limit, as for the
            # solve memo: a truncated round is never replayed.
            ctx.memo[key] = (
                tuple(alphas),
                result.status,
                None if next_x is None else next_x.copy(),
                next_claimed,
            )
        if next_x is None:
            # Over-conservative summaries made the CSA infeasible (or the
            # solver hit its limit): return the best solution seen so far;
            # SummarySearch will grow M.
            break
        x = next_x
        claimed = next_claimed

    assert best is not None
    best.cycle_detected = cycle
    return best


def _item_surpluses(items, report: ValidationReport, claimed) -> list[float]:
    """Per-item surplus: constraint p-surplus, or objective claim gap.

    For the probability-objective pseudo-item the surplus is
    ``validated − claimed``: negative means the conservative claim
    overstates reality (α must grow), positive-and-large means the claim
    is needlessly conservative (α can shrink).
    """
    surpluses = []
    for item, validation in zip(items, report.items):
        if not item["is_objective"]:
            surpluses.append(validation.surplus)
        else:
            claim = 0.0 if claimed is None else claimed
            surpluses.append(validation.satisfied_fraction - claim)
    return surpluses


def _eps_ok(
    feasible: bool, eps_q: float | None, epsilon: float, sense: str | None
) -> bool:
    """Termination test of Algorithm 3, line 14.

    Feasibility-only problems (no objective) terminate on feasibility;
    otherwise a certificate ``ε^{(q)} ≤ ε`` is required.  When no
    certificate is computable for the current solution, CSA-Solve keeps
    searching and SummarySearch decides whether to accept the best
    feasible-but-uncertified solution (see ``summarysearch``).
    """
    if not feasible:
        return False
    if sense is None:
        return True
    if eps_q is None:
        return False
    return eps_q <= epsilon


def _better_result(
    ctx, best: CSASolveResult | None, candidate: CSASolveResult
) -> CSASolveResult:
    """``Best(·)`` of Algorithm 3: prefer feasible, then objective value.

    Among infeasible candidates, prefer the one closest to feasibility
    (largest worst-case p-surplus) so that a failed CSA-Solve still hands
    SummarySearch (and the user) the most useful solution.
    """
    if best is None:
        return candidate
    if candidate.feasible != best.feasible:
        return candidate if candidate.feasible else best
    if candidate.feasible:
        return candidate if ctx.better(candidate.objective, best.objective) else best
    return candidate if _worst_surplus(candidate) > _worst_surplus(best) else best


def _worst_surplus(result: CSASolveResult) -> float:
    surpluses = [s for s in result.report.surpluses if s is not None]
    return min(surpluses) if surpluses else 0.0
