"""Sample Average Approximation (Section 3.1): ``FormulateSAA``.

Builds the deterministic ILP ``SAA_{Q,M}``: expectations are replaced by
the precomputed μ̂ estimates, and each probabilistic constraint
``Pr(Σ t_i.A x_i ⊙ v) ≥ p`` contributes one binary indicator ``y_j`` per
scenario with the indicator constraint ``y_j = 1 ⟹ Σ s_ij x_i ⊙ v`` and
the cardinality constraint ``Σ_j y_j ≥ ⌈pM⌉``.

Probability objectives are handled with the same machinery, maximizing
the satisfied-scenario fraction (the SAA analogue of the epigraphic
rewriting of Section 2.3); minimization flips the indicator to count
violated scenarios conservatively.

Size is Θ(N·M·K) coefficients — the blow-up that motivates
SummarySearch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..silp.canonical import flip_chance_constraint
from ..silp.model import ProbabilityObjectiveIR, SENSE_MAX, SENSE_MIN
from ..solver.model import MILPBuilder
from .warmstart import apply_warm_start


@dataclass
class SAAFormulation:
    """The materialized DILP plus bookkeeping to interpret solutions."""

    builder: MILPBuilder
    x_indices: np.ndarray
    n_scenarios: int
    objective_indicators: np.ndarray | None = None
    objective_flipped: bool = False

    def extract_package(self, solution: np.ndarray) -> np.ndarray:
        """Integer multiplicities of the decision variables in ``solution``."""
        return np.round(solution[self.x_indices]).astype(np.int64)

    def claimed_objective(self, solution: np.ndarray, ctx) -> float | None:
        """The objective value the DILP believes it achieved.

        For expectation objectives this is the μ̂-based value; for
        probability objectives it is the satisfied-scenario fraction of
        the optimization sample.
        """
        x = self.extract_package(solution)
        if self.objective_indicators is None:
            return ctx.mean_objective_value(x)
        indicator_total = float(
            np.round(solution[self.objective_indicators]).sum()
        )
        fraction = indicator_total / self.n_scenarios
        return 1.0 - fraction if self.objective_flipped else fraction


def formulate_saa(
    ctx, n_scenarios: int, warm_x: np.ndarray | None = None
) -> SAAFormulation:
    """``FormulateSAA(Q, S)`` with ``|S| = n_scenarios`` (Algorithm 1, line 3).

    The deterministic block is reused from the previous formulation (only
    the scenario-indicator rows are appended), and ``warm_x`` — the
    previous iteration's package — seeds
    the solver as a MIP start when it is still feasible.
    """
    builder, x_idx = ctx.base_milp()
    indicator_blocks = []
    for constraint in ctx.problem.chance_constraints:
        matrix = ctx.optimization_matrix(constraint.expr, n_scenarios)
        y_idx = builder.add_variables(
            f"y_cc{id(constraint) & 0xFFFF}", n_scenarios, lb=0.0, ub=1.0, integer=True
        )
        for j in range(n_scenarios):
            builder.add_indicator(
                int(y_idx[j]), x_idx, matrix[:, j], constraint.inner_op, constraint.rhs
            )
        required = math.ceil(constraint.probability * n_scenarios)
        builder.add_constraint(y_idx, np.ones(n_scenarios), lb=required)
        indicator_blocks.append(
            (y_idx, matrix, constraint.inner_op, constraint.rhs)
        )

    objective = ctx.problem.objective
    objective_indicators = None
    objective_flipped = False
    if isinstance(objective, ProbabilityObjectiveIR):
        inner_op, rhs = objective.inner_op, objective.rhs
        if objective.sense == SENSE_MIN:
            # Count violated scenarios instead: y=1 ⟹ inner violated,
            # so maximizing Σy minimizes the satisfied fraction 1 − Σy/M.
            inner_op, _ = flip_chance_constraint(inner_op, 0.5)
            objective_flipped = True
        matrix = ctx.optimization_matrix(objective.expr, n_scenarios)
        y_idx = builder.add_variables(
            "y_obj", n_scenarios, lb=0.0, ub=1.0, integer=True
        )
        for j in range(n_scenarios):
            builder.add_indicator(int(y_idx[j]), x_idx, matrix[:, j], inner_op, rhs)
        builder.set_objective(
            y_idx, np.full(n_scenarios, 1.0 / n_scenarios), SENSE_MAX
        )
        objective_indicators = y_idx
        indicator_blocks.append((y_idx, matrix, inner_op, rhs))
    apply_warm_start(builder, x_idx, warm_x, indicator_blocks)
    return SAAFormulation(
        builder=builder,
        x_indices=x_idx,
        n_scenarios=n_scenarios,
        objective_indicators=objective_indicators,
        objective_flipped=objective_flipped,
    )
