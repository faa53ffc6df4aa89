"""IR node classes for stochastic package ILPs.

Notation follows Section 2.3: decision variable ``x_i`` is the
multiplicity of tuple ``t_i``; constraints and objectives are linear in
``x`` with per-tuple coefficients ``f(t_i)`` computed by an expression
over (possibly stochastic) attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..db.expressions import Expr, attributes_of
from ..errors import CompileError

OP_LE = "<="
OP_GE = ">="
OP_EQ = "="

SENSE_MIN = "minimize"
SENSE_MAX = "maximize"


@dataclass(frozen=True)
class MeanConstraint:
    """``E[Σ f(t_i)·x_i] ⊙ v`` — covers deterministic constraints too.

    When ``expr`` references no stochastic attribute the expectation is
    exact and this is an ordinary deterministic linear constraint.
    """

    expr: Expr
    op: str
    rhs: float

    def __post_init__(self):
        if self.op not in (OP_LE, OP_GE, OP_EQ):
            raise CompileError(f"unsupported constraint operator {self.op!r}")


@dataclass(frozen=True)
class ChanceConstraint:
    """Canonical probabilistic constraint ``Pr(Σ f(t_i)·x_i ⊙ v) ≥ p``.

    ``⊙ ∈ {≤, ≥}`` is the *inner* operator (Section 2.3's inner
    constraint); the outer direction is always ``≥ p`` after
    canonicalization.
    """

    expr: Expr
    inner_op: str
    rhs: float
    probability: float

    def __post_init__(self):
        if self.inner_op not in (OP_LE, OP_GE):
            raise CompileError(
                "chance constraints support only <= or >= inner operators"
            )
        if not 0.0 < self.probability < 1.0:
            raise CompileError("chance constraint probability must be in (0, 1)")


Constraint = Union[MeanConstraint, ChanceConstraint]


@dataclass(frozen=True)
class ExpectationObjectiveIR:
    """``min/max E[Σ f(t_i)·x_i]`` (deterministic f is the special case)."""

    sense: str
    expr: Expr


@dataclass(frozen=True)
class ProbabilityObjectiveIR:
    """``min/max Pr(Σ f(t_i)·x_i ⊙ v)``."""

    sense: str
    expr: Expr
    inner_op: str
    rhs: float


Objective = Union[ExpectationObjectiveIR, ProbabilityObjectiveIR]


@dataclass
class StochasticPackageProblem:
    """A compiled stochastic package query.

    ``active_rows`` are base-relation row positions that survived the
    WHERE clause; decision variables are indexed by position *within*
    ``active_rows``.  Scenario realizations always refer to base-relation
    positions, keeping scenario identity independent of tuple-level
    filtering (Section 2.2's stable key requirement).
    """

    relation: object
    model: Optional[object]
    active_rows: np.ndarray
    objective: Optional[Objective]
    constraints: list = field(default_factory=list)
    repeat: Optional[int] = None
    source_query: Optional[object] = None

    @property
    def n_vars(self) -> int:
        return len(self.active_rows)

    @property
    def mean_constraints(self) -> list[MeanConstraint]:
        return [c for c in self.constraints if isinstance(c, MeanConstraint)]

    @property
    def chance_constraints(self) -> list[ChanceConstraint]:
        return [c for c in self.constraints if isinstance(c, ChanceConstraint)]

    def is_stochastic_expr(self, expr: Expr) -> bool:
        """Whether ``expr`` references any stochastic attribute."""
        if self.model is None:
            return False
        names = attributes_of(expr)
        return any(self.model.is_stochastic(n) for n in names)

    @property
    def has_probability_objective(self) -> bool:
        return isinstance(self.objective, ProbabilityObjectiveIR)

    def validate(self) -> None:
        """Consistency checks run after compilation."""
        if self.n_vars == 0:
            raise CompileError("the WHERE clause filtered out every tuple")
        for constraint in self.constraints:
            if isinstance(constraint, ChanceConstraint):
                if not self.is_stochastic_expr(constraint.expr):
                    raise CompileError(
                        "probabilistic constraint over a deterministic"
                        f" expression {constraint.expr}"
                    )
        if isinstance(self.objective, ProbabilityObjectiveIR):
            if not self.is_stochastic_expr(self.objective.expr):
                raise CompileError(
                    "probability objective over a deterministic expression"
                )
