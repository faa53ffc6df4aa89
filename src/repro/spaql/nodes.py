"""sPaQL abstract syntax tree.

The AST mirrors the surface syntax (Figure 8's railroad diagram):
constraint nodes keep their written form (``COUNT(*) BETWEEN``,
``EXPECTED SUM``, ``WITH PROBABILITY``) so the pretty-printer can
round-trip queries; normalization into the SILP IR happens in
``repro.silp.compile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..db.expressions import Expr

#: Comparison operators allowed in package constraints.
CONSTRAINT_OPS = ("<=", ">=", "=", "<", ">")

SENSE_MINIMIZE = "minimize"
SENSE_MAXIMIZE = "maximize"


@dataclass(frozen=True)
class CountConstraint:
    """``COUNT(*) ⊙ v`` or ``COUNT(*) BETWEEN lo AND hi``."""

    low: Optional[float] = None
    high: Optional[float] = None
    op: Optional[str] = None
    value: Optional[float] = None

    def __post_init__(self):
        between = self.low is not None or self.high is not None
        simple = self.op is not None
        if between == simple:
            raise ValueError("CountConstraint is either BETWEEN or a comparison")


@dataclass(frozen=True)
class SumConstraint:
    """``[EXPECTED] SUM(f) ⊙ v``."""

    expr: Expr
    op: str
    rhs: float
    expected: bool = False


@dataclass(frozen=True)
class ProbabilisticConstraint:
    """``SUM(f) ⊙ v WITH PROBABILITY ⊙p p``.

    ``prob_op`` is ``>=`` or ``<=``; the ``<=`` form is sugar that the
    compiler rewrites by flipping the inner constraint (Section 2.3).
    """

    expr: Expr
    op: str
    rhs: float
    prob_op: str
    probability: float


Constraint = Union[CountConstraint, SumConstraint, ProbabilisticConstraint]


@dataclass(frozen=True)
class SumObjective:
    """``MINIMIZE/MAXIMIZE [EXPECTED] SUM(f)``."""

    sense: str
    expr: Expr
    expected: bool = False


@dataclass(frozen=True)
class ProbabilityObjective:
    """``MINIMIZE/MAXIMIZE PROBABILITY OF SUM(f) ⊙ v``."""

    sense: str
    expr: Expr
    op: str
    rhs: float


Objective = Union[SumObjective, ProbabilityObjective]


@dataclass(frozen=True)
class PackageQuery:
    """A parsed sPaQL query."""

    table: str
    alias: Optional[str] = None
    repeat: Optional[int] = None
    where: Optional[Expr] = None
    constraints: tuple = field(default_factory=tuple)
    objective: Optional[Objective] = None

