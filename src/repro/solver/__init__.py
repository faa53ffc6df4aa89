"""MILP solving layer.

The paper uses IBM CPLEX as an off-the-shelf component; this layer
provides the same capabilities on an open stack: a matrix-form
:class:`MILPBuilder` with indicator-constraint support (big-M encoding
equivalent to CPLEX indicator constraints), solved by HiGHS through
``scipy.optimize.milp`` behind an exact root-LP reduction
(:mod:`repro.solver.reduce`).
"""

from .model import MILPBuilder
from .result import MILPResult, STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_TIME_LIMIT, STATUS_FEASIBLE
from .highs import solve_with_highs

__all__ = [
    "MILPBuilder",
    "MILPResult",
    "STATUS_OPTIMAL",
    "STATUS_INFEASIBLE",
    "STATUS_UNBOUNDED",
    "STATUS_TIME_LIMIT",
    "STATUS_FEASIBLE",
    "solve_with_highs",
]
