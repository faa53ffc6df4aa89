"""MILP solving layer.

The paper uses IBM CPLEX; this layer provides the same capabilities on an
open stack: a matrix-form :class:`MILPBuilder` with indicator-constraint
support (big-M encoding equivalent to CPLEX indicator constraints), a
HiGHS backend through ``scipy.optimize.milp`` behind an exact root-LP
reduction (:mod:`repro.solver.reduce`), and a self-contained LP-based
branch-and-bound — never reduced — used as a fallback and as a
differential-testing oracle.
"""

from .model import BuilderCheckpoint, MILPBuilder
from .result import MILPResult, STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_TIME_LIMIT, STATUS_FEASIBLE
from .highs import solve_with_highs
from .branch_bound import solve_with_branch_bound

__all__ = [
    "BuilderCheckpoint",
    "MILPBuilder",
    "MILPResult",
    "STATUS_OPTIMAL",
    "STATUS_INFEASIBLE",
    "STATUS_UNBOUNDED",
    "STATUS_TIME_LIMIT",
    "STATUS_FEASIBLE",
    "solve_with_highs",
    "solve_with_branch_bound",
]
