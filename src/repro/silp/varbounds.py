"""Finite multiplicity bounds for decision variables.

The big-M encoding of indicator constraints (``solver.model``) and the
package-size bounds of Appendix B (assumption A2) both need finite upper
bounds on the multiplicities ``x_i``.  Following the PaQL translation
(Section 2.1) and the derivations referenced in Appendix B, bounds come
from:

* ``REPEAT l`` — ``x_i ≤ l + 1``;
* ``COUNT(*) ≤ v`` / ``= v`` — ``x_i ≤ v`` and package size ``≤ v``;
* any deterministic/mean constraint ``Σ c_i x_i ≤ v`` with nonnegative
  coefficients — ``x_i ≤ ⌊v / c_i⌋`` for ``c_i > 0`` (e.g. a budget
  constraint ``SUM(price) ≤ 1000``).

When no finite bound is derivable for some variable, an
:class:`UnboundedError` is raised with guidance (add REPEAT or a COUNT
constraint).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..db.expressions import Expr
from ..errors import UnboundedError
from .model import MeanConstraint, OP_EQ, OP_GE, OP_LE, StochasticPackageProblem

#: Tolerance guarding against float round-off in ⌊v/c⌋.
_EPS = 1e-9

CoefficientFn = Callable[[Expr], np.ndarray]


def derive_variable_bounds(
    problem: StochasticPackageProblem,
    mean_coefficients: CoefficientFn,
) -> np.ndarray:
    """Per-variable integer upper bounds (length ``problem.n_vars``).

    ``mean_coefficients`` maps a constraint expression to its per-active-
    row coefficient vector in the deterministic approximation (exact
    values for deterministic expressions, ``μ̂`` estimates for
    expectations) — bounds derived from those coefficients are valid for
    every DILP the evaluators build.
    """
    n = problem.n_vars
    ub = np.full(n, np.inf)
    if problem.repeat is not None:
        ub = np.minimum(ub, problem.repeat + 1)
    for constraint in problem.mean_constraints:
        if constraint.op not in (OP_LE, OP_EQ):
            continue
        coeffs = np.asarray(mean_coefficients(constraint.expr), dtype=float)
        if coeffs.shape != (n,):
            raise ValueError("coefficient vector has wrong length")
        if np.any(coeffs < 0):
            continue  # mixed signs: no simple per-variable bound
        rhs = constraint.rhs
        if rhs < 0:
            # Nonnegative coefficients cannot reach a negative bound;
            # the model is infeasible, which the solver will report.
            ub = np.zeros(n)
            continue
        positive = coeffs > 0
        with np.errstate(divide="ignore"):
            limits = np.floor(rhs / coeffs[positive] + _EPS)
        ub[positive] = np.minimum(ub[positive], limits)
    unbounded = ~np.isfinite(ub)
    if np.any(unbounded):
        raise UnboundedError(
            f"{int(unbounded.sum())} decision variables have no finite"
            " multiplicity bound; add a REPEAT limit, a COUNT(*) <="
            " constraint, or a budget constraint with positive coefficients"
        )
    return np.maximum(ub, 0).astype(np.int64)


def package_size_bounds(
    problem: StochasticPackageProblem,
    mean_coefficients: CoefficientFn,
    variable_bounds: np.ndarray | None = None,
) -> tuple[float, float]:
    """Bounds ``(l̲, l̄)`` on the total package size ``Σ x_i`` (Appendix B, A2).

    ``l̲ = 0`` always holds; COUNT constraints tighten both sides, and
    all-positive ≤-constraints tighten ``l̄`` via their smallest
    coefficient.  ``variable_bounds`` provides the fallback ``Σ ub_i``.
    """
    n = problem.n_vars
    low = 0.0
    high = np.inf
    for constraint in problem.mean_constraints:
        coeffs = np.asarray(mean_coefficients(constraint.expr), dtype=float)
        if coeffs.shape != (n,):
            raise ValueError("coefficient vector has wrong length")
        rhs = constraint.rhs
        is_count_like = np.allclose(coeffs, 1.0)
        if is_count_like:
            if constraint.op in (OP_LE, OP_EQ):
                high = min(high, rhs)
            if constraint.op in (OP_GE, OP_EQ):
                low = max(low, rhs)
            continue
        if (
            constraint.op in (OP_LE, OP_EQ)
            and rhs >= 0
            and np.all(coeffs > 0)
        ):
            high = min(high, np.floor(rhs / coeffs.min() + _EPS))
        if (
            constraint.op in (OP_GE, OP_EQ)
            and rhs > 0
            and np.all(coeffs > 0)
        ):
            low = max(low, np.ceil(rhs / coeffs.max() - _EPS))
    if not np.isfinite(high) and variable_bounds is not None:
        high = float(np.sum(variable_bounds))
    return low, high
