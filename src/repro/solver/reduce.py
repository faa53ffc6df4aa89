"""Exact root-LP reduction in front of HiGHS-MIP.

Package-query MILPs are wide and flat: a thousand integer columns, a
handful of rows, and an optimum that differs from the LP relaxation's in
a few dozen columns.  HiGHS-MIP finds that out too, but only after
presolve, heuristics and a restart over the full width.  This module
solves the root LP first and hands HiGHS only the columns the LP cannot
decide:

1. Solve the root LP with ``linprog``.  LP infeasible means the MILP is
   infeasible.  From the row duals ``y`` compute the reduced costs
   ``d = c − Aᵀy`` and the Lagrangian bound
   ``z_L = y·b + Σ_j d_j·pref_j`` (``pref_j`` = lower bound where
   ``d_j > 0``, else upper).  By weak duality ``z_L`` bounds every
   feasible point from below *whatever* ``y`` is, so nothing here
   trusts the LP solver's optimality claim — only its arithmetic.
2. An integral LP point whose objective meets ``z_L`` is optimal.
3. Every feasible ``x`` satisfies ``c·x ≥ z_L + Σ_j |d_j|·|x_j − pref_j|``;
   an integer column off its preferred bound is off by at least 1.  So
   given an incumbent of value ``U``, a column with ``|d_j| > U − z_L``
   sits at ``pref_j`` in every solution at least as good as the
   incumbent, and can be fixed there.
4. The first incumbent is the validated warm-start hint when there is
   one.  HiGHS solves the columns it leaves free, or — when there is no
   hint, or the hint leaves more — a *probe* over the lowest-``|d|``
   columns (the rest at ``pref``), whose optimum is the next incumbent.
   A solve whose own set contains every column its incumbent leaves
   free has solved the full problem; a probe that falls short is
   widened to exactly those columns once, which always suffices.

Whenever the certificate cannot be established — LP limit or error,
unbounded LP, probe infeasible, more than half the columns left free —
the caller gets ``None`` and solves the full model as before, with the
time already spent taken out of its budget.

Whether a model is reduced is decided by what the model shows (see
:func:`eligible`); there is no switch.  The tests check it against
an LP-based oracle solver that never reduces.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, linprog, milp

from ..obs.resources import charge

#: Size floor, fixed by measurement on the ledger box (2 CPUs, scipy
#: 1.17).  The reduction wins where HiGHS-MIP's time goes into the
#: model's *width* and loses a probe where it goes into a hard core:
#: galaxy (binary columns, one indicator row) gains 2x at 300-500
#: columns and 5-10x from 800 up (N=1200 Q0: 200 -> 15 ms, first CSA
#: solve: 900 -> 150 ms); portfolio (general-integer columns, up to 8
#: indicator rows) *loses* 20% at 360 and at 600 columns, because a
#: 33-column probe of those models costs as much as the full solve,
#: and gains 10-25% at 700 and 800; the n~250 partition solves of
#: ``scale_live`` gain nothing.  700 is the smallest size at which no
#: measured family loses.
MIN_COLUMNS = 700

#: Share of columns the probe MILP keeps (lowest |reduced cost| first).
#: HiGHS ends galaxy solves on 2-4% of the columns and portfolio solves
#: on 1-8%; a probe that holds them all certifies itself in one solve
#: (measured 0.05 / 0.08 / 0.10: portfolio N=800 +1% / -11% / -18%,
#: galaxy -84% / -83% / -82%).
_PROBE_SHARE = 0.08
_PROBE_MIN = 32

#: LP values closer than this to an integer count as integral; also the
#: row/bound tolerance of the rounded LP point (HiGHS's own default).
_TOL = 1e-6

#: Relative slack added to ``U − z_L`` before comparing reduced costs
#: against it, so rounding in ``d`` and ``z_L`` can only fix *fewer*
#: columns, never one too many.
_SLACK = 1e-9

VERDICT_LP_INTEGRAL = "lp_integral"
VERDICT_LP_INFEASIBLE = "lp_infeasible"
VERDICT_REDUCED = "reduced"
VERDICT_FULL = "full"

# scipy.optimize.linprog / milp status codes.
_OPTIMAL = 0
_LIMIT = 1
_INFEASIBLE = 2


def eligible(c: np.ndarray, integrality: np.ndarray) -> bool:
    """Whether the reduction can pay for its root LP on this model.

    All columns integer (the fixing argument needs unit steps), at least
    :data:`MIN_COLUMNS` of them, and an objective on at least half of
    them: reduced costs separate columns only where the objective does,
    so a CSA model whose objective sits on a few indicator columns (a
    probability objective) would pay for an LP that fixes nothing.
    """
    n = c.size
    return (
        n >= MIN_COLUMNS
        and bool(integrality.all())
        and 2 * np.count_nonzero(c) >= n
    )


def milp_options(
    mip_gap: float, time_limit: float | None, spent: float = 0.0
) -> dict:
    """``scipy.optimize.milp`` options with ``spent`` seconds off the budget.

    HiGHS treats a zero or negative limit as "give up at once", hence
    the floor.
    """
    options = {"mip_rel_gap": max(mip_gap, 0.0), "presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit) - spent, 0.01)
    return options


def solve_reduced(
    c, matrix, row_lb, row_ub, var_lb, var_ub, integrality, hint, mip_gap, time_limit
):
    """Solve an eligible model through its root LP; ``(res, record)``.

    ``res`` mimics ``scipy.optimize.milp``'s result for the *full* model
    (``status``, ``x``, ``mip_dual_bound``, ``mip_gap``, ``message``),
    or is ``None`` when the model is not :func:`eligible` or no
    certificate could be established, and the caller must solve the
    full model.  ``record`` is the ``MILPResult.meta["reduction"]``
    entry (``None`` for a model the reduction never looked at).
    """
    if not eligible(c, integrality):
        return None, None
    started = time.perf_counter()
    n = c.size
    lb, ub = np.ceil(var_lb - _TOL), np.floor(var_ub + _TOL)
    lp, d, z_l = _root_lp(c, matrix, row_lb, row_ub, lb, ub, time_limit)
    record = {
        "verdict": VERDICT_FULL,
        "cols": n,
        "free": n,
        "lp_s": time.perf_counter() - started,
    }
    if lp.status == _INFEASIBLE:
        record.update(verdict=VERDICT_LP_INFEASIBLE, free=0)
        return _result(_INFEASIBLE, None, None, "root LP infeasible"), record
    if lp.status != _OPTIMAL or not np.isfinite(z_l):
        return None, record

    x = np.round(lp.x)
    tolerance = max(mip_gap, _SLACK)
    if np.abs(lp.x - x).max() <= _TOL and _rows_hold(matrix, row_lb, row_ub, x):
        value = float(c @ x)
        if value - z_l <= tolerance * max(1.0, abs(value)):
            record.update(verdict=VERDICT_LP_INTEGRAL, free=0)
            return _result(_OPTIMAL, x, z_l, "root LP integral"), record

    # Columns outside the solved set sit at their preferred bound.
    pref = np.where(d > 0, lb, ub)
    cost = np.abs(d)
    slack = _SLACK * max(1.0, abs(z_l))
    best = np.inf if hint is None else float(c @ hint)
    k = min(n, max(_PROBE_MIN, int(_PROBE_SHARE * n)))
    tau = min(np.partition(cost, k - 1)[k - 1], best - z_l + slack)
    # At most two passes: a probe that does not certify itself is
    # widened once, and the widened set (like a hint's) always does.
    for _ in range(2):
        free = cost <= tau
        record["free"] = int(free.sum())
        if 2 * record["free"] > n:
            return None, record
        options = milp_options(mip_gap, time_limit, time.perf_counter() - started)
        sub = _sub_milp(c, matrix, row_lb, row_ub, lb, ub, free, pref, options)
        if sub.status not in (_OPTIMAL, _LIMIT):
            return None, record
        x = None
        if sub.x is not None:
            x = pref.copy()
            x[free] = np.round(sub.x[:-1])
            best = min(best, float(c @ x))
        # A full-model solution either lives in the solved set or moves
        # a fixed column at least one unit off its preferred bound.
        bound = sub.mip_dual_bound
        if bound is None or not np.isfinite(bound):
            bound = z_l
        bound = min(float(bound), z_l + cost[~free].min())
        widened = best - z_l + slack
        if sub.status == _LIMIT or widened <= tau:
            record["verdict"] = VERDICT_REDUCED
            return _result(sub.status, x, bound, f"reduced: {sub.message}"), record
        tau = widened
    return None, record


def _root_lp(c, matrix, row_lb, row_ub, lb, ub, time_limit):
    """Root LP; returns ``(res, reduced costs, Lagrangian bound)``.

    Ranged and equality rows enter once per finite side, so one sign
    rule covers every dual.  The duals are clipped to their valid sign
    before use: the bound must hold even if the solver's are off.
    """
    upper, lower = np.isfinite(row_ub), np.isfinite(row_lb)
    a_ub = sparse.vstack([matrix[upper], -matrix[lower]], format="csr")
    b_ub = np.concatenate([row_ub[upper], -row_lb[lower]])
    options = {} if time_limit is None else {"time_limit": max(time_limit, 0.01)}
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=np.column_stack([lb, ub]),
        method="highs", options=options,
    )
    charge("lp_solves")
    if res.status != _OPTIMAL:
        return res, None, -np.inf
    y = np.minimum(res.ineqlin.marginals, 0.0)
    d = c - a_ub.T @ y
    moving = d != 0
    z_l = float(y @ b_ub + d[moving] @ np.where(d > 0, lb, ub)[moving])
    return res, d, z_l


def _rows_hold(matrix, row_lb, row_ub, x) -> bool:
    values = matrix @ x
    return bool(np.all(values >= row_lb - _TOL) and np.all(values <= row_ub + _TOL))


def _sub_milp(c, matrix, row_lb, row_ub, lb, ub, free, pref, options):
    """HiGHS over the ``free`` columns, the rest folded into the rows.

    The fixed columns' objective share rides along as one extra column
    pinned at 1, so HiGHS's relative gap and dual bound are those of the
    full model's objective, not of a shifted one.
    """
    at_pref = np.where(free, 0.0, pref)
    shift = matrix @ at_pref
    columns = sparse.hstack(
        [matrix.tocsc()[:, free], sparse.csc_matrix((matrix.shape[0], 1))],
        format="csc",
    )
    res = milp(
        c=np.append(c[free], c @ at_pref),
        constraints=LinearConstraint(columns, row_lb - shift, row_ub - shift),
        integrality=np.ones(columns.shape[1], dtype=int),
        bounds=Bounds(np.append(lb[free], 1.0), np.append(ub[free], 1.0)),
        options=options,
    )
    charge("lp_solves")
    return res


def _result(status, x, bound, message) -> OptimizeResult:
    return OptimizeResult(
        status=status, x=x, mip_dual_bound=bound, mip_gap=None, message=message
    )
