"""HiGHS MILP backend via ``scipy.optimize.milp``.

``scipy.optimize.milp`` has no MIP-start parameter, so a warm-start hint
(see ``MILPBuilder.set_warm_start``) is used as a *guaranteed incumbent*
instead: when the solver hits its limit without a solution (or errors
out) the feasible hint is returned as a feasible result, and when the
solver returns a worse incumbent than the hint, the hint wins.  This
makes warm-started solves never worse than the previous iteration's
solution, which is the property the incremental SummarySearch loop needs.

A builder that belongs to an evaluation carries that evaluation's memo
as ``solve_memo`` (the ScenarioStore's when one is attached): CSA-Solve
restarts from ``x^{(0)}`` at α = 0 for every (M, Z), several α grid
points keep the same scenarios per summary, and a repeated query poses
its whole search again, so byte-identical models recur.  The raw solver
outcome is kept under a digest of exactly what HiGHS is given and
replayed through :func:`_normalize` with the *current* hint, so a repeat
returns what re-solving would have — without the solve.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ..obs.events import KIND_SOLVER_REDUCE, emit
from ..obs.resources import charge
from .reduce import eligible, milp_options, solve_reduced
from .result import (
    MILPResult,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    STATUS_ERROR,
)

#: scipy.optimize.milp status codes.
_SCIPY_OPTIMAL = 0
_SCIPY_INFEASIBLE = 2
_SCIPY_UNBOUNDED = 3
_SCIPY_LIMIT = 1  # iteration or time limit

#: Outcomes that do not depend on how long the solver was given; only
#: these are memoised, which is what keeps ``time_limit`` out of the key.
_TERMINAL = (_SCIPY_OPTIMAL, _SCIPY_INFEASIBLE, _SCIPY_UNBOUNDED)


def solve_with_highs(
    builder,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
) -> MILPResult:
    """Solve the builder's model with HiGHS and normalize the outcome.

    Models :func:`repro.solver.reduce.eligible` accepts go through the
    root-LP reduction first; the full model is handed to HiGHS only when
    that cannot certify an answer, with the time it spent deducted.
    """
    c, matrix, row_lb, row_ub, var_lb, var_ub, integrality = builder.to_arrays()
    hint = builder.validated_warm_start()
    started = time.perf_counter()
    memo = builder.solve_memo
    if memo is not None:
        # The hint steers the search only through the reduction's first
        # incumbent; everywhere else it is applied after the solve.
        steers = hint is not None and eligible(c, integrality)
        key = model_digest(
            mip_gap,
            (c, matrix, row_lb, row_ub, var_lb, var_ub, integrality),
            (hint,) if steers else (),
        )
        cached = memo.get(key)
        if cached is not None:
            res, reduction = cached
            elapsed = time.perf_counter() - started
            result = _normalize(builder, c, hint, integrality, res, elapsed)
            result.meta["memo"] = True
            if reduction is not None:
                result.meta["reduction"] = dict(reduction)
            return result
    res, reduction = solve_reduced(
        c, matrix, row_lb, row_ub, var_lb, var_ub, integrality, hint,
        mip_gap, time_limit,
    )
    if res is None:
        # A model the reduction never looked at keeps its whole budget, so
        # its solve is the unreduced one down to the option values.
        spent = 0.0 if reduction is None else time.perf_counter() - started
        options = milp_options(mip_gap, time_limit, spent)
        constraints = (
            LinearConstraint(matrix, row_lb, row_ub) if matrix.shape[0] else ()
        )
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality.astype(int),
            bounds=Bounds(var_lb, var_ub),
            options=options,
        )
        charge("lp_solves")
    if memo is not None and res.status in _TERMINAL:
        memo[key] = (res, reduction)
    elapsed = time.perf_counter() - started
    result = _normalize(builder, c, hint, integrality, res, elapsed)
    if reduction is not None:
        result.meta["reduction"] = dict(reduction)
        emit(KIND_SOLVER_REDUCE, **reduction)
    return result


def model_digest(mip_gap: float, model, extra=()) -> bytes:
    """Digest of everything HiGHS is given except the time limit.

    ``model`` is :meth:`MILPBuilder.to_arrays`'s tuple; ``extra`` arrays
    follow it.  Each array goes in with its dtype and shape, so no two
    argument lists share a byte stream.
    """
    c, matrix, row_lb, row_ub, var_lb, var_ub, integrality = model
    digest = hashlib.blake2b(repr(float(mip_gap)).encode(), digest_size=16)
    for array in (
        c, matrix.data, matrix.indices, matrix.indptr, np.asarray(matrix.shape),
        row_lb, row_ub, var_lb, var_ub, integrality, *extra,
    ):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.data)
    return digest.digest()


def _normalize(builder, c, hint, integrality, res, elapsed) -> MILPResult:
    """Map a ``milp``-shaped outcome onto :class:`MILPResult`."""
    if res.status == _SCIPY_OPTIMAL:
        # "Optimal" includes gap-terminated solves (mip_rel_gap > 0), so
        # the incumbent can still trail a good warm-start hint.
        x = _better_of(c, hint, _round_integers(res.x, integrality),
                       integrality)
        return MILPResult(
            status=STATUS_OPTIMAL,
            x=x,
            objective=builder.objective_value(x),
            solve_time=elapsed,
            gap=_gap_for(c, x, res),
            message=str(res.message),
        )
    if res.status == _SCIPY_INFEASIBLE:
        return MILPResult(
            status=STATUS_INFEASIBLE, solve_time=elapsed, message=str(res.message)
        )
    if res.status == _SCIPY_UNBOUNDED:
        return MILPResult(
            status=STATUS_UNBOUNDED, solve_time=elapsed, message=str(res.message)
        )
    if res.status == _SCIPY_LIMIT and res.x is not None:
        # Limit hit but HiGHS returned an incumbent; a warm-start hint
        # that beats the incumbent supersedes it.
        x = _better_of(c, hint, _round_integers(res.x, integrality),
                       integrality)
        return MILPResult(
            status=STATUS_FEASIBLE,
            x=x,
            objective=builder.objective_value(x),
            solve_time=elapsed,
            gap=_gap_for(c, x, res),
            message=str(res.message),
            meta=_bound_meta(builder, res, stopped="limit"),
        )
    if res.status == _SCIPY_LIMIT:
        if hint is not None:
            return _hint_result(builder, c, hint, integrality, elapsed, res)
        return MILPResult(
            status=STATUS_TIME_LIMIT,
            solve_time=elapsed,
            message=str(res.message),
            meta=_bound_meta(builder, res, stopped="limit"),
        )
    # Remaining statuses are solver errors (infeasible/unbounded returned
    # above); a feasible hint still salvages an incumbent.
    if hint is not None:
        return _hint_result(builder, c, hint, integrality, elapsed, res)
    return MILPResult(
        status=STATUS_ERROR,
        solve_time=elapsed,
        message=str(res.message),
        meta=_bound_meta(builder, res),
    )


#: Minimum (minimized-sense) improvement before the hint supersedes the
#: solver's incumbent — exact ties keep the solver's solution so that
#: warm-started and cold runs return identical packages.
_HINT_TOL = 1e-9


def _better_of(c, hint, x, integrality) -> np.ndarray:
    """The better of the solver's incumbent and the warm-start hint."""
    if hint is None or float(c @ hint) >= float(c @ x) - _HINT_TOL:
        return x
    return _round_integers(hint, integrality)


def _gap_for(c, x, res) -> float | None:
    """Relative MIP gap of the *returned* ``x`` against the dual bound.

    When the warm-start hint supersedes the solver's incumbent the
    reported gap must describe the hint, not the discarded solution;
    recomputing from the dual bound covers both cases uniformly.
    """
    bound = getattr(res, "mip_dual_bound", None)
    if bound is None or not np.isfinite(bound):
        return float(res.mip_gap) if res.mip_gap is not None else None
    value = float(c @ x)
    return abs(value - float(bound)) / max(1.0, abs(value))


def _dual_bound(res) -> float | None:
    """HiGHS's dual (best) bound on the minimized objective, if finite."""
    bound = getattr(res, "mip_dual_bound", None)
    if bound is None or not np.isfinite(bound):
        return None
    return float(bound)


def _bound_meta(builder, res, stopped: str | None = None) -> dict:
    """``meta`` for a limit/error outcome: the caller-sense best bound.

    ``meta["best_bound"]`` lets :mod:`repro.core.anytime` report a
    sound objective-bound gap even when HiGHS stopped with no incumbent
    and no warm-start hint was available.
    """
    bound = _dual_bound(res)
    if bound is None:
        return {}
    from .model import SENSE_MAX

    sign = -1.0 if builder.sense == SENSE_MAX else 1.0
    meta = {"best_bound": sign * bound}
    if stopped is not None:
        meta["stopped"] = stopped
    return meta


def _hint_result(builder, c, hint, integrality, elapsed, res) -> MILPResult:
    """Fall back to the feasible warm-start hint as the incumbent."""
    x = _round_integers(hint, integrality)
    return MILPResult(
        status=STATUS_FEASIBLE,
        x=x,
        objective=builder.objective_value(x),
        solve_time=elapsed,
        gap=_gap_for(c, x, res),
        message=f"warm-start incumbent returned ({res.message})",
        meta=_bound_meta(builder, res, stopped="limit"),
    )


def _round_integers(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Snap integer variables to exact integers (HiGHS returns floats)."""
    out = np.array(x, dtype=float)
    out[integrality] = np.round(out[integrality])
    # Guard against -0.0 which confuses downstream equality checks.
    out[out == 0.0] = 0.0
    return out
