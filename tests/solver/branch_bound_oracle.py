"""LP-based branch and bound: the differential oracle for the HiGHS path.

A compact MILP solver on ``scipy.optimize.linprog``: best-bound node
selection, most-fractional branching, and incumbent pruning with a
relative-gap stop.  It never goes through the root-LP reduction or the
solve memo, so agreeing with :func:`repro.solver.solve_with_highs` checks
both.  It has no deadline: a search that needs more than ``max_nodes``
nodes raises instead of returning an anytime incumbent.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
from scipy.optimize import linprog

from repro.solver.result import (
    MILPResult,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
)

#: Integrality tolerance: LP values closer than this to an integer count
#: as integral.
_INT_TOL = 1e-6


def _solve_relaxation(c, a_ub, b_ub, var_lb, var_ub):
    """LP relaxation over the current variable box: (status, x, obj)."""
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=np.column_stack([var_lb, var_ub]),
        method="highs",
    )
    if res.status == 0:
        return "optimal", res.x, float(res.fun)
    if res.status == 2:
        return "infeasible", None, np.inf
    if res.status == 3:
        return "unbounded", None, -np.inf
    raise RuntimeError(f"LP relaxation failed: {res.message}")


def _to_inequality_form(matrix, row_lb, row_ub):
    """Convert two-sided rows into ``A_ub x ≤ b_ub`` form."""
    blocks = []
    rhs = []
    dense = matrix.toarray()
    finite_ub = np.isfinite(row_ub)
    if np.any(finite_ub):
        blocks.append(dense[finite_ub])
        rhs.append(row_ub[finite_ub])
    finite_lb = np.isfinite(row_lb)
    if np.any(finite_lb):
        blocks.append(-dense[finite_lb])
        rhs.append(-row_lb[finite_lb])
    if not blocks:
        return None, None
    return np.vstack(blocks), np.concatenate(rhs)


def solve_with_branch_bound(
    builder, mip_gap: float = 1e-6, max_nodes: int = 200_000
) -> MILPResult:
    """Solve the builder's model to optimality (within ``mip_gap``).

    A feasible warm-start hint seeds the incumbent, so best-bound pruning
    starts at the first node.
    """
    c, matrix, row_lb, row_ub, var_lb, var_ub, integrality = builder.to_arrays()
    a_ub, b_ub = _to_inequality_form(matrix, row_lb, row_ub)
    status, x0, bound0 = _solve_relaxation(c, a_ub, b_ub, var_lb, var_ub)
    if status == "infeasible":
        return MILPResult(status=STATUS_INFEASIBLE)
    if status == "unbounded":
        return MILPResult(status=STATUS_UNBOUNDED)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf
    hint = builder.validated_warm_start()
    if hint is not None:
        incumbent_x = _snap(hint, integrality)
        incumbent_obj = float(c @ incumbent_x)

    def pruned(bound: float) -> bool:
        return incumbent_x is not None and bound >= incumbent_obj - abs(
            incumbent_obj
        ) * mip_gap

    counter = itertools.count()
    # Heap of (lp_bound, tiebreak, var_lb, var_ub, lp_x).
    heap = [(bound0, next(counter), var_lb.copy(), var_ub.copy(), x0)]
    n_nodes = 0
    while heap:
        bound, _, lb, ub, x = heapq.heappop(heap)
        n_nodes += 1
        if n_nodes > max_nodes:
            raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
        if pruned(bound):
            continue
        frac_index = _most_fractional(x, integrality)
        if frac_index is None:
            # Integral: a new incumbent (the bound test guarantees it improves).
            candidate = _snap(x, integrality)
            obj = float(c @ candidate)
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent_x = candidate
            continue
        value = x[frac_index]
        for branch in ("down", "up"):
            new_lb = lb.copy()
            new_ub = ub.copy()
            if branch == "down":
                new_ub[frac_index] = np.floor(value)
            else:
                new_lb[frac_index] = np.ceil(value)
            if new_lb[frac_index] > new_ub[frac_index]:
                continue
            child_status, child_x, child_bound = _solve_relaxation(
                c, a_ub, b_ub, new_lb, new_ub
            )
            if child_status != "optimal" or pruned(child_bound):
                continue
            heapq.heappush(
                heap, (child_bound, next(counter), new_lb, new_ub, child_x)
            )

    if incumbent_x is None:
        return MILPResult(status=STATUS_INFEASIBLE, n_nodes=n_nodes)
    return MILPResult(
        status=STATUS_OPTIMAL,
        x=incumbent_x,
        objective=builder.objective_value(incumbent_x),
        n_nodes=n_nodes,
        gap=0.0,
    )


def _most_fractional(x: np.ndarray, integrality: np.ndarray):
    """Index of the integer variable farthest from integrality, or None."""
    fractional = np.abs(x - np.round(x))
    fractional[~integrality] = 0.0
    index = int(np.argmax(fractional))
    if fractional[index] <= _INT_TOL:
        return None
    return index


def _snap(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out[integrality] = np.round(out[integrality])
    out[out == 0.0] = 0.0
    return out
