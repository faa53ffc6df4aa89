"""Matrix-form MILP construction with indicator-constraint support.

The SAA/CSA formulations (Sections 3.1 and 4.1) need, per probabilistic
constraint and per scenario/summary, an *indicator constraint*
``y = 1 ⟹ Σ s_ij·x_i ⊙ v`` plus a cardinality constraint over the
indicators.  CPLEX supports indicators natively; here they are encoded
with data-derived big-M values, which is exact when variable bounds are
finite (they are — ``silp.varbounds`` guarantees it):

* ``y=1 ⟹ a·x ≥ v``   becomes   ``a·x − (v − lo)·y ≥ lo``
* ``y=1 ⟹ a·x ≤ v``   becomes   ``a·x + (hi − v)·y ≤ hi``

where ``lo/hi`` bound ``a·x`` over the variable box.  If the implication
is vacuous (``lo ≥ v`` resp. ``hi ≤ v``) no row is emitted; if it is
unsatisfiable the indicator is pinned to zero.

The builder is append-only and supports *incremental* reuse across
closely related models, which is how SummarySearch avoids rebuilding the
deterministic block of the DILP on every CSA iteration:

* :meth:`clone` copies a built base model in O(n) (sharing immutable row
  and cache storage) — the SAA/CSA loops clone a retained base template
  and append only their per-iteration indicator rows;
* :meth:`to_arrays` caches the sparse rows it has already materialized
  and stacks new rows on top instead of re-building the full triplet
  list;
* :meth:`set_warm_start` records a candidate solution (e.g. the previous
  iteration's incumbent) that the solver uses as a MIP start.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import SolverError
from .result import MILPResult

SENSE_MIN = "minimize"
SENSE_MAX = "maximize"


class MILPBuilder:
    """Incrementally builds ``min/max c·x  s.t.  lb ≤ Ax ≤ ub, x ∈ box``."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._objective: dict[int, float] = {}
        self._sense = SENSE_MIN
        #: Materialized-CSR cache: (n_rows, data, indices, indptr) of the
        #: row block already converted by a previous ``to_arrays`` call.
        self._csr_cache: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._warm_start: np.ndarray | None = None
        #: (n_variables, n_constraints) the hint was last validated at;
        #: lets repeated validated_warm_start() calls skip the re-check.
        self._warm_start_valid_for: tuple[int, int] | None = None
        #: Bounds-as-arrays cache; entries are append-only, so a cache of
        #: the right length is current.
        self._bounds_cache: tuple[np.ndarray, np.ndarray] | None = None
        #: Model digest -> raw solver outcome, shared by every builder of
        #: one evaluation (set by ``EvaluationContext.build_base_milp``,
        #: carried by :meth:`clone`); ``None`` for a standalone builder.
        self.solve_memo: dict | None = None

    # --- variables ---------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = np.inf,
        integer: bool = True,
    ) -> int:
        """Register one decision variable; returns its index."""
        if lb > ub:
            raise SolverError(f"variable {name!r} has lb {lb} > ub {ub}")
        self._names.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        return len(self._names) - 1

    def add_variables(
        self,
        prefix: str,
        count: int,
        lb=0.0,
        ub=np.inf,
        integer: bool = True,
    ) -> np.ndarray:
        """Vector helper: returns the indices of ``count`` new variables."""
        lbs = np.broadcast_to(np.asarray(lb, dtype=float), (count,))
        ubs = np.broadcast_to(np.asarray(ub, dtype=float), (count,))
        if np.any(lbs > ubs):
            bad = int(np.argmax(lbs > ubs))
            raise SolverError(
                f"variable {prefix}[{bad}] has lb {lbs[bad]} > ub {ubs[bad]}"
            )
        start = len(self._names)
        self._names.extend(f"{prefix}[{i}]" for i in range(count))
        self._lb.extend(lbs.astype(float).tolist())
        self._ub.extend(ubs.astype(float).tolist())
        self._integer.extend([bool(integer)] * count)
        return np.arange(start, start + count)

    @property
    def n_variables(self) -> int:
        return len(self._names)

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    def variable_bounds(self, index: int) -> tuple[float, float]:
        """The (lb, ub) box of variable ``index``."""
        return self._lb[index], self._ub[index]

    # --- constraints ----------------------------------------------------------------

    def add_constraint(
        self,
        indices,
        coefficients,
        lb: float = -np.inf,
        ub: float = np.inf,
    ) -> int:
        """Add ``lb ≤ Σ coefficients·x[indices] ≤ ub``."""
        idx = np.asarray(indices, dtype=np.int64)
        coef = np.asarray(coefficients, dtype=float)
        if idx.shape != coef.shape:
            raise SolverError("indices and coefficients must have equal shape")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_variables):
            raise SolverError("constraint references unknown variable index")
        if lb > ub:
            raise SolverError(f"constraint has lb {lb} > ub {ub}")
        self._rows.append((idx, coef))
        self._row_lb.append(float(lb))
        self._row_ub.append(float(ub))
        return len(self._rows) - 1

    def _bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._bounds_cache is None or len(self._bounds_cache[0]) != len(self._lb):
            self._bounds_cache = (
                np.asarray(self._lb, dtype=float),
                np.asarray(self._ub, dtype=float),
            )
        return self._bounds_cache

    def row_value_bounds(self, indices, coefficients) -> tuple[float, float]:
        """Range of ``Σ c·x`` over the current variable box."""
        idx = np.asarray(indices, dtype=np.int64)
        coef = np.asarray(coefficients, dtype=float)
        lo = hi = 0.0
        all_lbs, all_ubs = self._bound_arrays()
        lbs = all_lbs[idx]
        ubs = all_ubs[idx]
        low_terms = np.minimum(coef * lbs, coef * ubs)
        high_terms = np.maximum(coef * lbs, coef * ubs)
        lo = float(low_terms.sum())
        hi = float(high_terms.sum())
        return lo, hi

    def add_indicator(
        self,
        binary_index: int,
        indices,
        coefficients,
        op: str,
        rhs: float,
    ) -> None:
        """Encode ``x[binary_index] = 1 ⟹ Σ c·x ⊙ rhs`` via big-M."""
        lb, ub = self.variable_bounds(binary_index)
        if not (lb >= 0 and ub <= 1 and self._integer[binary_index]):
            raise SolverError("indicator variable must be binary")
        lo, hi = self.row_value_bounds(indices, coefficients)
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise SolverError(
                "indicator constraints need finite variable bounds for the"
                " big-M encoding (see silp.varbounds)"
            )
        idx = np.append(np.asarray(indices, dtype=np.int64), binary_index)
        coef = np.asarray(coefficients, dtype=float)
        if op == ">=":
            if lo >= rhs:
                return  # implication always holds
            if hi < rhs:
                # y = 1 can never satisfy the inner constraint: pin y = 0.
                self.add_constraint([binary_index], [1.0], ub=0.0)
                return
            big_m = rhs - lo
            self.add_constraint(idx, np.append(coef, -big_m), lb=lo)
        elif op == "<=":
            if hi <= rhs:
                return
            if lo > rhs:
                self.add_constraint([binary_index], [1.0], ub=0.0)
                return
            big_m = hi - rhs
            self.add_constraint(idx, np.append(coef, big_m), ub=hi)
        else:
            raise SolverError(f"indicator operator must be <= or >=, got {op!r}")

    # --- objective -------------------------------------------------------------------

    def set_objective(self, indices, coefficients, sense: str = SENSE_MIN) -> None:
        """Set the (sparse) linear objective and its sense."""
        if sense not in (SENSE_MIN, SENSE_MAX):
            raise SolverError(f"unknown objective sense {sense!r}")
        idx = np.asarray(indices, dtype=np.int64)
        coef = np.asarray(coefficients, dtype=float)
        if idx.shape != coef.shape:
            raise SolverError("indices and coefficients must have equal shape")
        self._objective = {int(i): float(c) for i, c in zip(idx, coef)}
        self._sense = sense

    # --- incremental reuse --------------------------------------------------------------

    def clone(self) -> "MILPBuilder":
        """Independent copy sharing immutable row/cache storage.

        Rows are append-only ``(indices, coefficients)`` pairs that are
        never mutated in place, so the clone shares them (and the
        materialized-CSR cache) with the original: cloning a base model
        is O(n) list copies, and solving the clone only materializes the
        rows appended after the clone point.  The warm-start hint is not
        carried over; the evaluation's solve memo is.
        """
        other = MILPBuilder()
        other._names = list(self._names)
        other._lb = list(self._lb)
        other._ub = list(self._ub)
        other._integer = list(self._integer)
        other._rows = list(self._rows)
        other._row_lb = list(self._row_lb)
        other._row_ub = list(self._row_ub)
        other._objective = dict(self._objective)
        other._sense = self._sense
        other._csr_cache = self._csr_cache
        other._bounds_cache = self._bounds_cache
        other.solve_memo = self.solve_memo
        return other

    # --- warm starts -------------------------------------------------------------------

    def set_warm_start(self, x) -> None:
        """Record a candidate solution used as a MIP start by the backends.

        Pass ``None`` to clear.  The hint is only used when it is feasible
        for the model at solve time (see :meth:`validated_warm_start`), so
        a stale hint is harmless.
        """
        self._warm_start_valid_for = None
        if x is None:
            self._warm_start = None
            return
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n_variables,):
            raise SolverError(
                f"warm start has {arr.shape} values; model has"
                f" {self.n_variables} variables"
            )
        self._warm_start = arr.copy()

    def validated_warm_start(self, tol: float = 1e-6) -> np.ndarray | None:
        """The warm-start hint, or None if absent/stale/infeasible.

        A successful check is memoized against the model shape, so the
        formulation-time validation and the backend's solve-time call
        cost one feasibility sweep in total.
        """
        hint = self._warm_start
        if hint is None or hint.shape != (self.n_variables,):
            return None
        shape = (self.n_variables, self.n_constraints)
        if self._warm_start_valid_for == shape:
            return hint
        if self.check_feasible(hint, tol):
            self._warm_start_valid_for = shape
            return hint
        return None

    # --- materialization ---------------------------------------------------------------

    def to_arrays(self):
        """Materialize ``(c, A, row_lb, row_ub, var_lb, var_ub, integrality)``.

        ``c`` is in *minimization* form (negated for maximize); callers
        translate objective values back via :meth:`objective_sign`.
        """
        n = self.n_variables
        c = np.zeros(n)
        if self._objective:
            count = len(self._objective)
            keys = np.fromiter(self._objective.keys(), dtype=np.int64, count=count)
            vals = np.fromiter(self._objective.values(), dtype=float, count=count)
            c[keys] = vals
        if self._sense == SENSE_MAX:
            c = -c
        matrix = self._materialize_matrix(n)
        return (
            c,
            matrix,
            np.asarray(self._row_lb),
            np.asarray(self._row_ub),
            np.asarray(self._lb),
            np.asarray(self._ub),
            np.asarray(self._integer, dtype=bool),
        )

    def _materialize_matrix(self, n: int) -> sparse.csr_matrix:
        """CSR of all rows, reusing the cached prefix from earlier calls.

        Rows are append-only, so a cached row block is always a valid
        prefix; only rows added since the last materialization need
        triplet building.
        """
        m = len(self._rows)
        if m == 0:
            return sparse.csr_matrix((0, n))
        k = 0
        if self._csr_cache is not None:
            k = self._csr_cache[0]
        blocks = []
        if k:
            _, data, indices, indptr = self._csr_cache
            # Rows added before any later variables can only reference
            # variables that existed then, so widening the shape is safe.
            blocks.append(
                sparse.csr_matrix((data, indices, indptr), shape=(k, n))
            )
        if m > k:
            data, rows, cols = [], [], []
            for r in range(k, m):
                idx, coef = self._rows[r]
                rows.extend([r - k] * len(idx))
                cols.extend(idx.tolist())
                data.extend(coef.tolist())
            blocks.append(
                sparse.csr_matrix((data, (rows, cols)), shape=(m - k, n))
            )
        matrix = blocks[0] if len(blocks) == 1 else sparse.vstack(
            blocks, format="csr"
        )
        self._csr_cache = (m, matrix.data, matrix.indices, matrix.indptr)
        return matrix

    @property
    def sense(self) -> str:
        return self._sense

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate the objective at ``x`` in the caller's sense."""
        return float(sum(c * x[i] for i, c in self._objective.items()))

    # --- solving ----------------------------------------------------------------------

    def solve(
        self, time_limit: float | None = None, mip_gap: float = 1e-6
    ) -> MILPResult:
        """Solve with HiGHS; returns a :class:`MILPResult`."""
        from .highs import solve_with_highs

        return solve_with_highs(self, time_limit=time_limit, mip_gap=mip_gap)

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Verify ``x`` against all rows and bounds.

        Vectorized through the cached CSR materialization, so repeated
        checks (e.g. warm-start validation per solve) cost one sparse
        mat-vec rather than a Python loop over rows.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_variables,):
            return False
        lbs, ubs = self._bound_arrays()
        if np.any(x < lbs - tol) or np.any(x > ubs + tol):
            return False
        integers = np.asarray(self._integer, dtype=bool)
        if np.any(np.abs(x[integers] - np.round(x[integers])) > tol):
            return False
        if self._rows:
            values = self._materialize_matrix(self.n_variables) @ x
            if np.any(values < np.asarray(self._row_lb) - tol) or np.any(
                values > np.asarray(self._row_ub) + tol
            ):
                return False
        return True
