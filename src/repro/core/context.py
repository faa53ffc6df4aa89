"""Shared evaluation state for one (problem, config) pair.

Both algorithms need the same scaffolding: expectation estimates (μ̂,
Section 3.2), derived variable bounds, scenario caches for the
optimization and probe streams, and the base MILP (decision
variables + mean constraints + mean objective).  Building it once in
:class:`EvaluationContext` keeps Naïve, SummarySearch, and the
deterministic baseline consistent — they differ only in how they
approximate the probabilistic parts.
"""

from __future__ import annotations

import numpy as np

from ..config import SPQConfig, STREAM_OPTIMIZATION, STREAM_PROBE
from ..db.expressions import Expr, evaluate, render
from ..errors import EvaluationError
from ..mcdb.expectation import ExpectationEstimator
from ..mcdb.scenarios import ScenarioCache, ScenarioGenerator
from ..silp.model import (
    ExpectationObjectiveIR,
    OP_EQ,
    OP_GE,
    OP_LE,
    ProbabilityObjectiveIR,
    SENSE_MAX,
    SENSE_MIN,
    StochasticPackageProblem,
)
from ..silp.varbounds import derive_variable_bounds, package_size_bounds
from ..solver.highs import model_digest
from ..solver.model import MILPBuilder


class EvaluationContext:
    """Derived state for evaluating one compiled problem under one config."""

    def __init__(
        self,
        problem: StochasticPackageProblem,
        config: SPQConfig,
        store=None,
    ):
        self.problem = problem
        self.config = config
        self.relation = problem.relation
        self.model = problem.model
        #: Shared, content-keyed ScenarioStore (``repro.service``); when
        #: supplied, optimization-stream coefficient matrices are served
        #: from it so concurrent/repeated queries share realizations.
        self.scenario_store = store
        self._mean_cache: dict[int, np.ndarray] = {}
        #: Exact memo of the pure functions CSA re-evaluates
        #: (docs/architecture.md, "Ask once"): model digest
        #: -> raw solver outcome (``solver/highs.py``), validation key ->
        #: satisfied count (``Validator``), (α, r) history -> arctangent
        #: root (``core/alpha.py``), round inputs -> round outcome
        #: (``core/csa.py``).  Every key is content, so with a store
        #: the memo is the store's and outlives the evaluation; without
        #: one it is private and dies with the context.
        self.memo = store.memo if store is not None else {}

        if self.model is not None:
            self.estimator = ExpectationEstimator(self.model, config, store=store)
            self.opt_cache = ScenarioCache(
                ScenarioGenerator(self.model, config.seed, STREAM_OPTIMIZATION),
                store=store,
            )
            # Probe realizations (Appendix B bounds) also flow through
            # the shared store: they are identical across queries over
            # the same data, seed, and expression.
            self.probe_cache = ScenarioCache(
                ScenarioGenerator(self.model, config.seed, STREAM_PROBE),
                store=store,
            )
        else:
            self.estimator = None
            self.opt_cache = None
            self.probe_cache = None

        self.variable_ub = derive_variable_bounds(problem, self.mean_coefficients)
        self.size_bounds = package_size_bounds(
            problem, self.mean_coefficients, self.variable_ub
        )
        #: Base-model template: (builder, x indices, its arrays); callers
        #: receive clones of the builder (see :meth:`base_milp`).
        self._incremental_base: tuple | None = None
        self._round_head: tuple | None = None

    # --- coefficients -----------------------------------------------------------

    def mean_coefficients(self, expr: Expr) -> np.ndarray:
        """Per-active-row mean coefficients (exact when deterministic)."""
        key = id(expr)
        cached = self._mean_cache.get(key)
        if cached is not None:
            return cached
        if self.estimator is not None and self.problem.is_stochastic_expr(expr):
            full = self.estimator.expression_mean(expr)
        else:
            values = evaluate(expr, self.relation.columns_mapping())
            full = np.broadcast_to(
                np.asarray(values, dtype=float), (self.relation.n_rows,)
            ).astype(float)
        restricted = full[self.problem.active_rows]
        self._mean_cache[key] = restricted
        return restricted

    def optimization_matrix(self, expr: Expr, n_scenarios: int) -> np.ndarray:
        """Coefficient matrix over the optimization stream, active rows.

        Shape ``(n_vars, n_scenarios)``.  The full-relation matrix is
        cached and grows monotonically with ``M`` (scenario sets
        accumulate, Algorithm 1 line 9).
        """
        if self.opt_cache is None:
            raise EvaluationError("problem has no stochastic model")
        full = self.opt_cache.coefficient_matrix(expr, n_scenarios)
        return full[self.problem.active_rows, :]

    def probe_matrix(self, expr: Expr, n_scenarios: int) -> np.ndarray:
        """Probe-stream coefficient matrix over the active rows.

        Bit-identical to realizing with the probe generator directly
        (scenario-wise full-relation draws, rows sliced after); cached —
        and shared across queries when a scenario store is attached.
        """
        if self.probe_cache is None:
            raise EvaluationError("problem has no stochastic model")
        full = self.probe_cache.coefficient_matrix(expr, n_scenarios)
        return full[self.problem.active_rows, :]

    # --- base MILP ------------------------------------------------------------------

    def build_base_milp(self) -> tuple[MILPBuilder, np.ndarray]:
        """Decision variables, mean constraints, and the mean objective.

        Probabilistic parts (scenario/summary indicators, probability
        objectives) are added on top by the SAA/CSA formulations.
        """
        builder = MILPBuilder()
        builder.solve_memo = self.memo
        x_idx = builder.add_variables(
            "x", self.problem.n_vars, lb=0.0, ub=self.variable_ub, integer=True
        )
        for constraint in self.problem.mean_constraints:
            coeffs = self.mean_coefficients(constraint.expr)
            if constraint.op == OP_LE:
                builder.add_constraint(x_idx, coeffs, ub=constraint.rhs)
            elif constraint.op == OP_GE:
                builder.add_constraint(x_idx, coeffs, lb=constraint.rhs)
            elif constraint.op == OP_EQ:
                builder.add_constraint(
                    x_idx, coeffs, lb=constraint.rhs, ub=constraint.rhs
                )
        objective = self.problem.objective
        if isinstance(objective, ExpectationObjectiveIR):
            builder.set_objective(
                x_idx, self.mean_coefficients(objective.expr), objective.sense
            )
        # Probability objectives and missing objectives start as "minimize 0";
        # SAA/CSA overwrite the former with indicator-based objectives.
        return builder, x_idx

    def base_milp(self) -> tuple[MILPBuilder, np.ndarray]:
        """The base MILP, positioned for appending probabilistic rows.

        The deterministic block is built (and its sparse rows
        materialized) exactly once per evaluation; every call returns a
        cheap clone of that template, so iteration *q+1* of the SAA/CSA
        loops reuses iteration *q*'s model skeleton and only pays for its
        own indicator rows.  :meth:`build_base_milp` stays the cold
        reference.
        """
        builder, x_idx, _ = self._template()
        return builder.clone(), x_idx

    def _template(self) -> tuple:
        if self._incremental_base is None:
            builder, x_idx = self.build_base_milp()
            # Materialize the deterministic rows now: every clone shares
            # this CSR block and never re-triplets it.
            arrays = builder.to_arrays()
            self._incremental_base = (builder, x_idx, arrays)
        return self._incremental_base

    def prepare_threads(self) -> None:
        """Build what CSA rungs on two threads would both build lazily.

        The base template, the round key head and the mean of an
        expectation objective (validation reads it) are built once here,
        before the ladder lane (``core/lane.py``) runs a rung beside the
        caller.  The scenario caches serialize their own fills.
        """
        self._template()
        self.round_head()
        objective = self.problem.objective
        if isinstance(objective, ExpectationObjectiveIR):
            self.mean_coefficients(objective.expr)

    # --- memo keys --------------------------------------------------------------------

    def memo_head(self, kind: str, content) -> tuple:
        """Key prefix of the answers of one ``kind`` kept in :attr:`memo`.

        Only a store's memo is shared, so only it needs content: the model
        fingerprint comes first (``AnswerMemo.prune`` reads it there),
        then ``kind`` and ``content()``, a digest of what else every such
        answer of this evaluation depends on.  A private memo keeps the
        constant ``(kind,)``, so a store-less run never hashes the
        relation just to key a dict.
        """
        if self.scenario_store is None or self.model is None:
            return (kind,)
        from ..service.store import model_fingerprint

        return (model_fingerprint(self.model), kind, content())

    def round_head(self) -> tuple:
        """Key prefix of CSA round answers (``core/csa.py``), made once."""
        if self._round_head is None:
            self._round_head = self.memo_head("round", self._round_digest)
        return self._round_head

    def _round_digest(self) -> bytes:
        """What every CSA round of this evaluation is built from.

        The base block (as its template's arrays), the active rows and
        the seed (which with the model fix the optimization scenarios
        and partitions), ``mip_gap``, and each chance item's expression,
        operator, right-hand side, probability and sense.
        """
        items = repr([
            (render(item["expr"]), item["inner_op"], item["rhs"], item["p"],
             item["is_objective"], item.get("sense"))
            for item in self.chance_items()
        ]).encode()
        return model_digest(
            self.config.mip_gap,
            self._template()[2],
            (
                np.asarray(self.problem.active_rows, dtype=np.int64),
                np.asarray([self.config.seed], dtype=np.int64),
                np.frombuffer(items, dtype=np.uint8),
            ),
        )

    # --- objective helpers ----------------------------------------------------------

    @property
    def objective_sense(self) -> str | None:
        objective = self.problem.objective
        if objective is None:
            return None
        return objective.sense

    def mean_objective_value(self, x: np.ndarray) -> float | None:
        """Objective value under μ̂ for expectation objectives, else None."""
        objective = self.problem.objective
        if not isinstance(objective, ExpectationObjectiveIR):
            return None
        return float(self.mean_coefficients(objective.expr) @ x)

    # --- chance-constraint bookkeeping --------------------------------------------------

    def chance_items(self) -> list[dict]:
        """Uniform view of all probabilistic items needing summaries.

        Each chance constraint contributes one item; a probability
        objective contributes a final pseudo-item (``is_objective=True``)
        whose ``p`` is ``None``.  CSA-Solve searches one α per item.
        """
        items = []
        for k, constraint in enumerate(self.problem.chance_constraints):
            items.append(
                {
                    "index": k,
                    "expr": constraint.expr,
                    "inner_op": constraint.inner_op,
                    "rhs": constraint.rhs,
                    "p": constraint.probability,
                    "is_objective": False,
                }
            )
        objective = self.problem.objective
        if isinstance(objective, ProbabilityObjectiveIR):
            items.append(
                {
                    "index": len(items),
                    "expr": objective.expr,
                    "inner_op": objective.inner_op,
                    "rhs": objective.rhs,
                    "p": None,
                    "is_objective": True,
                    "sense": objective.sense,
                }
            )
        return items

    @property
    def minimize(self) -> bool:
        return self.objective_sense in (None, SENSE_MIN)

    def better(self, a: float | None, b: float | None) -> bool:
        """Is objective ``a`` better than ``b`` for this problem's sense?"""
        if a is None:
            return False
        if b is None:
            return True
        if self.objective_sense == SENSE_MAX:
            return a > b
        return a < b
