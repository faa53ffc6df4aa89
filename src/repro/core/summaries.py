"""α-summary construction (Section 4.1 and 5.3, plus Section 5.5).

An α-summary of a scenario set, with respect to a probabilistic
constraint with inner operator ⊙, is the tuple-wise minimum (for ``≥``)
or maximum (for ``≤``) over a chosen subset ``G_z(α)`` of ``⌈α·|Π_z|⌉``
scenarios of partition ``Π_z`` — Proposition 1 guarantees that a package
satisfying the summary satisfies every scenario in ``G_z(α)``.

``G_z`` is chosen greedily (Section 5.3): scenarios are sorted by the
previous solution's *scenario score* ``Σ_i s_ij x_i^{(q−1)}`` —
descending for ``≥`` constraints, ascending for ``≤`` — keeping the
incumbent as feasible as possible so objective values improve
monotonically.  Convergence acceleration (Section 5.5): when α decreases,
tuples in the incumbent use the *opposite* reduction so the incumbent
stays feasible for the new CSA.

Three generation strategies (Section 5.5) with the paper's complexity
trade-offs:

* ``in-memory`` — keep all Θ(N·M) realizations; trivial reductions.
* ``tuple-wise`` — per-block seeds; scoring touches only package blocks
  (Θ(P·M)), summarization regenerates everything (Θ(N·M)), with
  row-chunked folding keeping memory Θ(chunk·M).
* ``scenario-wise`` — per-scenario seeds; scoring regenerates full
  scenarios (Θ(N·M)), summarization only the chosen ones (Θ(α·N·M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import (
    STREAM_PARTITION,
    SUMMARY_IN_MEMORY,
    SUMMARY_SCENARIO_WISE,
    SUMMARY_TUPLE_WISE,
)
from ..errors import EvaluationError
from ..silp.model import OP_GE, OP_LE
from ..utils.rngkeys import make_generator

#: Active rows folded per chunk in the tuple-wise strategy.
_ROW_CHUNK = 8192


@dataclass
class SummarySet:
    """Z summaries for one probabilistic item.

    ``values[i, z]`` is the summary coefficient of active row ``i`` in
    summary ``z``; ``selected_counts[z] = ⌈α·|Π_z|⌉`` scenarios back each
    summary (they drive the conservative claimed probability of
    probability objectives).
    """

    values: np.ndarray
    selected_counts: np.ndarray
    partition_sizes: np.ndarray
    alpha: float
    inner_op: str

    @property
    def n_summaries(self) -> int:
        return self.values.shape[1]

    def guaranteed_fraction_weights(self, n_scenarios: int) -> np.ndarray:
        """Per-summary guaranteed satisfied-scenario fraction."""
        return self.selected_counts / float(n_scenarios)


def make_partitions(n_scenarios: int, n_summaries: int, seed: int) -> list[np.ndarray]:
    """Randomly split scenario indices into Z near-equal partitions.

    Deterministic given ``(seed, M, Z)`` so every component of an
    evaluation sees the same partitioning.
    """
    if not 1 <= n_summaries <= n_scenarios:
        raise EvaluationError("number of summaries must satisfy 1 <= Z <= M")
    rng = make_generator(seed, STREAM_PARTITION, n_scenarios, n_summaries)
    permutation = rng.permutation(n_scenarios)
    return [np.sort(part) for part in np.array_split(permutation, n_summaries)]


class SummaryBuilder:
    """Builds :class:`SummarySet` objects for one (M, Z) configuration."""

    def __init__(self, ctx, n_scenarios: int, n_summaries: int):
        self.ctx = ctx
        self.n_scenarios = n_scenarios
        self.n_summaries = n_summaries
        self.partitions = make_partitions(
            n_scenarios, n_summaries, ctx.config.seed
        )
        self.strategy = ctx.config.summary_strategy

    # --- scenario scores (Section 5.3) -------------------------------------------

    def scenario_scores(self, item: dict, prev_x: np.ndarray | None) -> np.ndarray:
        """``Σ_i s_ij x_i^{(q−1)}`` for every optimization scenario j."""
        if prev_x is None or not np.any(prev_x):
            return np.zeros(self.n_scenarios)
        positions = np.nonzero(prev_x)[0]
        weights = np.asarray(prev_x, dtype=float)[positions]
        if self.strategy == SUMMARY_SCENARIO_WISE:
            scores = np.empty(self.n_scenarios)
            for j in range(self.n_scenarios):
                vector = self.ctx.optimization_scenario_vector(item["expr"], j)
                scores[j] = weights @ vector[positions]
            return scores
        if self.strategy == SUMMARY_TUPLE_WISE:
            base_rows = self.ctx.problem.active_rows[positions]
            matrix = self.ctx.opt_matrix_source.coefficient_matrix(
                item["expr"], self.n_scenarios, rows=base_rows
            )
            return weights @ matrix
        matrix = self.ctx.optimization_matrix(item["expr"], self.n_scenarios)
        return weights @ matrix[positions, :]

    def choose_selected(
        self, item: dict, alpha: float, scores: np.ndarray
    ) -> list[np.ndarray]:
        """The greedy ``G_z(α)`` per partition (indices into scenarios)."""
        descending = item["inner_op"] == OP_GE
        chosen = []
        for part in self.partitions:
            n_selected = math.ceil(alpha * len(part))
            n_selected = min(max(n_selected, 1), len(part))
            part_scores = scores[part]
            order = np.argsort(-part_scores if descending else part_scores,
                               kind="stable")
            chosen.append(part[order[:n_selected]])
        return chosen

    # --- summary reduction ------------------------------------------------------------

    def build(
        self,
        item: dict,
        alpha: float,
        prev_x: np.ndarray | None,
        accelerate: bool = False,
    ) -> SummarySet:
        """Construct the Z α-summaries for one probabilistic item."""
        if not 0.0 < alpha <= 1.0:
            raise EvaluationError(f"alpha must be in (0, 1], got {alpha}")
        scores = self.scenario_scores(item, prev_x)
        chosen = self.choose_selected(item, alpha, scores)
        accel_rows = None
        if accelerate and prev_x is not None:
            accel_rows = np.nonzero(prev_x)[0]
        values = self._reduce(item, chosen, accel_rows)
        return SummarySet(
            values=values,
            selected_counts=np.array([len(c) for c in chosen], dtype=np.int64),
            partition_sizes=np.array([len(p) for p in self.partitions], dtype=np.int64),
            alpha=alpha,
            inner_op=item["inner_op"],
        )

    def _reduce(
        self,
        item: dict,
        chosen: list[np.ndarray],
        accel_rows: np.ndarray | None,
    ) -> np.ndarray:
        if self.strategy == SUMMARY_SCENARIO_WISE:
            return self._reduce_scenario_wise(item, chosen, accel_rows)
        if self.strategy == SUMMARY_TUPLE_WISE:
            return self._reduce_row_chunked(item, chosen, accel_rows)
        matrix = self.ctx.optimization_matrix(item["expr"], self.n_scenarios)
        return _fold_matrix(matrix, chosen, item["inner_op"], accel_rows)

    def _reduce_scenario_wise(self, item, chosen, accel_rows) -> np.ndarray:
        """Θ(α·N·M) work, Θ(N) memory: regenerate only chosen scenarios."""
        n_vars = self.ctx.problem.n_vars
        values = np.empty((n_vars, len(chosen)))
        for z, scenario_ids in enumerate(chosen):
            folded = None
            for j in scenario_ids:
                vector = self.ctx.optimization_scenario_vector(item["expr"], int(j))
                folded = vector if folded is None else _fold_pair(
                    folded, vector, item["inner_op"], accel_rows
                )
            values[:, z] = folded
        return values

    def _reduce_row_chunked(self, item, chosen, accel_rows) -> np.ndarray:
        """Θ(N·M) work, Θ(chunk·M) memory: fold active rows in chunks."""
        n_vars = self.ctx.problem.n_vars
        values = np.empty((n_vars, len(chosen)))
        active = self.ctx.problem.active_rows
        for start in range(0, n_vars, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, n_vars)
            matrix = self.ctx.opt_matrix_source.coefficient_matrix(
                item["expr"], self.n_scenarios, rows=active[start:stop]
            )
            chunk_accel = None
            if accel_rows is not None:
                local = accel_rows[(accel_rows >= start) & (accel_rows < stop)]
                chunk_accel = local - start
            values[start:stop, :] = _fold_matrix(
                matrix, chosen, item["inner_op"], chunk_accel
            )
        return values


def _fold_matrix(
    matrix: np.ndarray,
    chosen: list[np.ndarray],
    inner_op: str,
    accel_rows: np.ndarray | None,
) -> np.ndarray:
    """Reduce chosen scenario columns per partition (vectorized)."""
    reduce_main = np.min if inner_op == OP_GE else np.max
    reduce_accel = np.max if inner_op == OP_GE else np.min
    values = np.empty((matrix.shape[0], len(chosen)))
    for z, scenario_ids in enumerate(chosen):
        sub = matrix[:, scenario_ids]
        column = reduce_main(sub, axis=1)
        if accel_rows is not None and len(accel_rows):
            column[accel_rows] = reduce_accel(sub[accel_rows, :], axis=1)
        values[:, z] = column
    return values


def _fold_pair(
    folded: np.ndarray,
    vector: np.ndarray,
    inner_op: str,
    accel_rows: np.ndarray | None,
) -> np.ndarray:
    main = np.minimum if inner_op == OP_GE else np.maximum
    accel = np.maximum if inner_op == OP_GE else np.minimum
    out = main(folded, vector)
    if accel_rows is not None and len(accel_rows):
        out[accel_rows] = accel(folded[accel_rows], vector[accel_rows])
    return out
