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

Section 5.5 offers three summary-generation strategies that trade time
against memory; the *in-memory* one is implemented: the Θ(N·M)
optimization matrix is realized once per evaluation (grow-only in ``M``,
see ``ScenarioCache``), and scoring and folding are plain reductions
over it.  Relations whose scenarios exceed memory are the scale tier's
job (``repro.scale``), not a summary strategy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import STREAM_PARTITION
from ..errors import EvaluationError
from ..silp.model import OP_GE
from ..utils.rngkeys import make_generator


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

    # --- scenario scores (Section 5.3) -------------------------------------------

    def scenario_scores(self, item: dict, prev_x: np.ndarray | None) -> np.ndarray:
        """``Σ_i s_ij x_i^{(q−1)}`` for every optimization scenario j."""
        if prev_x is None or not np.any(prev_x):
            return np.zeros(self.n_scenarios)
        positions = np.nonzero(prev_x)[0]
        weights = np.asarray(prev_x, dtype=float)[positions]
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
        matrix = self.ctx.optimization_matrix(item["expr"], self.n_scenarios)
        values = _fold_matrix(matrix, chosen, item["inner_op"], accel_rows)
        return SummarySet(
            values=values,
            selected_counts=np.array([len(c) for c in chosen], dtype=np.int64),
            partition_sizes=np.array([len(p) for p in self.partitions], dtype=np.int64),
            alpha=alpha,
            inner_op=item["inner_op"],
        )


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

