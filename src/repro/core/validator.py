"""Out-of-sample validation (Section 3.2).

``Validate(x, Q, M̂)`` checks a candidate package against ``M̂`` fresh
scenarios from the validation stream: for each probabilistic constraint
it computes the fraction of scenarios whose inner constraint the package
satisfies, the *p-surplus* ``r = fraction − p`` (Section 5.2), and the
resulting feasibility verdict.  Expectation constraints are feasible by
construction (the solver uses the same μ̂ estimates, Section 3.2), so
validation focuses on the probabilistic parts.

Realizations are generated only for tuples in the package and in
fixed-size scenario chunks, so memory stays Θ(P·chunk) regardless of
``M̂`` — reproducing the paper's "purge realizations after each scenario"
streaming discipline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import STREAM_VALIDATION
from ..db.expressions import render
from ..mcdb.scenarios import MODE_TUPLE_WISE, ScenarioGenerator
from ..obs import stage
from ..silp.model import OP_GE
from ..utils.rngkeys import rekeyable_generator
from .package import package_key

#: Scenarios generated per chunk; fixed so that chunked generation is
#: reproducible independent of M̂ (chunk c is substream c).
VALIDATION_CHUNK = 4096

#: Relative tolerance when comparing scenario scores against v.
_TOL = 1e-9


@dataclass
class ChanceValidation:
    """Validation outcome for one probabilistic item."""

    satisfied_fraction: float
    target_p: Optional[float]
    is_objective: bool = False

    @property
    def surplus(self) -> Optional[float]:
        """The p-surplus ``r`` of Section 5.2 (None for objective items)."""
        if self.target_p is None:
            return None
        return self.satisfied_fraction - self.target_p

    @property
    def feasible(self) -> bool:
        if self.target_p is None:
            return True
        return self.satisfied_fraction >= self.target_p


@dataclass
class ValidationReport:
    """Validation of one candidate package."""

    feasible: bool
    items: list = field(default_factory=list)
    objective: Optional[float] = None
    claimed_objective: Optional[float] = None
    epsilon_upper: Optional[float] = None

    @property
    def surpluses(self) -> list:
        return [item.surplus for item in self.items]


class Validator:
    """Validates candidate packages for one evaluation context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.n_scenarios = ctx.config.n_validation_scenarios
        #: Counts served from ``ctx.memo`` instead of realized.
        self.memo_hits = 0
        self._key_prefix = ctx.memo_head("validate", self._stream_digest)
        #: What a satisfied count depends on, per item, besides the package.
        self._item_keys = {
            item["index"]: (render(item["expr"]), item["inner_op"], item["rhs"])
            for item in ctx.chance_items()
        }
        #: One Philox re-keyed by every chunk's generator, and the chunk
        #: generators themselves (chunk ``c`` is substream ``c``).
        self._rng = rekeyable_generator()
        self._chunks: list[ScenarioGenerator] = []

    def _stream_digest(self) -> bytes:
        """The validation stream's identity: seed, ``M̂`` and active rows."""
        ctx = self.ctx
        stream = hashlib.blake2b(
            repr((ctx.config.seed, self.n_scenarios)).encode(), digest_size=16
        )
        stream.update(np.ascontiguousarray(ctx.problem.active_rows, dtype=np.int64))
        return stream.digest()

    # --- scenario scoring ---------------------------------------------------------

    def _chunk_generator(self, chunk: int) -> ScenarioGenerator:
        while len(self._chunks) <= chunk:
            self._chunks.append(
                ScenarioGenerator(
                    self.ctx.model,
                    self.ctx.config.seed,
                    STREAM_VALIDATION,
                    mode=MODE_TUPLE_WISE,
                    substream=len(self._chunks),
                    rng=self._rng,
                )
            )
        return self._chunks[chunk]

    def satisfied_count(self, x: np.ndarray, item: dict) -> int:
        """Number of validation scenarios whose inner constraint holds.

        A pure function of the model, the validation stream's identity
        (seed, ``M̂``, active rows), the item and the package, so each
        distinct package is realized once and CSA's re-validations (every
        CSA-Solve restarts from the same ``x^{(0)}``) — and, through the
        store's memo, a repeated query's — are a lookup.
        """
        memo = self.ctx.memo
        key = (*self._key_prefix, *self._item_keys[item["index"]], *package_key(x))
        count = memo.get(key)
        if count is None:
            count = memo[key] = self._count_satisfied(x, item)
        else:
            self.memo_hits += 1
        return count

    def _count_satisfied(self, x: np.ndarray, item: dict) -> int:
        positions = np.nonzero(x)[0]
        if len(positions) == 0:
            # Empty package: score is identically zero.
            zero_ok = inner_holds(np.zeros(1), item["inner_op"], item["rhs"])[0]
            return self.n_scenarios if zero_ok else 0
        base_rows = self.ctx.problem.active_rows[positions]
        weights = np.asarray(x, dtype=float)[positions]
        satisfied = 0
        done = 0
        chunk_index = 0
        while done < self.n_scenarios:
            count = min(VALIDATION_CHUNK, self.n_scenarios - done)
            generator = self._chunk_generator(chunk_index)
            matrix = generator.coefficient_matrix(item["expr"], count, rows=base_rows)
            scores = weights @ matrix
            satisfied += int(inner_holds(scores, item["inner_op"], item["rhs"]).sum())
            done += count
            chunk_index += 1
        return satisfied

    # --- public API --------------------------------------------------------------------

    def validate(
        self, x: np.ndarray, claimed_objective: float | None = None
    ) -> ValidationReport:
        """Validate multiplicities ``x`` (length ``n_vars``)."""
        with stage("validate", n_scenarios=self.n_scenarios) as span:
            x = np.asarray(x)
            items = []
            feasible = True
            hits_before = self.memo_hits
            objective_value = self.ctx.mean_objective_value(x)
            for item in self.ctx.chance_items():
                fraction = self.satisfied_count(x, item) / self.n_scenarios
                record = ChanceValidation(
                    satisfied_fraction=fraction,
                    target_p=item["p"],
                    is_objective=item["is_objective"],
                )
                items.append(record)
                if not record.feasible:
                    feasible = False
                if item["is_objective"]:
                    objective_value = fraction
            span.set("feasible", feasible)
            span.set("memo", f"{self.memo_hits - hits_before}/{len(items)}")
            return ValidationReport(
                feasible=feasible,
                items=items,
                objective=objective_value,
                claimed_objective=claimed_objective,
            )


def inner_holds(scores: np.ndarray, inner_op: str, rhs: float) -> np.ndarray:
    slack = _TOL * max(1.0, abs(rhs))
    if inner_op == OP_GE:
        return scores >= rhs - slack
    return scores <= rhs + slack
