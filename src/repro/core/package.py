"""Package results: a bag of tuples with multiplicities.

A *package* is a relation derived from the input by repeating each tuple
``m(t) ≥ 0`` times (Section 2.1).  :class:`Package` stores the
multiplicity vector over the problem's active rows; :class:`PackageResult`
is the full evaluation outcome returned by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..db.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .anytime import AnytimeResult
    from .stats import RunStats
    from .validator import ValidationReport


def package_key(x: np.ndarray) -> tuple:
    """Hashable identity of a multiplicity vector: (support, multiplicities)."""
    x = np.asarray(x)
    positions = np.nonzero(x)[0]
    return tuple(positions.tolist()), tuple(x[positions].tolist())


class Package:
    """Multiplicities over a problem's active rows."""

    def __init__(self, problem, multiplicities: np.ndarray):
        counts = np.asarray(multiplicities)
        rounded = np.round(counts).astype(np.int64)
        if np.any(np.abs(counts - rounded) > 1e-6):
            raise ValueError("multiplicities must be integral")
        if rounded.shape != (problem.n_vars,):
            raise ValueError(
                f"expected {problem.n_vars} multiplicities, got {rounded.shape}"
            )
        if np.any(rounded < 0):
            raise ValueError("multiplicities must be nonnegative")
        self.problem = problem
        self.multiplicities = rounded

    # --- structure ------------------------------------------------------------

    @property
    def total_count(self) -> int:
        """Package size ``Σ x_i``."""
        return int(self.multiplicities.sum())

    @property
    def n_distinct(self) -> int:
        return int(np.count_nonzero(self.multiplicities))

    @property
    def is_empty(self) -> bool:
        return self.total_count == 0

    def nonzero_positions(self) -> np.ndarray:
        """Positions (within active rows) with positive multiplicity."""
        return np.nonzero(self.multiplicities)[0]

    def key_multiplicities(self) -> dict:
        """Map tuple key value -> multiplicity (nonzero entries only)."""
        keys = self.problem.relation.key_values()
        out = {}
        for pos in self.nonzero_positions():
            row = self.problem.active_rows[pos]
            out[keys[row]] = int(self.multiplicities[pos])
        return out

    # --- materialization ----------------------------------------------------------

    def to_relation(self, name: str | None = None) -> Relation:
        """Materialize the package as a relation (rows repeated)."""
        base_rows = []
        for pos in self.nonzero_positions():
            row = int(self.problem.active_rows[pos])
            base_rows.extend([row] * int(self.multiplicities[pos]))
        indices = np.asarray(base_rows, dtype=np.int64)
        relation = self.problem.relation
        columns = {
            n: relation.column(n)[indices] if len(indices) else relation.column(n)[:0]
            for n in relation.column_names
        }
        # Repeated rows duplicate the key; re-key positionally.
        columns["__package_row"] = np.arange(len(indices), dtype=np.int64)
        out_name = name or f"package_of_{relation.name}"
        return Relation(out_name, columns, key="__package_row")

    def deterministic_total(self, column: str) -> float:
        """``Σ column(t_i)·x_i`` for a deterministic column (convenience)."""
        values = self.problem.relation.column(column)[self.problem.active_rows]
        return float(np.asarray(values, dtype=float) @ self.multiplicities)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Package(total={self.total_count}, distinct={self.n_distinct},"
            f" table={self.problem.relation.name!r})"
        )


@dataclass
class PackageResult:
    """Full outcome of evaluating a stochastic package query."""

    package: Optional[Package]
    feasible: bool
    objective: Optional[float]
    method: str
    validation: Optional["ValidationReport"] = None
    stats: Optional["RunStats"] = None
    epsilon_upper: Optional[float] = None
    message: str = ""
    meta: dict = field(default_factory=dict)
    #: Deadline verdict + optimality gap, attached by the engine after
    #: every dispatch (see :mod:`repro.core.anytime`).
    anytime: Optional["AnytimeResult"] = None

    @property
    def succeeded(self) -> bool:
        return self.package is not None and self.feasible

    @property
    def uncertified(self) -> bool:
        """A feasible answer accepted with no usable objective bounds.

        SummarySearch sets ``meta["uncertified"]`` when no ε can be
        certified for the package, so no (1+ε) claim holds for it.
        """
        return bool(self.meta.get("uncertified", False))

    @property
    def verdict(self) -> str:
        """What the answer claims, one of four kinds.

        ``certified``: feasible within a certified (1+ε); ``uncertified``:
        feasible with no ε; ``proved_infeasible``: no package can meet
        some chance constraint (``meta["infeasibility"]`` says which, and
        at what δ); ``not_found``: none was found, which proves nothing.
        """
        if self.feasible:
            if self.epsilon_upper is None or self.uncertified:
                return "uncertified"
            return "certified"
        if "infeasibility" in self.meta:
            return "proved_infeasible"
        return "not_found"

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        if self.verdict == "proved_infeasible":
            return f"[{self.method}] no package exists: {self.message}"
        if self.package is None:
            return f"[{self.method}] no solution: {self.message or 'failure'}"
        lines = [
            f"[{self.method}] package with {self.package.total_count} tuples"
            f" ({self.package.n_distinct} distinct),"
            f" feasible={self.feasible}",
        ]
        if self.objective is not None:
            lines.append(f"objective estimate: {self.objective:.6g}")
        if self.feasible and self.epsilon_upper is not None:
            lines.append(f"approximation bound 1+eps <= {1 + self.epsilon_upper:.4g}")
        if self.uncertified:
            lines.append(
                "uncertified: no approximation bound is certified"
                " (the objective bounds admit no eps for this package)"
            )
        if self.anytime is not None and not self.anytime.deadline_met:
            gap = (
                "unknown"
                if self.anytime.gap is None
                else f"{self.anytime.gap:.4g}"
            )
            lines.append(
                f"deadline missed ({self.anytime.elapsed_ms:.0f}ms"
                f" > {self.anytime.deadline_ms:.0f}ms):"
                f" best incumbent returned, relative gap {gap}"
            )
        if self.stats is not None:
            lines.append(
                f"iterations: {self.stats.n_iterations},"
                f" total time: {self.stats.total_time:.3f}s,"
                f" final M: {self.stats.final_n_scenarios}"
            )
        return "\n".join(lines)
