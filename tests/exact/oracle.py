"""An exhaustive oracle for the paper's guarantee on small instances.

On a relation of at most eight tuples with ``COUNT(*) <= 3`` every
package can be listed (at most 165), and each is scored on 20 000 fresh
scenarios drawn from a seed that neither the optimisation nor the
validation stream uses.  Every assertion is a one-sided Clopper–Pearson
bound (or a five-standard-error bound on an expectation), never a point
compare, at ``DELTA`` per bound:

* a package reported feasible is not refuted: for each chance
  constraint, the fresh stream's upper bound on its probability reaches
  the lower bound that a feasible verdict on ``M̂`` validation scenarios
  (at least ``p·M̂`` satisfied) implies;
* an ε certificate holds against the oracle optimum: the best package
  the fresh stream shows feasible bounds the optimum;
* "infeasible" is reported only when the oracle agrees: no package is
  feasible by a margin that the scenarios the verdict was reached on
  could not miss (an answer that merely found no feasible package makes
  no claim, and carries no ε);
* "no package exists" (verdict ``proved_infeasible``) is reported only
  when no package's lower bound reaches its chance constraint's p.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import beta

from repro.config import STREAM_VALIDATION
from repro.db.expressions import render
from repro.mcdb.scenarios import MODE_TUPLE_WISE, ScenarioGenerator
from repro.silp.model import OP_EQ, OP_GE, OP_LE, SENSE_MAX

SCENARIOS = 20_000
DELTA = 1e-6
#: Standard errors an expectation estimate is allowed to be off by.
Z = 5.0
#: Added to the evaluation's seed: a stream neither side has drawn from.
SEED_OFFSET = 7_919


def lower(k, n, delta=DELTA):
    """One-sided Clopper–Pearson lower bound on a success probability."""
    k = np.asarray(k, dtype=float)
    return np.where(k > 0, beta.ppf(delta, np.maximum(k, 1), n - k + 1), 0.0)


def upper(k, n, delta=DELTA):
    """One-sided Clopper–Pearson upper bound on a success probability."""
    k = np.asarray(k, dtype=float)
    return np.where(k < n, beta.ppf(1 - delta, k + 1, np.maximum(n - k, 1)), 1.0)


def packages(n_vars: int, max_count: int = 3) -> np.ndarray:
    """Every multiplicity vector with at most ``max_count`` tuples."""
    rows = [np.zeros(n_vars, dtype=np.int64)]
    for count in range(1, max_count + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), count):
            rows.append(np.bincount(combo, minlength=n_vars))
    return np.array(rows)


class Oracle:
    """Every package of ``problem`` scored on a fresh scenario stream."""

    def __init__(self, problem, seed: int):
        assert problem.n_vars <= 8 and not problem.has_probability_objective
        self.problem = problem
        self.x = packages(problem.n_vars)
        generator = ScenarioGenerator(
            problem.model, seed + SEED_OFFSET, STREAM_VALIDATION, MODE_TUPLE_WISE
        )

        realized: dict = {}

        def sums(expr) -> np.ndarray:
            """Every package's SUM(expr) per fresh scenario, realized once."""
            text = render(expr)
            if text not in realized:
                matrix = generator.coefficient_matrix(
                    expr, SCENARIOS, rows=problem.active_rows
                )
                realized[text] = self.x @ matrix
            return realized[text]

        holds = np.ones(len(self.x), dtype=bool)
        for constraint in problem.mean_constraints:
            mean = sums(constraint.expr).mean(axis=1)
            slack = 1e-9 * max(1.0, abs(constraint.rhs))
            if constraint.op in (OP_LE, OP_EQ):
                holds &= mean <= constraint.rhs + slack
            if constraint.op in (OP_GE, OP_EQ):
                holds &= mean >= constraint.rhs - slack
        #: (p, satisfied counts per package) per chance constraint.
        self.chances = []
        for constraint in problem.chance_constraints:
            values = sums(constraint.expr)
            met = values >= constraint.rhs if constraint.inner_op == OP_GE else (
                values <= constraint.rhs
            )
            self.chances.append((constraint.probability, met.sum(axis=1)))
        self.holds = holds
        values = sums(problem.objective.expr)
        se = Z * values.std(axis=1) / math.sqrt(SCENARIOS)
        self.objective = (values.mean(axis=1) - se, values.mean(axis=1) + se)
        self.maximize = problem.objective.sense == SENSE_MAX

    def index(self, multiplicities) -> int:
        found = np.flatnonzero((self.x == np.asarray(multiplicities)).all(axis=1))
        assert len(found) == 1, multiplicities
        return int(found[0])

    def feasible_by(self, floor) -> np.ndarray:
        """Packages whose every chance probability is, w.h.p., above ``floor(p)``."""
        ok = self.holds.copy()
        for p, counts in self.chances:
            ok &= lower(counts, SCENARIOS) >= floor(p)
        return ok

    def check(self, answer: dict, validation_scenarios: int) -> None:
        """Assert the guarantee for one evaluation's :func:`records`."""
        m = validation_scenarios
        if answer["feasible"]:
            i = self.index(answer["multiplicities"])
            assert self.holds[i]
            for p, counts in self.chances:
                # A feasible verdict saw at least p·M̂ of M̂ satisfied.
                claimed = lower(math.ceil(p * m - 1e-9), m)
                assert upper(counts[i], SCENARIOS) >= claimed, (p, counts[i])
            self.check_certificate(i, answer["epsilon_upper"])
        else:
            assert answer["epsilon_upper"] is None
        if answer["verdict"] == "proved_infeasible":
            sure = self.feasible_by(lambda p: p)
            assert not sure.any(), self.x[sure][:3]
        if answer["declared_infeasible"]:
            # No package is feasible by a margin that the M scenarios the
            # verdict was reached on could miss.
            m = max((r.n_scenarios for r in answer["records"]), default=m)
            margin = self.feasible_by(lambda p: upper(math.ceil(p * m - 1e-9) - 1, m))
            assert not margin.any(), self.x[margin][:3]

    def check_certificate(self, i: int, epsilon: float | None) -> None:
        low, high = self.objective
        sure = self.feasible_by(lambda p: p)
        if epsilon is None or not sure.any():
            return
        # Propositions 2 and 4 (positive objectives): ω <= (1+ε)·ω* when
        # minimizing, ω* <= (1+ε)·ω when maximizing.
        assert low[i] > 0, "the oracle's instances have positive objectives"
        if self.maximize:
            # ω* is at least the best package the fresh stream shows feasible.
            assert low[sure].max() <= (1 + epsilon) * high[i]
        else:
            # ω* is at most the best package the fresh stream shows feasible.
            assert low[i] <= (1 + epsilon) * high[sure].min()
