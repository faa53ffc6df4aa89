"""Expectation precomputation (Section 3.2).

The paper estimates every ``E[t_i.A]`` during a precomputation phase by
averaging ``M̂`` scenarios with running averages, then appends the
estimates to the table; solutions are therefore always feasible with
respect to expectation constraints, and validation can focus on the
probabilistic constraints.

This module reproduces that phase with two improvements that preserve the
semantics:

* when the VG function has a closed-form mean (Gaussian noise, GBM,
  discrete integration mixtures) the analytic value is used — it is what
  the running average converges to;
* when it does not (Pareto with shape 1 has no finite mean — Galaxy
  Q5–Q8), a chunked Monte Carlo running average over a dedicated RNG
  stream is used, exactly like the paper.

Expectations of arbitrary constraint expressions ``E[f(t_i)]`` use
linearity when ``f`` is affine in the stochastic attributes, and Monte
Carlo otherwise.
"""

from __future__ import annotations

import numpy as np

from ..config import SPQConfig, STREAM_EXPECTATION
from ..db.expressions import Expr, affine_in, attributes_of, evaluate
from .scenarios import MODE_SCENARIO_WISE, ScenarioGenerator
from .stochastic import StochasticModel

#: Scenario chunk evaluated at a time during Monte Carlo averaging.
_CHUNK = 256


class ExpectationEstimator:
    """Estimates per-tuple expectations of attributes and expressions.

    With a shared scenario ``store`` attached, Monte-Carlo means are
    content-keyed and reused across queries: the estimate is a pure
    function of (relation content, VG functions, seed, scenario count),
    so a repeated query skips the averaging loop entirely.  Analytic
    means are never stored — they are cheaper than the lookup.
    """

    def __init__(self, model: StochasticModel, config: SPQConfig, store=None):
        self.model = model
        self.relation = model.relation
        self.config = config
        self._store = store
        self._generator = ScenarioGenerator(
            model, config.seed, STREAM_EXPECTATION, mode=MODE_SCENARIO_WISE
        )
        self._attribute_means: dict[str, np.ndarray] = {}
        self._expression_means: dict[int, np.ndarray] = {}

    def _stored_mean(self, label: str, compute) -> np.ndarray:
        """Serve a Monte-Carlo mean vector from the shared store.

        The derived vector is stored as a one-column entry; the scenario
        count and seed are part of the key, so changing either
        regenerates rather than reusing a stale estimate.
        """
        if self._store is None:
            return compute()
        from ..service.store import model_fingerprint

        key = (
            model_fingerprint(self.model),
            f"mean:{label}@{self.config.n_expectation_scenarios}",
            (self.config.seed, STREAM_EXPECTATION, 0, "mean"),
        )
        column = self._store.coefficient_matrix(
            key, 1, lambda start, stop: compute()[:, None]
        )
        return np.asarray(column[:, 0])

    # --- attribute means ---------------------------------------------------------

    def attribute_mean(self, name: str) -> np.ndarray:
        """``E[t_i.A]`` per tuple (cached)."""
        if name in self._attribute_means:
            return self._attribute_means[name]
        vg = self.model.vg(name)
        mean = vg.mean()
        if mean is None:
            mean = self._stored_mean(
                name, lambda: self._monte_carlo_attribute_mean(name)
            )
        self._attribute_means[name] = np.asarray(mean, dtype=float)
        return self._attribute_means[name]

    def _monte_carlo_attribute_mean(self, name: str) -> np.ndarray:
        """Running average over the expectation stream (Section 3.2)."""
        total = np.zeros(self.relation.n_rows, dtype=float)
        n = self.config.n_expectation_scenarios
        for j in range(n):
            total += self._generator.realize(name, j)
        return total / n

    # --- expression means ----------------------------------------------------------

    def expression_mean(self, expr: Expr) -> np.ndarray:
        """``E[f(t_i)]`` per tuple for a constraint/objective expression."""
        key = id(expr)
        if key in self._expression_means:
            return self._expression_means[key]
        names = attributes_of(expr)
        stochastic = set(self.model.stochastic_subset(sorted(names)))
        if not stochastic:
            values = evaluate(expr, self.relation.columns_mapping())
            mean = np.broadcast_to(
                np.asarray(values, dtype=float), (self.relation.n_rows,)
            ).astype(float)
        elif affine_in(expr, stochastic):
            # Linearity of expectation: substitute each stochastic
            # attribute with its per-tuple mean.
            substitutes = dict(self.relation.columns_mapping())
            for name in stochastic:
                substitutes[name] = self.attribute_mean(name)
            values = evaluate(expr, substitutes)
            mean = np.broadcast_to(
                np.asarray(values, dtype=float), (self.relation.n_rows,)
            ).astype(float)
        else:
            from ..db.expressions import render

            mean = self._stored_mean(
                render(expr), lambda: self._monte_carlo_expression_mean(expr)
            )
        self._expression_means[key] = mean
        return mean

    def _monte_carlo_expression_mean(self, expr: Expr) -> np.ndarray:
        total = np.zeros(self.relation.n_rows, dtype=float)
        n = self.config.n_expectation_scenarios
        done = 0
        while done < n:
            chunk = min(_CHUNK, n - done)
            matrix = self._chunk_matrix(expr, done, chunk)
            total += matrix.sum(axis=1)
            done += chunk
        return total / n

    def _chunk_matrix(self, expr: Expr, start: int, count: int) -> np.ndarray:
        """Coefficient matrix for scenarios ``[start, start+count)``."""
        names = attributes_of(expr)
        stochastic = self.model.stochastic_subset(sorted(names))
        realized = {}
        for name in stochastic:
            columns = np.empty((self.relation.n_rows, count), dtype=float)
            for offset in range(count):
                columns[:, offset] = self._generator.realize(name, start + offset)
            realized[name] = columns

        def resolver(attr: str) -> np.ndarray:
            if attr in realized:
                return realized[attr]
            return np.asarray(self.relation.column(attr), dtype=float)[:, None]

        values = evaluate(expr, resolver)
        return np.broadcast_to(values, (self.relation.n_rows, count)).astype(
            float, copy=False
        )
