"""Geometric-Brownian-motion VG function for the Portfolio workload.

Section 6.1: "future prices are generated according to a geometric
Brownian motion", and "tuples referring to the same stock are correlated
to one another" — e.g. the 1-day and 1-week gains of the same stock share
one Brownian path, while different stocks are independent.

For a stock with current price ``S₀``, drift ``μ``, and volatility ``σ``,
the price at horizon ``t`` (in days) is

    ``S_t = S₀ · exp((μ − σ²/2)·t + σ·W_t)``

with ``W_t`` a standard Brownian motion.  The *gain* attribute of a tuple
that sells at horizon ``t`` is ``S_t − S₀``.  Correlation across horizons
of the same stock is realized by building ``W`` from shared increments.

Scenario-wise generation (Section 5.5) costs one vectorized Θ(N) draw
per scenario for any horizon layout.  That includes a SketchRefine
partition that keeps only some of a stock's horizons.  At bind time,
every block's grid is laid out as one padded matrix.
:meth:`~GeometricBrownianMotionVG.sample_all` is then a fixed handful of
array operations.  It returns exactly the stream of the per-block loop
that tuple-wise generation still uses.
"""

from __future__ import annotations

import numpy as np

from ..errors import VGFunctionError
from .vg import VGFunction, grouped_blocks, register_vg


@register_vg("gbm")
class GeometricBrownianMotionVG(VGFunction):
    """Per-stock correlated GBM gains.

    Parameters
    ----------
    price_column, drift_column, volatility_column, horizon_column:
        Column names holding ``S₀``, ``μ`` (per day), ``σ`` (per √day),
        and the sell horizon ``t`` in days.
    group_column:
        Column identifying the stock; rows with equal values form one
        correlated block sharing a Brownian path.
    """

    def __init__(
        self,
        price_column: str = "price",
        drift_column: str = "drift",
        volatility_column: str = "volatility",
        horizon_column: str = "sell_in_days",
        group_column: str = "stock",
    ):
        super().__init__()
        self.price_column = price_column
        self.drift_column = drift_column
        self.volatility_column = volatility_column
        self.horizon_column = horizon_column
        self.group_column = group_column
        self._price: np.ndarray | None = None
        self._drift: np.ndarray | None = None
        self._vol: np.ndarray | None = None
        self._horizon: np.ndarray | None = None
        # Unused, but constructor attributes feed params_fingerprint(),
        # which keys persisted partition indexes and scenario caches;
        # dropping it would orphan them.
        self._uniform: dict | None = None

    def _build_blocks(self, relation):
        return grouped_blocks(relation.column(self.group_column))

    def _after_bind(self, relation) -> None:
        self._price = np.asarray(relation.column(self.price_column), dtype=float)
        self._drift = np.asarray(relation.column(self.drift_column), dtype=float)
        self._vol = np.asarray(relation.column(self.volatility_column), dtype=float)
        self._horizon = np.asarray(relation.column(self.horizon_column), dtype=float)
        if np.any(self._price <= 0):
            raise VGFunctionError("stock prices must be positive")
        if np.any(self._vol < 0):
            raise VGFunctionError("volatility must be nonnegative")
        if np.any(self._horizon <= 0):
            raise VGFunctionError("sell horizons must be positive")
        self._bind_grid()

    def _bind_grid(self) -> None:
        """Lay every block's Brownian grid out as one padded matrix.

        Block ``b``'s grid is its sorted distinct horizons; its steps
        fill column ``b`` of a ``(max_steps, n_blocks)`` matrix from the
        top, and the cells below stay zero.  ``_step_slot`` lists the
        filled cells block by block (the order the block loop draws
        them in) with ``_step_sqrt_dt = sqrt(diff([0, grid]))`` beside
        them, and ``_row_slot`` is the cell of each row's horizon.  Also
        precomputes each row's ``(μ − σ²/2)·t``.
        """
        assert self._horizon is not None and self._block_of_row is not None
        row_block = self._block_of_row
        horizon = self._horizon
        order = np.lexsort((horizon, row_block))
        block_sorted = row_block[order]
        horizon_sorted = horizon[order]
        new_block = np.ones(len(order), dtype=bool)
        new_block[1:] = block_sorted[1:] != block_sorted[:-1]
        # Drift and volatility are per stock: compare every row with its
        # block's first sorted row instead of a ptp per block.
        head = order[np.flatnonzero(new_block)]
        for col, name in ((self._drift, "drift"), (self._vol, "volatility")):
            if np.any(col != col[head][row_block]):
                raise VGFunctionError(
                    f"{name} must be constant within a stock block"
                )
        new_step = new_block.copy()
        new_step[1:] |= horizon_sorted[1:] != horizon_sorted[:-1]
        step_block = block_sorted[new_step]
        step_horizon = horizon_sorted[new_step]
        n_steps = np.bincount(step_block, minlength=self.n_blocks)
        first_step = np.cumsum(n_steps) - n_steps
        step_rank = np.arange(len(step_block)) - first_step[step_block]
        previous = np.zeros(len(step_horizon))
        previous[1:] = step_horizon[:-1]
        previous[step_rank == 0] = 0.0
        self._grid_shape = (int(n_steps.max(initial=0)), self.n_blocks)
        self._step_slot = step_rank * self.n_blocks + step_block
        self._step_sqrt_dt = np.sqrt(step_horizon - previous)
        self._row_slot = np.empty(len(order), dtype=np.int64)
        self._row_slot[order] = self._step_slot[np.cumsum(new_step) - 1]
        self._growth = (self._drift - 0.5 * self._vol**2) * horizon

    # --- sampling ------------------------------------------------------------

    def _gains_from_w(self, w: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Gains for ``rows`` (default: all) given Brownian values ``w``
        at their horizons; ``w`` has shape ``(len(rows), size)``."""
        assert self._price is not None
        log_growth = self._growth[rows, None] + self._vol[rows, None] * w
        return self._price[rows, None] * (np.exp(log_growth) - 1.0)

    def _sample_block(self, block_index, rng, size):
        rows = self.blocks[block_index]
        horizons = self._horizon[rows]
        grid = np.sort(np.unique(horizons))
        dt = np.diff(np.concatenate([[0.0], grid]))
        # Brownian path at the grid points, for `size` scenarios.
        increments = rng.normal(0.0, 1.0, size=(len(grid), size)) * np.sqrt(dt)[:, None]
        w_grid = np.cumsum(increments, axis=0)
        step_of_row = np.searchsorted(grid, horizons)
        w = w_grid[step_of_row, :]
        return self._gains_from_w(w, rows)

    def sample_all(self, rng):
        """One scenario: the block loop's exact stream, as array code.

        The loop draws each block's grid increments in turn; here one
        draw of every block's steps lands block by block in the padded
        grid.  Padding sits below each block's real steps and is zero,
        so the running sums down each column are the loop's to the bit.
        """
        increments = np.zeros(self._grid_shape[0] * self._grid_shape[1])
        increments[self._step_slot] = (
            rng.normal(0.0, 1.0, size=len(self._step_slot)) * self._step_sqrt_dt
        )
        w_grid = np.cumsum(increments.reshape(self._grid_shape), axis=0)
        return self._gains_from_w(w_grid.take(self._row_slot)[:, None])[:, 0]

    # --- analytic structure ----------------------------------------------------

    def mean(self):
        """``E[gain] = S₀(e^{μt} − 1)`` (closed form for GBM)."""
        assert self._price is not None
        return self._price * (np.exp(self._drift * self._horizon) - 1.0)

    def support(self):
        """Prices stay positive, so gains are bounded below by ``−S₀``."""
        assert self._price is not None
        return -self._price.copy(), np.full(self.n_rows, np.inf)
