"""Gaussian-copula VG function: correlated draws across a column group.

The independent noise families of :mod:`repro.mcdb.distributions` perturb
every row in isolation, which cannot express the Portfolio use case's
co-moving asset returns (Section 6.1).  :class:`GaussianCopulaVG` draws
*correlated* standard normals within each group of rows (e.g. stocks of
one sector) and maps them through per-row location/scale marginals::

    value_i = base_i + scale_i * z_i,       z ~ N(0, C) within each block

The correlation structure ``C`` comes from one of three sources:

* ``rho`` — a single equicorrelation coefficient applied within every
  block.  For ``0 <= rho <= 1`` the draws use the one-factor
  representation ``z_i = sqrt(rho) * g_block + sqrt(1-rho) * eps_i``
  (one shared market shock per block), which vectorizes over the whole
  relation and keeps realization within a small constant factor of
  independent Gaussian noise (see ``benchmarks/bench_vg.py``).
* ``correlation`` — an explicit ``(k, k)`` correlation matrix; every
  block must then have exactly ``k`` rows.  Drawn via Cholesky.
* ``history_columns`` — per-row historical observation columns; the
  within-block correlation matrix is *estimated* from them
  (``np.corrcoef`` over the block's rows) and drawn via Cholesky.

Blocks are defined by ``group_column`` (rows with equal values form one
correlated block; ``None`` makes the whole relation a single block), so
the existing block-keyed RNG substreams of :mod:`repro.mcdb.scenarios`
apply unchanged — a realization stays bit-identical however its
scenario range is sliced.
"""

from __future__ import annotations

import numpy as np

from ..errors import VGFunctionError
from .vg import VGFunction, grouped_blocks, register_vg

#: Jitter ladder for Cholesky of (possibly singular) estimated matrices.
_CHOLESKY_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


def cholesky_correlation(matrix: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a correlation matrix, with graceful jitter.

    Sample correlation matrices are PSD but can be singular (fewer
    observations than rows); a tiny ridge ``(C + eps*I) / (1 + eps)``
    restores positive definiteness without visibly changing the
    distribution.  Raises :class:`VGFunctionError` naming ``what`` when
    the matrix is not a valid correlation matrix at all.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise VGFunctionError(f"{what} must be a square correlation matrix")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-8):
        raise VGFunctionError(f"{what} must have unit diagonal")
    if not np.allclose(matrix, matrix.T, atol=1e-8):
        raise VGFunctionError(f"{what} must be symmetric")
    eye = np.eye(matrix.shape[0])
    for jitter in _CHOLESKY_JITTERS:
        try:
            return np.linalg.cholesky((matrix + jitter * eye) / (1.0 + jitter))
        except np.linalg.LinAlgError:
            continue
    raise VGFunctionError(f"{what} is not positive semi-definite")


def equicorrelation_matrix(k: int, rho: float) -> np.ndarray:
    """The ``(k, k)`` matrix with 1 on the diagonal and ``rho`` elsewhere.

    Positive semi-definite iff ``-1/(k-1) <= rho <= 1``.
    """
    return np.full((k, k), float(rho)) + (1.0 - float(rho)) * np.eye(k)


@register_vg("gaussian_copula")
class GaussianCopulaVG(VGFunction):
    """Correlated Gaussian draws within row groups (see module docstring).

    Parameters
    ----------
    base_column:
        Column holding the per-row location (e.g. the expected gain).
    scale:
        Marginal standard deviation: a scalar, a per-row array, or the
        name of a column to read per-row scales from.
    rho:
        Equicorrelation coefficient within each block (``-1 <= rho <= 1``;
        negative values must satisfy ``rho >= -1/(k-1)`` for the largest
        block size ``k``).  Mutually exclusive with ``correlation`` and
        ``history_columns``.  Defaults to ``0.0`` (independent rows)
        when no correlation source is given.
    correlation:
        Explicit ``(k, k)`` correlation matrix shared by every block
        (all blocks must have exactly ``k`` rows).
    history_columns:
        Names of columns holding historical observations (one column per
        past period); the within-block correlation is estimated from
        them at bind time.
    group_column:
        Column whose equal values define the correlated blocks; ``None``
        correlates the entire relation as one block.
    """

    def __init__(
        self,
        base_column: str,
        scale=1.0,
        rho: float | None = None,
        correlation=None,
        history_columns=None,
        group_column: str | None = None,
    ):
        super().__init__()
        sources = sum(
            source is not None for source in (rho, correlation, history_columns)
        )
        if sources > 1:
            raise VGFunctionError(
                "give exactly one of rho, correlation, or history_columns"
            )
        if sources == 0:
            rho = 0.0
        if rho is not None and not -1.0 <= float(rho) <= 1.0:
            raise VGFunctionError("rho must lie in [-1, 1]")
        self.base_column = base_column
        self.scale = scale
        self.rho = None if rho is None else float(rho)
        self.correlation = (
            None if correlation is None else np.asarray(correlation, dtype=float)
        )
        if isinstance(history_columns, str):
            history_columns = [history_columns]
        self.history_columns = (
            None if history_columns is None else tuple(history_columns)
        )
        self.group_column = group_column
        self._base: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        #: Per-block Cholesky factors (None on the one-factor fast path).
        self._chols: list[np.ndarray] | None = None

    # --- binding -------------------------------------------------------------

    def _build_blocks(self, relation):
        if self.group_column is None:
            return [np.arange(relation.n_rows)]
        return grouped_blocks(relation.column(self.group_column))

    def _after_bind(self, relation) -> None:
        self._base = np.asarray(relation.column(self.base_column), dtype=float)
        self._scale = self._resolve_scale(relation)
        if self._one_factor:
            # PSD for every block size is implied by rho >= 0; nothing to
            # factor — draws use the shared-shock representation.
            self._chols = None
        elif self.correlation is not None:
            k = self.correlation.shape[0] if self.correlation.ndim == 2 else -1
            for rows in self.blocks:
                if len(rows) != k:
                    raise VGFunctionError(
                        f"correlation matrix is {k}x{k} but a"
                        f" {self.group_column!r} block has {len(rows)} rows"
                    )
            chol = cholesky_correlation(self.correlation, "correlation")
            self._chols = [chol] * len(self.blocks)
        elif self.history_columns is not None:
            self._chols = [
                self._estimated_cholesky(relation, rows) for rows in self.blocks
            ]
        else:  # negative equicorrelation: one factor per block size
            chol_by_size: dict[int, np.ndarray] = {}
            for rows in self.blocks:
                k = len(rows)
                if k not in chol_by_size:
                    chol_by_size[k] = cholesky_correlation(
                        equicorrelation_matrix(k, self.rho),
                        f"equicorrelation rho={self.rho} at block size {k}",
                    )
            self._chols = [chol_by_size[len(rows)] for rows in self.blocks]

    @property
    def _one_factor(self) -> bool:
        """Whether the vectorized shared-shock representation applies."""
        return self.rho is not None and self.rho >= 0.0

    def _resolve_scale(self, relation) -> np.ndarray:
        if isinstance(self.scale, str):
            values = np.asarray(relation.column(self.scale), dtype=float)
        else:
            values = np.asarray(self.scale, dtype=float)
            if values.ndim == 0:
                values = np.full(relation.n_rows, float(values))
        if values.shape != (relation.n_rows,):
            raise VGFunctionError(
                "scale must be a scalar, a column name, or one value per row"
            )
        if np.any(values < 0):
            raise VGFunctionError("scale must be nonnegative")
        return values

    def _estimated_cholesky(self, relation, rows: np.ndarray) -> np.ndarray:
        history = np.stack(
            [
                np.asarray(relation.column(name), dtype=float)[rows]
                for name in self.history_columns
            ],
            axis=1,
        )
        if history.shape[1] < 2:
            raise VGFunctionError(
                "history_columns needs at least two observation columns"
            )
        if np.any(history.std(axis=1) == 0):
            raise VGFunctionError(
                "history_columns have zero variance for some rows;"
                " cannot estimate a correlation matrix"
            )
        if len(rows) == 1:
            return np.ones((1, 1))
        corr = np.corrcoef(history)
        np.fill_diagonal(corr, 1.0)
        return cholesky_correlation(
            np.clip(corr, -1.0, 1.0), "estimated correlation"
        )

    # --- sampling ------------------------------------------------------------

    def _correlated_normals(
        self, block_index: int, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        k = len(self.blocks[block_index])
        if self._one_factor:
            shared = rng.normal(0.0, 1.0, size=(1, size))
            own = rng.normal(0.0, 1.0, size=(k, size))
            return np.sqrt(self.rho) * shared + np.sqrt(1.0 - self.rho) * own
        return self._chols[block_index] @ rng.normal(0.0, 1.0, size=(k, size))

    def _sample_block(self, block_index, rng, size):
        rows = self.blocks[block_index]
        z = self._correlated_normals(block_index, rng, size)
        return self._base[rows, None] + self._scale[rows, None] * z

    def sample_all(self, rng):
        """One scenario, vectorized on the one-factor path (see module)."""
        if not self._one_factor:
            return super().sample_all(rng)
        # Vectorized one-factor path: one shared shock per block plus one
        # idiosyncratic shock per row, two draws total per scenario.
        shared = rng.normal(0.0, 1.0, size=self.n_blocks)
        own = rng.normal(0.0, 1.0, size=self.n_rows)
        z = (
            np.sqrt(self.rho) * shared[self._block_of_row]
            + np.sqrt(1.0 - self.rho) * own
        )
        return self._base + self._scale * z

    # --- analytic structure ----------------------------------------------------

    def mean(self):
        """``E[value_i] = base_i`` (the copula noise is centered)."""
        self._require_bound()
        return self._base.copy()

    # Gaussian marginals are unbounded: keep the default infinite support.
