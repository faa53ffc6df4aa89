"""Noise-model VG functions over a deterministic base column.

The Galaxy workload (Section 6.1, Table 3) models telescope readings as
the original value plus Gaussian or Pareto noise, with the noise scale
either shared by all tuples (``σ``) or randomized per tuple (``σ*``).
These VG functions implement ``value_i = base_i + noise_i`` with
independent per-row noise; each row is its own block.

All of them expose closed-form means where they exist (Pareto with shape
``a ≤ 1`` has no finite mean — the Galaxy Q5–Q8 queries deliberately use
``a = 1``, which is why the paper estimates expectations empirically) and
finite support bounds where they exist (feeding Appendix B's bounds).
"""

from __future__ import annotations

import numpy as np

from ..errors import VGFunctionError
from .vg import VGFunction, register_vg


#: ``rows`` value for "every row": a slice views the parameter arrays
#: where an index array would copy them on every scenario.
_ALL_ROWS = slice(None)


def _per_row(param, n: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-row parameter to shape ``(n,)``."""
    arr = np.asarray(param, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise VGFunctionError(f"{name} must be scalar or have one value per row")
    return arr


class _NoiseVG(VGFunction):
    """Common machinery: value = base column + independent noise."""

    def __init__(self, base_column: str):
        super().__init__()
        self.base_column = base_column
        self._base: np.ndarray | None = None

    def _after_bind(self, relation) -> None:
        self._base = np.asarray(relation.column(self.base_column), dtype=float)
        self._check_params(relation.n_rows)

    def _check_params(self, n: int) -> None:
        """Validate/broadcast distribution parameters after binding."""

    @property
    def base(self) -> np.ndarray:
        """The resolved per-row base-column values."""
        self._require_bound()
        assert self._base is not None
        return self._base

    def _noise(self, rows, rng, size: int) -> np.ndarray:
        """Noise of shape ``(n, size)`` for ``rows``: an index array of
        ``n`` rows, or ``_ALL_ROWS`` (see :meth:`_size`)."""
        raise NotImplementedError

    def _size(self, rows, size: int) -> tuple[int, int]:
        """The ``(n, size)`` draw shape for :meth:`_noise`'s ``rows``."""
        n = len(self.base) if rows is _ALL_ROWS else len(rows)
        return n, size

    def _sample_block(self, block_index, rng, size):
        rows = self.blocks[block_index]
        return self.base[rows, None] + self._noise(rows, rng, size)

    def sample_all(self, rng):
        """One scenario: base values plus one vectorized noise draw."""
        return self.base + self._noise(_ALL_ROWS, rng, 1)[:, 0]


@register_vg("gaussian")
class GaussianNoiseVG(_NoiseVG):
    """``base + Normal(0, σ_i)`` — Galaxy Q1–Q4.

    ``sigma`` may be a scalar (the paper's ``σ`` case) or per-row array
    (the ``σ*`` case, where per-tuple deviations were drawn as
    ``|Normal(0, σ*)|`` at dataset-construction time).
    """

    def __init__(self, base_column: str, sigma):
        super().__init__(base_column)
        self._sigma_param = sigma
        self._sigma: np.ndarray | None = None

    def _check_params(self, n: int) -> None:
        self._sigma = _per_row(self._sigma_param, n, "sigma")
        if np.any(self._sigma < 0):
            raise VGFunctionError("sigma must be nonnegative")

    def _noise(self, rows, rng, size):
        assert self._sigma is not None
        return rng.normal(0.0, 1.0, size=self._size(rows, size)) * self._sigma[rows, None]

    def mean(self):
        """``E[value_i] = base_i`` (the noise is centered)."""
        return self.base.copy()

    # Gaussian noise is unbounded: keep default infinite support.


@register_vg("pareto")
class ParetoNoiseVG(_NoiseVG):
    """``base + Pareto(scale m_i, shape a_i)`` — Galaxy Q5–Q8.

    Classical (Type I) Pareto: noise ≥ m, density ``a mᵃ / x^{a+1}``.
    The mean is ``a·m/(a−1)`` for ``a > 1`` and infinite otherwise, in
    which case :meth:`mean` returns ``None`` and the engine falls back to
    Monte Carlo estimation (what the paper's prototype does throughout).
    """

    def __init__(self, base_column: str, scale, shape):
        super().__init__(base_column)
        self._scale_param = scale
        self._shape_param = shape
        self._scale: np.ndarray | None = None
        self._shape: np.ndarray | None = None

    def _check_params(self, n: int) -> None:
        self._scale = _per_row(self._scale_param, n, "scale")
        self._shape = _per_row(self._shape_param, n, "shape")
        if np.any(self._scale <= 0) or np.any(self._shape <= 0):
            raise VGFunctionError("Pareto scale and shape must be positive")
        # The shape when every row shares it (Galaxy Q5–Q8's a = 1):
        # ``rng.pareto`` draws the same values from a scalar at half the
        # cost of a per-row array.  Bound state, so it is set here only.
        uniform = n > 0 and bool(np.all(self._shape == self._shape[0]))
        self._common_shape = float(self._shape[0]) if uniform else None

    def _noise(self, rows, rng, size):
        assert self._scale is not None and self._shape is not None
        shape = self._common_shape
        if shape is None:
            shape = self._shape[rows, None]
        raw = rng.pareto(shape, size=self._size(rows, size))
        return (raw + 1.0) * self._scale[rows, None]

    def mean(self):
        """``base + a·m/(a−1)`` for shape ``a > 1``; ``None`` otherwise."""
        assert self._scale is not None and self._shape is not None
        if np.any(self._shape <= 1.0):
            return None
        return self.base + self._shape * self._scale / (self._shape - 1.0)

    def support(self):
        """Noise is at least the scale ``m``: support ``[base+m, ∞)``."""
        assert self._scale is not None
        lo = self.base + self._scale
        return lo, np.full(self.n_rows, np.inf)


@register_vg("uniform")
class UniformNoiseVG(_NoiseVG):
    """``base + Uniform(lo, hi)`` with per-row or scalar bounds."""

    def __init__(self, base_column: str, low, high):
        super().__init__(base_column)
        self._low_param = low
        self._high_param = high
        self._low: np.ndarray | None = None
        self._high: np.ndarray | None = None

    def _check_params(self, n: int) -> None:
        self._low = _per_row(self._low_param, n, "low")
        self._high = _per_row(self._high_param, n, "high")
        if np.any(self._low > self._high):
            raise VGFunctionError("uniform noise requires low <= high")

    def _noise(self, rows, rng, size):
        assert self._low is not None and self._high is not None
        u = rng.random(size=self._size(rows, size))
        lo = self._low[rows, None]
        hi = self._high[rows, None]
        return lo + u * (hi - lo)

    def mean(self):
        """``base + (low + high) / 2``."""
        assert self._low is not None and self._high is not None
        return self.base + 0.5 * (self._low + self._high)

    def support(self):
        """Exact finite support ``[base+low, base+high]``."""
        assert self._low is not None and self._high is not None
        return self.base + self._low, self.base + self._high


@register_vg("exponential")
class ExponentialNoiseVG(_NoiseVG):
    """``base + (Exponential(rate) − 1/rate)`` — zero-mean exponential noise."""

    def __init__(self, base_column: str, rate, centered: bool = True):
        super().__init__(base_column)
        self._rate_param = rate
        self.centered = centered
        self._rate: np.ndarray | None = None

    def _check_params(self, n: int) -> None:
        self._rate = _per_row(self._rate_param, n, "rate")
        if np.any(self._rate <= 0):
            raise VGFunctionError("exponential rate must be positive")

    def _noise(self, rows, rng, size):
        assert self._rate is not None
        scale = 1.0 / self._rate[rows, None]
        noise = rng.exponential(scale, size=self._size(rows, size))
        if self.centered:
            noise = noise - scale
        return noise

    def mean(self):
        """``base`` when centered, else ``base + 1/rate``."""
        assert self._rate is not None
        if self.centered:
            return self.base.copy()
        return self.base + 1.0 / self._rate

    def support(self):
        """Lower-bounded: ``[base − 1/rate, ∞)`` centered, ``[base, ∞)`` raw."""
        assert self._rate is not None
        shift = -1.0 / self._rate if self.centered else np.zeros(self.n_rows)
        return self.base + shift, np.full(self.n_rows, np.inf)


@register_vg("student_t")
class StudentTNoiseVG(_NoiseVG):
    """``base + scale · t(ν)`` — heavy-tailed symmetric noise.

    Mean exists (and is the base value) only for ``ν > 1``.
    """

    def __init__(self, base_column: str, dof, scale=1.0):
        super().__init__(base_column)
        self._dof_param = dof
        self._scale_param = scale
        self._dof: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def _check_params(self, n: int) -> None:
        self._dof = _per_row(self._dof_param, n, "dof")
        self._scale = _per_row(self._scale_param, n, "scale")
        if np.any(self._dof <= 0):
            raise VGFunctionError("degrees of freedom must be positive")
        if np.any(self._scale <= 0):
            raise VGFunctionError("scale must be positive")

    def _noise(self, rows, rng, size):
        assert self._dof is not None and self._scale is not None
        raw = rng.standard_t(self._dof[rows, None], size=self._size(rows, size))
        return raw * self._scale[rows, None]

    def mean(self):
        """``base`` for ``ν > 1``; ``None`` otherwise (undefined mean)."""
        assert self._dof is not None
        if np.any(self._dof <= 1.0):
            return None
        return self.base.copy()
