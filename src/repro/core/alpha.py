"""α selection: ``GuessOptimalConservativeness`` (Section 5.2).

CSA-Solve seeks, per probabilistic item, the minimally conservative
``α_k`` with nonnegative p-surplus ``r(α_k)``.  The search space is the
finite grid ``{Z/M, 2Z/M, …, 1}``; the update fits a smooth curve to the
historical ``(α, r)`` points and solves ``R(α) = 0``:

* with ≥ 4 distinct points an arctangent ``r ≈ a·arctan(b(α−c)) + d`` is
  fit (the paper found it the most accurate predictor);
* with 2–3 points, a least-squares line;
* with one point, the first-order heuristic ``α ← α − r`` (the surplus is
  measured in probability units, as is α);
* when the history does not bracket a root, we extrapolate in the
  direction of the deficit.

Results snap to the grid; if the snapped value was already tried, the
nearest untried grid point in the corrective direction is chosen, which
keeps the search from stalling before CSA-Solve's cycle detection fires.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import leastsq

#: Minimum points for the arctangent fit (it has four parameters).
_ARCTAN_MIN_POINTS = 4


def snap_to_grid(alpha: float, step: float) -> float:
    """Round to the nearest multiple of ``step`` within ``[step, 1]``."""
    if step <= 0 or step > 1:
        raise ValueError("grid step must lie in (0, 1]")
    multiple = round(alpha / step)
    snapped = multiple * step
    return float(min(1.0, max(step, snapped)))


def _fit_arctan_root(alphas: np.ndarray, surpluses: np.ndarray) -> float | None:
    """Root of the fitted ``a·arctan(b(α−c)) + d``; ``None`` if unusable.

    The Levenberg–Marquardt fit ``scipy.optimize.curve_fit`` runs for
    this model, called directly: same start, residual and acceptance
    rule, without the covariance estimate nothing here reads.
    """
    if not (np.isfinite(alphas).all() and np.isfinite(surpluses).all()):
        return None

    def residual(params):
        a, b, c, d = params
        return a * np.arctan(b * (alphas - c)) + d - surpluses

    spread = max(float(alphas.max() - alphas.min()), 1e-3)
    p0 = [
        max(float(surpluses.max() - surpluses.min()), 1e-3),
        2.0 / spread,
        float(alphas.mean()),
        float(surpluses.mean()),
    ]
    try:
        params, _, _, _, ier = leastsq(residual, p0, full_output=True, maxfev=2000)
    except Exception:
        return None
    if ier not in (1, 2, 3, 4):
        return None
    a, b, c, d = params
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        return None
    ratio = -d / a
    if not -np.pi / 2 + 1e-9 < ratio < np.pi / 2 - 1e-9:
        return None
    return float(c + math.tan(ratio) / b)


def _fit_linear_root(alphas: np.ndarray, surpluses: np.ndarray) -> float | None:
    """Root of the least-squares line through the history points."""
    if len(np.unique(alphas)) < 2:
        return None
    slope, intercept = np.polyfit(alphas, surpluses, 1)
    if abs(slope) < 1e-12:
        return None
    return float(-intercept / slope)


def _bracket_root(alphas: np.ndarray, surpluses: np.ndarray) -> float | None:
    """Linear interpolation between the tightest sign-changing pair."""
    negative = surpluses < 0
    positive = surpluses >= 0
    if not negative.any() or not positive.any():
        return None
    # Tightest bracket: highest-α infeasible point below lowest-α feasible.
    neg_alpha = alphas[negative].max()
    feasible_above = alphas[positive][alphas[positive] > neg_alpha]
    if len(feasible_above) == 0:
        return None
    pos_alpha = feasible_above.min()
    r_neg = surpluses[alphas == neg_alpha].mean()
    r_pos = surpluses[alphas == pos_alpha].mean()
    if r_pos == r_neg:
        return float((neg_alpha + pos_alpha) / 2)
    t = -r_neg / (r_pos - r_neg)
    return float(neg_alpha + t * (pos_alpha - neg_alpha))


def guess_alpha(
    history: list[tuple[float, float]],
    grid_step: float,
    target_p: float | None = None,
) -> float:
    """Next α for one probabilistic item given its ``(α, r)`` history.

    ``history`` must be nonempty; the last entry is the current point.
    ``target_p`` is the constraint's probability threshold; when the
    incumbent is infeasible it floors the next α at the incumbent's
    achieved fraction ``p + r``: the greedy ``G_z`` selection keeps the
    incumbent feasible for any smaller α (its chosen scenarios are the
    ones the incumbent already satisfies), so smaller steps provably
    cannot change the solution.
    """
    if not history:
        raise ValueError("alpha search requires at least one (alpha, surplus) point")
    alphas = np.array([point[0] for point in history], dtype=float)
    surpluses = np.array([point[1] for point in history], dtype=float)
    current_alpha, current_r = history[-1]

    candidate = None
    if len(history) >= _ARCTAN_MIN_POINTS and len(np.unique(alphas)) >= _ARCTAN_MIN_POINTS:
        candidate = _fit_arctan_root(alphas, surpluses)
    if candidate is None:
        candidate = _bracket_root(alphas, surpluses)
    if candidate is None and len(history) >= 2:
        candidate = _fit_linear_root(alphas, surpluses)
    if candidate is None:
        if current_alpha == 0.0:
            # First move after the α = 0 relaxation: start at the least
            # conservative grid point and approach the feasibility
            # crossing from below — the first feasible α found this way
            # is minimally conservative (α-summaries are far more
            # conservative than α suggests; the paper observes α is
            # "usually very small, below 0.01").
            candidate = grid_step
        else:
            # One usable point: the surplus and α share probability
            # units, so step by the deficit.
            candidate = current_alpha - current_r

    if current_r < 0 and target_p is not None:
        achieved = target_p + current_r
        candidate = max(candidate, achieved + grid_step)

    snapped = snap_to_grid(candidate, grid_step)
    tried = {round(a / grid_step) for a in alphas}
    if round(snapped / grid_step) not in tried:
        return snapped
    # Already tried: move one grid step in the corrective direction.
    direction = 1.0 if current_r < 0 else -1.0
    stepped = snapped
    for _ in range(int(1.0 / grid_step) + 1):
        stepped = snap_to_grid(stepped + direction * grid_step, grid_step)
        if round(stepped / grid_step) not in tried:
            return stepped
        if stepped in (grid_step, 1.0):
            break
    return snapped  # fully explored: let cycle detection terminate the search
