"""α search: grid snapping, root finding, floors, plateau handling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeWarning, curve_fit

from repro.core.alpha import _fit_arctan_root, guess_alpha, snap_to_grid


def test_snap_to_grid_basics():
    assert snap_to_grid(0.0, 0.1) == pytest.approx(0.1)  # floor at one step
    assert snap_to_grid(0.26, 0.1) == pytest.approx(0.3)
    assert snap_to_grid(5.0, 0.1) == 1.0
    with pytest.raises(ValueError):
        snap_to_grid(0.5, 0.0)


def test_first_move_from_zero_is_least_conservative():
    # α = 0 infeasible: approach the crossing from below.
    assert guess_alpha([(0.0, -0.9)], 0.01) == pytest.approx(0.01)


def test_single_point_above_zero_steps_by_deficit():
    out = guess_alpha([(0.2, -0.1)], 0.01)
    assert out == pytest.approx(0.3)


def test_feasible_point_steps_down():
    out = guess_alpha([(0.5, 0.2)], 0.01)
    assert out < 0.5


def test_bracket_interpolation():
    history = [(0.1, -0.2), (0.5, 0.2)]
    out = guess_alpha(history, 0.01)
    # Linear interpolation puts the root at 0.3.
    assert out == pytest.approx(0.3, abs=0.02)


def test_target_floor_skips_wasted_steps():
    """With r < 0 the greedy G_z keeps the incumbent for any
    α ≤ achieved fraction, so the next α must exceed p + r."""
    history = [(0.0, -0.9), (0.01, -0.05)]
    out = guess_alpha(history, 0.01, target_p=0.9)
    assert out >= 0.85  # achieved = 0.9 - 0.05 = 0.85
    assert out <= 1.0


def test_floor_not_applied_when_feasible():
    history = [(0.9, 0.05)]
    out = guess_alpha(history, 0.01, target_p=0.9)
    assert out < 0.9


def test_already_tried_alpha_steps_in_corrective_direction():
    # Root estimate snaps to an already-tried point; must move one step
    # further in the direction indicated by the current surplus.
    history = [(0.1, -0.2), (0.2, -0.1)]
    out = guess_alpha(history, 0.1)
    assert out == pytest.approx(0.3)


def test_arctan_fit_recovers_root():
    root = 0.37
    alphas = np.array([0.05, 0.15, 0.25, 0.55, 0.75])
    surpluses = 0.2 * np.arctan(8.0 * (alphas - root))
    history = list(zip(alphas.tolist(), surpluses.tolist()))
    out = guess_alpha(history, 0.01)
    assert out == pytest.approx(root, abs=0.05)


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        guess_alpha([], 0.1)


def test_result_always_on_grid():
    for history in ([(0.0, -0.5)], [(0.3, 0.2), (0.1, -0.4)], [(1.0, 0.9)]):
        out = guess_alpha(history, 0.05)
        assert out == pytest.approx(round(out / 0.05) * 0.05)
        assert 0.05 - 1e-12 <= out <= 1.0


def test_plateau_of_equal_surpluses_progresses():
    """Flat negative history must still move forward (not oscillate)."""
    history = [(0.0, -0.9)] + [(0.01 * k, -0.056) for k in range(1, 5)]
    out = guess_alpha(history, 0.01, target_p=0.9)
    assert out > 0.05


# --- the arctangent fit is curve_fit's, called directly ----------------------------


def curve_fit_root(alphas, surpluses):
    """The fit as ``scipy.optimize.curve_fit`` runs it: the oracle."""
    try:
        def model(alpha, a, b, c, d):
            return a * np.arctan(b * (alpha - c)) + d

        spread = max(float(alphas.max() - alphas.min()), 1e-3)
        p0 = [
            max(float(surpluses.max() - surpluses.min()), 1e-3),
            2.0 / spread,
            float(alphas.mean()),
            float(surpluses.mean()),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            params, _ = curve_fit(model, alphas, surpluses, p0=p0, maxfev=2000)
        a, b, c, d = params
        if abs(a) < 1e-12 or abs(b) < 1e-12:
            return None
        ratio = -d / a
        if not -np.pi / 2 + 1e-9 < ratio < np.pi / 2 - 1e-9:
            return None
        return float(c + math.tan(ratio) / b)
    except Exception:
        return None


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.integers(1, 50), min_size=4, max_size=10, unique=True),
    shape=st.tuples(
        st.floats(0.01, 0.5), st.floats(0.5, 40.0), st.floats(0.0, 1.0),
        st.floats(-0.3, 0.3),
    ),
    noise=st.lists(
        st.floats(-0.05, 0.05) | st.sampled_from([0.0, float("nan")]),
        min_size=10, max_size=10,
    ),
)
def test_arctan_fit_is_bit_identical_to_curve_fit(steps, shape, noise):
    a, b, c, d = shape
    alphas = np.array(steps, dtype=float) / 50
    surpluses = a * np.arctan(b * (alphas - c)) + d + np.array(noise[: len(steps)])
    assert _fit_arctan_root(alphas, surpluses) == curve_fit_root(alphas, surpluses)
