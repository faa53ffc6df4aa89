"""α-summaries: Proposition 1, the Figure 3 example, greedy G_z and
convergence acceleration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.summaries import SummaryBuilder, make_partitions, _fold_matrix
from repro.errors import EvaluationError
from repro.silp.model import OP_GE, OP_LE


# --- partitioning -------------------------------------------------------------


def test_partitions_disjoint_and_cover():
    partitions = make_partitions(17, 4, seed=3)
    concatenated = np.concatenate(partitions)
    assert sorted(concatenated.tolist()) == list(range(17))
    sizes = [len(p) for p in partitions]
    assert max(sizes) - min(sizes) <= 1  # near-equal split


def test_partitions_deterministic():
    a = make_partitions(20, 3, seed=5)
    b = make_partitions(20, 3, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partitions_validate_inputs():
    with pytest.raises(EvaluationError):
        make_partitions(5, 6, seed=0)
    with pytest.raises(EvaluationError):
        make_partitions(5, 0, seed=0)


# --- Proposition 1 ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    n_scenarios=st.integers(1, 12),
    data=st.data(),
)
def test_proposition_1_min_summary(n_rows, n_scenarios, data):
    """Any x satisfying a min-summary of G(α) satisfies every scenario in
    G(α) w.r.t. an inner ≥ constraint (Proposition 1)."""
    matrix = np.array(
        [
            [data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n_scenarios)]
            for _ in range(n_rows)
        ]
    )
    size = data.draw(st.integers(1, n_scenarios))
    chosen = np.sort(
        data.draw(
            st.permutations(list(range(n_scenarios))).map(lambda p: p[:size])
        )
    )
    x = np.array([data.draw(st.integers(0, 3)) for _ in range(n_rows)])
    rhs = data.draw(st.floats(-10, 10, allow_nan=False))
    summary = _fold_matrix(matrix, [np.asarray(chosen)], OP_GE, None)[:, 0]
    if summary @ x >= rhs:
        for j in chosen:
            assert matrix[:, j] @ x >= rhs - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 5),
    n_scenarios=st.integers(1, 8),
    data=st.data(),
)
def test_proposition_1_max_summary(n_rows, n_scenarios, data):
    """Dual form: max-summaries are conservative for inner ≤ constraints."""
    matrix = np.array(
        [
            [data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n_scenarios)]
            for _ in range(n_rows)
        ]
    )
    chosen = np.arange(n_scenarios)
    x = np.array([data.draw(st.integers(0, 3)) for _ in range(n_rows)])
    rhs = data.draw(st.floats(-10, 10, allow_nan=False))
    summary = _fold_matrix(matrix, [chosen], OP_LE, None)[:, 0]
    if summary @ x <= rhs:
        for j in chosen:
            assert matrix[:, j] @ x <= rhs + 1e-9


def test_figure3_example():
    """The 0.66-summary of Figure 3: tuple-wise minimum of scenarios 1
    and 3 from Figure 2."""
    scenario_1 = np.array([0.1, 0.05, -0.2, 0.2, 0.1, -0.7])
    scenario_3 = np.array([0.01, 0.02, -0.1, -0.3, 0.2, 0.3])
    matrix = np.column_stack([scenario_1, scenario_3])
    summary = _fold_matrix(matrix, [np.array([0, 1])], OP_GE, None)[:, 0]
    expected = np.array([0.01, 0.02, -0.2, -0.3, 0.1, -0.7])
    assert np.allclose(summary, expected)


# --- builder over a real context -----------------------------------------------


def _item(ctx):
    return ctx.chance_items()[0]


def test_summary_shapes_and_counts(chance_context):
    builder = SummaryBuilder(chance_context, n_scenarios=12, n_summaries=3)
    summary_set = builder.build(_item(chance_context), alpha=0.5, prev_x=None)
    assert summary_set.values.shape == (5, 3)
    assert summary_set.partition_sizes.tolist() == [4, 4, 4]
    assert summary_set.selected_counts.tolist() == [2, 2, 2]
    weights = summary_set.guaranteed_fraction_weights(12)
    assert np.allclose(weights, [2 / 12] * 3)


def test_alpha_validation(chance_context):
    builder = SummaryBuilder(chance_context, 10, 1)
    with pytest.raises(EvaluationError):
        builder.build(_item(chance_context), alpha=0.0, prev_x=None)
    with pytest.raises(EvaluationError):
        builder.build(_item(chance_context), alpha=1.5, prev_x=None)


def test_alpha_one_summary_is_scenario_minimum(chance_context):
    """α = 1 with Z = 1 reduces to the tuple-wise min of ALL scenarios."""
    builder = SummaryBuilder(chance_context, 8, 1)
    item = _item(chance_context)
    summary_set = builder.build(item, alpha=1.0, prev_x=None)
    matrix = chance_context.optimization_matrix(item["expr"], 8)
    assert np.allclose(summary_set.values[:, 0], matrix.min(axis=1))


def test_summary_more_conservative_with_larger_alpha(chance_context):
    """For ≥ constraints summaries are tuple-wise nonincreasing in α
    (min over supersets)."""
    builder = SummaryBuilder(chance_context, 12, 1)
    item = _item(chance_context)
    x = np.array([1, 0, 0, 1, 0])
    small = builder.build(item, alpha=0.25, prev_x=x).values[:, 0]
    large = builder.build(item, alpha=1.0, prev_x=x).values[:, 0]
    assert np.all(large <= small + 1e-12)


def test_greedy_selection_prefers_high_scores(chance_context):
    builder = SummaryBuilder(chance_context, 10, 1)
    item = _item(chance_context)
    x = np.array([1, 1, 0, 0, 0])
    scores = builder.scenario_scores(item, x)
    chosen = builder.choose_selected(item, alpha=0.3, scores=scores)[0]
    threshold = np.sort(scores)[::-1][len(chosen) - 1]
    assert np.all(scores[chosen] >= threshold - 1e-12)


def test_zero_previous_solution_gives_zero_scores(chance_context):
    builder = SummaryBuilder(chance_context, 6, 1)
    scores = builder.scenario_scores(_item(chance_context), np.zeros(5, dtype=int))
    assert np.all(scores == 0.0)


def test_acceleration_keeps_incumbent_feasible(chance_context):
    """With acceleration, rows of the incumbent use the max-reduction, so
    the incumbent's summary score only improves (Section 5.5)."""
    builder = SummaryBuilder(chance_context, 12, 1)
    item = _item(chance_context)
    x = np.array([2, 0, 1, 0, 0])
    plain = builder.build(item, alpha=0.5, prev_x=x, accelerate=False)
    accelerated = builder.build(item, alpha=0.5, prev_x=x, accelerate=True)
    assert accelerated.values[:, 0] @ x >= plain.values[:, 0] @ x - 1e-12
    untouched = x == 0
    assert np.allclose(
        accelerated.values[untouched, 0], plain.values[untouched, 0]
    )

