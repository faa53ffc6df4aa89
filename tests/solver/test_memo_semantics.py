"""What the solve memo may and may not replay (``solver/highs.py``).

The memo holds the raw solver outcome under a digest of the model; the
time limit is not in the key and the warm-start hint only where it
steers the search.  These tests pin the consequences: a truncated
outcome is never kept, a terminal one is good for any later budget, and
the hint is re-applied to a replayed outcome exactly as to a fresh one.
``milp`` is counted (or stubbed) so "served" and "solved" are observed,
not inferred.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import repro.solver.highs as highs_module
import repro.solver.reduce as reduce_module
from repro.solver import STATUS_FEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT
from repro.solver.model import MILPBuilder

from test_reduce_deadline import limit_result
from test_reduce_exact import cardinality_model, feasible_hint


def knapsack(memo) -> MILPBuilder:
    """max 5a + 4b + 3c  s.t.  2a + 3b + c <= 5, binaries: optimum (1, 1, 0)."""
    builder = MILPBuilder()
    builder.solve_memo = memo
    idx = builder.add_variables("x", 3, lb=0.0, ub=1.0)
    builder.add_constraint(idx, [2.0, 3.0, 1.0], ub=5.0)
    builder.set_objective(idx, [5.0, 4.0, 3.0], "maximize")
    return builder


@pytest.fixture
def milp_calls(monkeypatch):
    """The ``time_limit`` of every full-model ``milp`` call, in order."""
    budgets: list = []
    real = highs_module.milp

    def call(*args, **kwargs):
        budgets.append(kwargs["options"].get("time_limit"))
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_module, "milp", call)
    return budgets


@pytest.mark.parametrize(
    "incumbent, status",
    [(np.array([1.0, 0.0, 1.0]), STATUS_FEASIBLE), (None, STATUS_TIME_LIMIT)],
)
def test_a_truncated_outcome_is_never_stored(monkeypatch, incumbent, status):
    memo: dict = {}
    real = highs_module.milp
    calls = []

    def truncated_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return limit_result(x=incumbent, mip_dual_bound=-9.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_module, "milp", truncated_once)
    first = knapsack(memo).solve(time_limit=1.0)
    assert first.status == status and memo == {}
    # The next identical solve really runs — and its answer is kept.
    second = knapsack(memo).solve(time_limit=1.0)
    assert len(calls) == 2 and "memo" not in second.meta
    assert second.status == STATUS_OPTIMAL and second.x.tolist() == [1.0, 1.0, 0.0]
    assert len(memo) == 1


def test_a_terminal_outcome_is_served_under_a_smaller_budget(milp_calls):
    memo: dict = {}
    first = knapsack(memo).solve(time_limit=30.0)
    later = knapsack(memo).solve(time_limit=0.01)
    unlimited = knapsack(memo).solve()
    assert milp_calls == [30.0]
    for served in (later, unlimited):
        assert served.meta["memo"] is True
        assert served.status == first.status == STATUS_OPTIMAL
        np.testing.assert_array_equal(served.x, first.x)
        assert served.objective == first.objective and served.gap == first.gap
        assert served.solve_time < 0.01
    # Served results do not share the array a caller might write into.
    later.x[:] = 7.0
    assert knapsack(memo).solve().x.tolist() == first.x.tolist()


def test_infeasible_is_terminal_too(milp_calls):
    memo: dict = {}
    for expected_calls in (1, 1):
        builder = knapsack(memo)
        builder.add_constraint([0, 1, 2], [1.0, 1.0, 1.0], lb=3.0)
        assert builder.solve(time_limit=5.0).status == "infeasible"
        assert len(milp_calls) == expected_calls


def test_a_better_hint_still_wins_over_a_replayed_incumbent(monkeypatch):
    """HiGHS calls a gap-terminated incumbent "optimal"; the hint that
    beats it must win on the replay exactly as it would on a re-solve."""
    memo: dict = {}
    calls = []

    def gap_terminated(*args, **kwargs):
        calls.append(1)
        return OptimizeResult(
            status=0, x=np.array([1.0, 0.0, 1.0]), mip_dual_bound=-9.0,
            mip_gap=0.125, message="stubbed gap termination",
        )

    monkeypatch.setattr(highs_module, "milp", gap_terminated)
    unhinted = knapsack(memo).solve(mip_gap=0.2)
    assert unhinted.x.tolist() == [1.0, 0.0, 1.0] and unhinted.objective == 8.0
    hinted = knapsack(memo)
    hinted.set_warm_start([1.0, 1.0, 0.0])
    replayed = hinted.solve(mip_gap=0.2)
    # An ineligible model: the hint is not in the key, so this is a hit ...
    assert calls == [1] and replayed.meta["memo"] is True
    # ... and _better_of still prefers the hint, with the gap recomputed.
    assert replayed.x.tolist() == [1.0, 1.0, 0.0] and replayed.objective == 9.0
    assert replayed.gap == pytest.approx(0.0)
    # A worse hint changes nothing.
    worse = knapsack(memo)
    worse.set_warm_start([0.0, 0.0, 1.0])
    assert worse.solve(mip_gap=0.2).x.tolist() == [1.0, 0.0, 1.0]
    assert calls == [1]


def test_on_an_eligible_model_the_hint_is_part_of_the_key():
    rng = np.random.default_rng(17)
    n = reduce_module.MIN_COLUMNS + 20
    template = cardinality_model(rng, n, "minimize")
    hints = [feasible_hint(template, rng) for _ in range(2)]
    assert not np.array_equal(*hints)
    memo: dict = {}

    def solve(hint):
        builder = template.clone()
        builder.solve_memo = memo
        builder.set_warm_start(hint)
        assert (builder.validated_warm_start() is None) == (hint is None)
        return builder.solve()

    first = solve(hints[0])
    assert first.meta["reduction"]["cols"] == n and "memo" not in first.meta
    # The first incumbent steers the reduction: another hint, or none,
    # is another search.
    assert "memo" not in solve(hints[1]).meta
    assert "memo" not in solve(None).meta
    assert len(memo) == 3
    # The same hint again is a hit, reduction record included.
    again = solve(hints[0])
    assert again.meta["memo"] is True
    assert again.meta["reduction"] == first.meta["reduction"]
    np.testing.assert_array_equal(again.x, first.x)
    assert len(memo) == 3


def test_clone_then_different_rows_is_a_miss(milp_calls):
    memo: dict = {}
    base = knapsack(memo)

    def solve_with_row(coefficients, ub):
        builder = base.clone()
        builder.add_constraint([0, 1, 2], coefficients, ub=ub)
        return builder.solve(time_limit=5.0)

    first = solve_with_row([1.0, 1.0, 1.0], 1.0)
    other = solve_with_row([1.0, 1.0, 0.0], 1.0)
    assert "memo" not in first.meta and "memo" not in other.meta
    assert first.x.tolist() == [1.0, 0.0, 0.0]
    assert other.x.tolist() == [1.0, 0.0, 1.0]
    back = solve_with_row([1.0, 1.0, 1.0], 1.0)
    assert back.meta["memo"] is True and back.x.tolist() == first.x.tolist()
    assert len(milp_calls) == 2 and len(memo) == 2


def test_a_standalone_builder_has_no_memo(milp_calls):
    for _ in range(2):
        assert "memo" not in knapsack(None).solve(time_limit=5.0).meta
    assert len(milp_calls) == 2
    assert knapsack(None).clone().solve_memo is None
