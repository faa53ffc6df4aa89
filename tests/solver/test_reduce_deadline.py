"""Anytime behaviour of the reduced solve path (docs/qos.md gap contract).

When the time limit truncates the MILP that runs *behind* the root-LP
reduction, the incumbent must be feasible for the full model, the
reported best bound must stay on the safe side of the true optimum —
``min(reduced dual bound, z_L + smallest fixed reduced cost)`` — and
the time the root LP took must come out of HiGHS's budget.  ``milp`` is
wrapped so the truncation happens deterministically.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

import repro.solver.highs as highs_module
import repro.solver.reduce as reduce_module
from repro.solver import STATUS_FEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT
from repro.solver.highs import solve_with_highs

from test_reduce_exact import (
    FAMILIES,
    feasible_hint,
    minimized,
    size_floor,
    solve_unreduced,
)


def limit_result(x=None, mip_dual_bound=None) -> OptimizeResult:
    return OptimizeResult(
        status=highs_module._SCIPY_LIMIT, x=x, mip_dual_bound=mip_dual_bound,
        mip_gap=None, message="stubbed limit",
    )


LP_SECONDS = 0.05


def slow_root_lp(monkeypatch) -> None:
    """Make the root LP take at least ``LP_SECONDS`` of wall time."""
    real = reduce_module.linprog

    def slow_linprog(*args, **kwargs):
        time.sleep(LP_SECONDS)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduce_module, "linprog", slow_linprog)


def watch_budgets(monkeypatch, module, budgets: list) -> None:
    """Record the ``time_limit`` every ``module.milp`` call is given."""
    real = module.milp

    def call(*args, **kwargs):
        budgets.append(kwargs["options"]["time_limit"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "milp", call)


def truncate_after_solving(monkeypatch, keep_incumbent: bool):
    """Make the sub-MILP report "limit" with its real incumbent and bound."""
    real = reduce_module.milp

    def truncated(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.status != 0:
            return res
        return limit_result(
            x=res.x if keep_incumbent else None,
            mip_dual_bound=res.mip_dual_bound,
        )

    monkeypatch.setattr(reduce_module, "milp", truncated)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(FAMILIES),
    sense=st.sampled_from(["minimize", "maximize"]),
    with_hint=st.booleans(),
    keep_incumbent=st.booleans(),
)
def test_truncated_reduced_solve_is_sound(
    seed, family, sense, with_hint, keep_incumbent
):
    rng = np.random.default_rng(seed)
    builder = family(rng, int(rng.integers(12, 27)), sense)
    reference = solve_unreduced(builder)
    if reference.status != STATUS_OPTIMAL:
        return
    if with_hint:
        builder.set_warm_start(feasible_hint(builder, rng))
    with pytest.MonkeyPatch.context() as monkeypatch, size_floor(0):
        truncate_after_solving(monkeypatch, keep_incumbent)
        result = solve_with_highs(builder, time_limit=30.0)
    if result.meta["reduction"]["verdict"] != "reduced":
        return  # LP-integral, or fell back to the (unwrapped) full solve
    optimum = minimized(builder, reference.objective)
    slack = 1e-6 * max(1.0, abs(optimum))
    if result.x is None:
        assert result.status == STATUS_TIME_LIMIT
    else:
        assert result.status == STATUS_FEASIBLE
        assert builder.check_feasible(result.x)
        value = minimized(builder, result.objective)
        assert value >= optimum - slack
        # The reported gap really covers the distance to the optimum.
        assert value - optimum <= result.gap * max(1.0, abs(value)) + slack
    assert result.meta["stopped"] == "limit"
    assert minimized(builder, result.meta["best_bound"]) <= optimum + slack


def test_bound_accounts_for_the_columns_the_probe_left_out(monkeypatch):
    """A probe that stops early cannot claim its own bound for the full
    model: a better solution may move a column the probe had fixed."""
    rng = np.random.default_rng(5)
    real = reduce_module.milp
    for _ in range(200):
        builder = FAMILIES[1](rng, 24, "minimize")
        reference = solve_unreduced(builder)
        if reference.status != STATUS_OPTIMAL:
            continue
        probe_bounds = []

        def stop_after_probe(*args, **kwargs):
            res = real(*args, **kwargs)
            probe_bounds.append(res.mip_dual_bound)
            return limit_result(mip_dual_bound=res.mip_dual_bound)

        monkeypatch.setattr(reduce_module, "milp", stop_after_probe)
        with size_floor(0):
            result = solve_with_highs(builder, time_limit=30.0)
        if not probe_bounds or probe_bounds[0] <= reference.objective + 1e-6:
            continue  # the probe set already held the optimum
        assert result.status == STATUS_TIME_LIMIT
        assert result.meta["best_bound"] <= reference.objective + 1e-6
        return
    pytest.fail("no instance whose optimum lies outside the probe set")


def test_root_lp_time_comes_out_of_the_milp_budget(monkeypatch):
    rng = np.random.default_rng(11)
    builder = FAMILIES[1](rng, 24, "maximize")
    budgets = []
    slow_root_lp(monkeypatch)
    watch_budgets(monkeypatch, reduce_module, budgets)
    watch_budgets(monkeypatch, highs_module, budgets)
    with size_floor(0):
        result = solve_with_highs(builder, time_limit=1.0)
    assert result.meta["reduction"]["lp_s"] >= LP_SECONDS
    assert budgets, "no MILP ran behind the root LP"
    assert all(budget <= 1.0 - LP_SECONDS for budget in budgets)
    # Later MILPs get what earlier ones left.
    assert budgets == sorted(budgets, reverse=True)


def test_fallback_to_the_full_model_gets_the_remaining_budget(monkeypatch):
    """More than half the columns free -> full MILP, minus the LP's time."""
    rng = np.random.default_rng(11)
    builder = FAMILIES[1](rng, 24, "maximize")  # fractional root LP
    budgets = []
    slow_root_lp(monkeypatch)
    watch_budgets(monkeypatch, highs_module, budgets)
    # A probe of every column leaves more than half of them free.
    with size_floor(0, probe_min=10**6):
        result = solve_with_highs(builder, time_limit=1.0)
    assert result.meta["reduction"]["verdict"] == "full"
    assert len(budgets) == 1 and budgets[0] <= 1.0 - LP_SECONDS


def test_a_model_under_the_size_floor_keeps_its_whole_budget(monkeypatch):
    """Ineligible models are solved exactly as before the reduction
    existed: no root LP, and ``milp`` gets the caller's ``time_limit``
    itself, not a clock-dependent value just under it."""
    rng = np.random.default_rng(11)
    builder = FAMILIES[1](rng, 24, "maximize")
    budgets = []
    monkeypatch.setattr(reduce_module, "linprog", None)  # never called
    watch_budgets(monkeypatch, highs_module, budgets)
    result = solve_with_highs(builder, time_limit=1.0)
    assert "reduction" not in result.meta
    assert budgets == [1.0]
