"""The CSA round memo: a round's outcome is keyed by the round's inputs.

A round (α-summaries, ``CSA_{Q,M,Z}``, solve) is replayed from
``EvaluationContext.memo`` when every input it is built from recurs, so
the key must change with each of them (the round table of the exactness
harness, ``tests/exact/harness.py``) — and only terminal solver outcomes
may be kept, so a truncated round is never replayed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.csa as csa_module
from exact.harness import KEY_TABLES, assert_one_miss, keyed_context, round_key
from repro.core.approx import compute_objective_bounds
from repro.core.deterministic import solve_unconstrained
from repro.core.validator import Validator
from repro.solver import STATUS_FEASIBLE, STATUS_TIME_LIMIT
from repro.solver.model import MILPBuilder
from repro.solver.result import MILPResult


@pytest.mark.parametrize("change", list(KEY_TABLES["round"][1]))
def test_a_round_with_one_input_changed_is_a_miss(change):
    assert_one_miss("round", change)


def test_a_private_memo_keys_rounds_without_hashing_the_relation():
    ctx = keyed_context()
    assert ctx.round_head() == ("round",)
    assert round_key(ctx)[0] == "round"


def chance_search(ctx):
    """The arguments summarysearch hands CSA-Solve for (M, Z) = (20, 2)."""
    validator = Validator(ctx)
    q0 = solve_unconstrained(ctx, 10.0)
    x0 = np.round(q0.x[: ctx.problem.n_vars]).astype(np.int64)
    bounds = compute_objective_bounds(ctx)
    # ε = 0 never certifies, so the search runs every round it can.
    return (validator, bounds, x0, 20, 2, 0.0)


@pytest.fixture
def formulated(monkeypatch):
    """Counts the rounds that built a model (the others were replayed)."""
    calls: list[int] = []
    real = csa_module.formulate_csa

    def formulate_csa(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csa_module, "formulate_csa", formulate_csa)
    return calls


def round_answers(ctx) -> list:
    return [k for k in ctx.memo if isinstance(k, tuple) and k[0] == "round"]


def test_a_repeated_search_replays_every_round(formulated):
    ctx = keyed_context()
    args = chance_search(ctx)
    first = csa_module.csa_solve(ctx, *args)
    built = len(formulated)
    assert built > 0 and len(round_answers(ctx)) > 0
    again = csa_module.csa_solve(ctx, *args)
    assert len(formulated) == built
    assert [r.solver_status for r in again.iterations] == [
        r.solver_status for r in first.iterations
    ]
    np.testing.assert_array_equal(again.x, first.x)


@pytest.mark.parametrize("status", [STATUS_FEASIBLE, STATUS_TIME_LIMIT])
def test_a_truncated_round_is_never_kept(status, formulated, monkeypatch):
    ctx = keyed_context()
    args = chance_search(ctx)
    real_solve = MILPBuilder.solve

    def truncated(self, *a, **kw):
        result = real_solve(self, *a, **kw)
        if status == STATUS_TIME_LIMIT:
            return MILPResult(status=STATUS_TIME_LIMIT)
        result.status = STATUS_FEASIBLE
        return result

    monkeypatch.setattr(MILPBuilder, "solve", truncated)
    first = csa_module.csa_solve(ctx, *args)
    built = len(formulated)
    assert built > 0 and round_answers(ctx) == []
    assert {r.solver_status for r in first.iterations} - {""} == {status}
    # The identical search solves every round again.
    csa_module.csa_solve(ctx, *args)
    assert len(formulated) == 2 * built and round_answers(ctx) == []
