"""The CSA round memo: a round's outcome is keyed by the round's inputs.

A round (α-summaries, ``CSA_{Q,M,Z}``, solve) is replayed from
``EvaluationContext.memo`` when every input it is built from recurs, so
the key must change with each of them — and only terminal solver
outcomes may be kept, so a truncated round is never replayed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.csa as csa_module
from repro import Catalog, Relation, SPQConfig
from repro.core.approx import compute_objective_bounds
from repro.core.context import EvaluationContext
from repro.core.deterministic import solve_unconstrained
from repro.core.validator import Validator
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.service import ScenarioStore
from repro.silp.compile import compile_query
from repro.solver import STATUS_FEASIBLE, STATUS_TIME_LIMIT
from repro.solver.model import MILPBuilder
from repro.solver.result import MILPResult

CONFIG = SPQConfig(
    n_validation_scenarios=500,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=60,
    n_expectation_scenarios=200,
    n_probe_scenarios=16,
    epsilon=0.5,
    seed=3,
)

# Rows 0 and 1 are alike in every deterministic column, so the two WHERE
# clauses give identical base models over different optimization rows.
QUERY = (
    "SELECT PACKAGE(*) FROM items WHERE {where} SUCH THAT COUNT(*) <= 3 AND"
    " SUM(weight) <= {cap} AND SUM(Value) >= 9 WITH PROBABILITY >= 0.8"
    " MINIMIZE EXPECTED SUM(Value)"
)


def catalog() -> Catalog:
    relation = Relation(
        "items",
        {
            "price": [5.0, 5.0, 3.0, 6.0, 4.0, 7.0],
            "weight": [2.0, 2.0, 4.0, 3.0, 2.5, 1.0],
            "a": [1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
            "b": [0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        },
    )
    out = Catalog()
    out.register(
        relation, StochasticModel(relation, {"Value": GaussianNoiseVG("price", 2.0)})
    )
    return out


def context(store=None, where="a >= 1", cap=9, **config) -> EvaluationContext:
    problem = compile_query(QUERY.format(where=where, cap=cap), catalog())
    return EvaluationContext(problem, CONFIG.replace(**config), store=store)


def round_key(ctx, M=20, Z=2, alphas=(0.5,), accelerate=(False,), x=(1, 0, 1, 0, 0)):
    return csa_module._round_key(
        ctx, M, Z, list(alphas), list(accelerate), np.asarray(x, dtype=np.int64)
    )


CHANGES = {
    "M": (dict(), dict(M=40)),
    "Z": (dict(), dict(Z=4)),
    "seed": (dict(seed=4), dict()),
    "mip_gap": (dict(mip_gap=1e-3), dict()),
    "rhs": (dict(cap=10), dict()),
    "active_rows": (dict(where="b >= 1"), dict()),
    "x": (dict(), dict(x=(1, 0, 0, 1, 0))),
    "alpha": (dict(), dict(alphas=(0.6,))),
    "accelerate": (dict(), dict(accelerate=(True,))),
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_a_round_with_one_input_changed_is_a_miss(change):
    store = ScenarioStore()
    base = round_key(context(store))
    # The same inputs from a fresh context on the same store: a hit.
    assert round_key(context(store)) == base
    context_change, round_change = CHANGES[change]
    changed = round_key(context(store, **context_change), **round_change)
    assert changed != base
    # One model: both answers sit under its fingerprint, and a delta
    # that supersedes it takes both along.
    assert changed[:2] == base[:2] == (base[0], "round")


def test_a_private_memo_keys_rounds_without_hashing_the_relation():
    ctx = context()
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
    ctx = context()
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
    ctx = context()
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
