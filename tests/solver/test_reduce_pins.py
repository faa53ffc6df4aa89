"""Regression pins for the solve path's mechanisms — counted, not timed.

Each pin runs a real workload query end to end and counts what reached
``scipy.optimize.milp``: the reduction's sub-MILPs (``reduce.milp``) and
the full-model solves (``highs.milp``) are patched separately, and every
``MILPBuilder.solve`` records which of them it caused — nothing at all
when the evaluation's solve memo already held the model.  Validations
are counted the same way: calls, and calls the validation memo served.
"""

from __future__ import annotations

import pytest

import repro.solver.highs as highs_module
import repro.solver.reduce as reduce_module
from exact.harness import check
from repro import SPQEngine
from repro.core.validator import Validator
from repro.solver.model import MILPBuilder
from repro.workloads import get_query

DATASET_SEED = 42


@pytest.fixture
def solves(monkeypatch):
    """One record per ``MILPBuilder.solve``: columns in, columns to milp."""
    records: list[dict] = []
    real_solve = MILPBuilder.solve

    def counting(real, kind):
        def call(*args, **kwargs):
            records[-1][kind].append(len(kwargs["c"]))
            return real(*args, **kwargs)
        return call

    def solve(self, *args, **kwargs):
        records.append({"cols": self.n_variables, "sub": [], "full": []})
        result = real_solve(self, *args, **kwargs)
        records[-1]["reduction"] = result.meta.get("reduction")
        records[-1]["memo"] = result.meta.get("memo", False)
        return result

    monkeypatch.setattr(reduce_module, "milp", counting(reduce_module.milp, "sub"))
    monkeypatch.setattr(highs_module, "milp", counting(highs_module.milp, "full"))
    monkeypatch.setattr(MILPBuilder, "solve", solve)
    return records


@pytest.fixture
def validations(monkeypatch):
    """One entry per ``Validator.validate``: was it served from the memo?"""
    served: list[bool] = []
    real_validate = Validator.validate

    def validate(self, *args, **kwargs):
        before = self.memo_hits
        report = real_validate(self, *args, **kwargs)
        served.append(self.memo_hits - before == len(report.items) > 0)
        return report

    monkeypatch.setattr(Validator, "validate", validate)
    return served


def run(workload: str, query: str, scale: int, seed: int = 11):
    spec = get_query(workload, query)
    relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
    engine = SPQEngine()
    engine.register(relation, model)
    return engine.execute(spec.spaql, method="summarysearch", seed=seed)


def test_galaxy_q0_is_an_lp_and_its_csa_solve_is_a_sliver(solves, validations):
    result = run("galaxy", "Q1", 1200)
    assert result.feasible
    q0, first_csa = solves[0], solves[1]
    # Q0: a 1200-column cardinality problem whose root LP is integral.
    assert q0["cols"] == 1200
    assert q0["reduction"]["verdict"] == "lp_integral"
    assert q0["sub"] == [] and q0["full"] == []
    # First CSA solve: HiGHS sees at most a tenth of the columns.
    assert first_csa["cols"] == 1201
    assert first_csa["reduction"]["verdict"] == "reduced"
    assert first_csa["full"] == []
    assert first_csa["sub"] and max(first_csa["sub"]) <= 0.10 * first_csa["cols"]
    assert first_csa["reduction"]["free"] <= 0.10 * first_csa["cols"]
    # The "without" side of the memos: two rounds, both models and both
    # packages distinct — nothing is served, and ``milp`` is called as
    # it was before the memos existed (counted at that commit).
    assert [(s["sub"], s["full"]) for s in solves] == [([], []), ([97], [])]
    assert not any(record["memo"] for record in solves)
    assert validations == [False, False]


def test_indicator_objective_models_take_the_unreduced_path(solves, validations):
    # tpch/Q1 maximizes a probability: the CSA objective sits on the
    # indicator columns only, and Q0's objective is empty.
    run("tpch", "Q1", 800)
    assert max(s["cols"] for s in solves) >= reduce_module.MIN_COLUMNS
    for record in solves:
        assert record["reduction"] is None
        assert record["sub"] == []
        assert record["full"] == [record["cols"]]
    # Also a "without" query: three solves, three validations, no repeats.
    assert [s["cols"] for s in solves] == [800, 802, 802]
    assert not any(record["memo"] for record in solves)
    assert validations == [False, False, False]


def test_small_models_take_the_unreduced_path(solves, validations, no_lane):
    # portfolio/Q3 at 90 stocks: 54 decision columns after predicates,
    # and the query CSA repeats itself on — every CSA-Solve restarts at
    # x(0) with alpha = 0, and neighbouring alphas keep the same scenarios.
    run("portfolio", "Q3", 90)
    assert min(s["cols"] for s in solves) == 54
    for record in solves:
        assert record["cols"] < reduce_module.MIN_COLUMNS
        assert record["reduction"] is None
        assert record["sub"] == []
        # A distinct model is handed to HiGHS whole; a repeat not at all.
        assert record["full"] == ([] if record["memo"] else [record["cols"]])
    # 69 CSA and Q0 solves are asked for: 54 distinct models, 15 repeats,
    # all served by the solve memo (a round is keyed before its α fit, so
    # the round memo replays none inside one query).
    repeats = sum(record["memo"] for record in solves)
    assert (len(solves), len(solves) - repeats) == (69, 54)
    assert (len(validations), len(validations) - sum(validations)) == (68, 22)


def test_small_models_answer_the_same_on_the_ladder_lane():
    """The answer the pins were taken on, on the ladder lane: the lane row
    of the exactness harness on portfolio/Q3 at 90 stocks."""
    check("lane", "portfolio-q3-90")
