"""Regression pins for the root-LP reduction's mechanism — counted, not timed.

Each pin runs a real workload query end to end and counts what reached
``scipy.optimize.milp``: the reduction's sub-MILPs (``reduce.milp``) and
the full-model solves (``highs.milp``) are patched separately, and every
``MILPBuilder.solve`` records which of them it caused.
"""

from __future__ import annotations

import pytest

import repro.solver.highs as highs_module
import repro.solver.reduce as reduce_module
from repro import SPQEngine
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
        return result

    monkeypatch.setattr(reduce_module, "milp", counting(reduce_module.milp, "sub"))
    monkeypatch.setattr(highs_module, "milp", counting(highs_module.milp, "full"))
    monkeypatch.setattr(MILPBuilder, "solve", solve)
    return records


def run(workload: str, query: str, scale: int, seed: int = 11):
    spec = get_query(workload, query)
    relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
    engine = SPQEngine()
    engine.register(relation, model)
    return engine.execute(spec.spaql, method="summarysearch", seed=seed)


def test_galaxy_q0_is_an_lp_and_its_csa_solve_is_a_sliver(solves):
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


def test_indicator_objective_models_take_the_unreduced_path(solves):
    # tpch/Q1 maximizes a probability: the CSA objective sits on the
    # indicator columns only, and Q0's objective is empty.
    run("tpch", "Q1", 800)
    assert len(solves) >= 2
    assert max(s["cols"] for s in solves) >= reduce_module.MIN_COLUMNS
    for record in solves:
        assert record["reduction"] is None
        assert record["sub"] == []
        assert record["full"] == [record["cols"]]


def test_small_models_take_the_unreduced_path(solves):
    # portfolio/Q3 at 90 stocks: 54 decision columns after predicates.
    run("portfolio", "Q3", 90)
    assert min(s["cols"] for s in solves) == 54
    for record in solves:
        assert record["cols"] < reduce_module.MIN_COLUMNS
        assert record["reduction"] is None
        assert record["sub"] == []
        assert record["full"] == [record["cols"]]
