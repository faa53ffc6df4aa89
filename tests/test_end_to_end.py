"""Cross-module integration tests: the paper's headline claims, asserted.

These run both algorithms end to end on scaled-down workload queries and
check the *shapes* the paper reports (Section 6.2), not absolute times:

* SummarySearch reaches validation feasibility on hard queries where
  Naïve (with the same scenario budget) does not;
* SummarySearch needs a much smaller M to become feasible;
* the one infeasible query is declared infeasible by both methods;
* results are deterministic given the configuration.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import SPQConfig
from repro.core.engine import SPQEngine
from repro.core.validator import Validator
from repro.core.context import EvaluationContext
from repro.db.catalog import Catalog
from repro.workloads import get_query


def _engine(workload, query, scale, config):
    spec = get_query(workload, query)
    relation, model = spec.build_dataset(scale, seed=21)
    catalog = Catalog()
    catalog.register(relation, model)
    return spec, SPQEngine(catalog=catalog, config=config)


@pytest.fixture(scope="module")
def config():
    return SPQConfig(
        n_validation_scenarios=2_000,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        n_expectation_scenarios=400,
        epsilon=0.6,
        solver_time_limit=15.0,
        time_limit=120.0,
        seed=21,
    )


@pytest.mark.smoke
def test_galaxy_hard_pareto_query_headline(config):
    """Galaxy Q5 (Pareto, counteracted): SummarySearch is feasible and
    strictly dominates Naïve — either Naïve stays infeasible within the
    same scenario budget, or it needs (much) more time — the paper's
    headline result at reduced scale."""
    spec, engine = _engine("galaxy", "Q5", 600, config)
    summary = engine.execute(spec.spaql, method="summarysearch")
    assert summary.feasible
    naive = engine.execute(spec.spaql, method="naive", solver_time_limit=8.0)
    assert (not naive.feasible) or (
        summary.stats.total_time < naive.stats.total_time
    )


def test_summarysearch_feasible_at_smaller_m(config):
    """Portfolio Q2 (p = 0.95): SummarySearch's final M is no larger than
    Naïve's, and typically much smaller (Section 6.2.2)."""
    spec, engine = _engine("portfolio", "Q2", 80, config)
    summary = engine.execute(spec.spaql, method="summarysearch")
    naive = engine.execute(spec.spaql, method="naive")
    assert summary.feasible
    if naive.feasible:
        assert (
            summary.stats.final_n_scenarios <= naive.stats.final_n_scenarios
        )


def test_tpch_q8_declared_infeasible_by_both(config):
    spec, engine = _engine("tpch", "Q8", 500, config)
    for method in ("summarysearch", "naive"):
        result = engine.execute(spec.spaql, method=method)
        assert not result.feasible
        assert result.stats.final_n_scenarios == config.max_scenarios


def test_tpch_q8_proved_infeasible_at_the_first_rung_by_both(config):
    """On the latency ledger's Q8 instance (600 rows, dataset seed 42) the
    member bound proves no package exists at the first rung.  At the 500
    rows above its best tuple meets the cap in about 0.9 of the probe
    scenarios, too close to 0.95 for 1024 of them, so both climb."""
    spec = get_query("tpch", "Q8")
    relation, model = spec.build_dataset(600, seed=42)
    engine = SPQEngine(config=config)
    engine.register(relation, model)
    for method in ("summarysearch", "naive"):
        result = engine.execute(spec.spaql, method=method)
        assert result.verdict == "proved_infeasible"
        assert result.stats.final_n_scenarios == config.n_initial_scenarios


def test_proving_tpch_q8_imports_no_scipy_stats():
    """The bound's Clopper–Pearson quantile comes from ``scipy.special``;
    ``scipy.stats`` would add a third of a second to a process's first
    query."""
    code = (
        "import sys\n"
        "from repro import SPQEngine\n"
        "from repro.workloads import get_query\n"
        "spec = get_query('tpch', 'Q8')\n"
        "engine = SPQEngine()\n"
        "engine.register(*spec.build_dataset(600, seed=42))\n"
        "print(engine.execute(spec.spaql, seed=11).verdict)\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == ["proved_infeasible", "False"]


def test_feasible_result_is_independently_verifiable(config):
    """A feasible SummarySearch package re-validates with an independent
    Validator instance (same stream, fresh state)."""
    spec, engine = _engine("galaxy", "Q1", 400, config)
    result = engine.execute(spec.spaql, method="summarysearch")
    assert result.feasible
    problem = engine.compile(spec.spaql)
    ctx = EvaluationContext(problem, config)
    report = Validator(ctx).validate(result.package.multiplicities)
    assert report.feasible
    assert report.items[0].satisfied_fraction == pytest.approx(
        result.validation.items[0].satisfied_fraction
    )


def test_count_constraints_hold_exactly(config):
    spec, engine = _engine("galaxy", "Q3", 400, config)
    result = engine.execute(spec.spaql, method="summarysearch")
    assert result.feasible
    assert 5 <= result.package.total_count <= 10


def test_budget_constraint_holds_exactly(config):
    spec, engine = _engine("portfolio", "Q1", 80, config)
    result = engine.execute(spec.spaql, method="summarysearch")
    assert result.feasible
    assert result.package.deterministic_total("price") <= 1000 + 1e-6


def test_full_pipeline_deterministic(config):
    spec, engine = _engine("tpch", "Q1", 400, config)
    a = engine.execute(spec.spaql, method="summarysearch")
    b = engine.execute(spec.spaql, method="summarysearch")
    assert np.array_equal(a.package.multiplicities, b.package.multiplicities)
    assert a.objective == b.objective


def test_probability_objective_claim_vs_validation(config):
    """TPC-H: the CSA's conservative claimed probability never exceeds
    the validated probability by more than Monte Carlo noise."""
    spec, engine = _engine("tpch", "Q3", 500, config)
    result = engine.execute(spec.spaql, method="summarysearch")
    assert result.feasible
    claimed = result.validation.claimed_objective
    if claimed is not None:
        assert claimed <= result.objective + 0.1

