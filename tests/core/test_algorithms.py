"""End-to-end algorithm tests: Naïve (Alg. 1), SummarySearch (Alg. 2),
and the deterministic baseline, cross-checked against brute force and
the exhaustive oracle."""

import itertools

import numpy as np
import pytest

from exact.harness import records
from exact.oracle import Oracle
from repro import Catalog, Relation
from repro.core.context import EvaluationContext
from repro.core.deterministic import deterministic_evaluate
from repro.core.engine import SPQEngine
from repro.core.naive import naive_evaluate
from repro.core.summarysearch import summary_search_evaluate
from repro.errors import EvaluationError
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.silp.compile import compile_query

CHANCE_QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 5 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""

INFEASIBLE_DETERMINISTIC = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 1 AND
    SUM(price) >= 100 AND
    SUM(Value) >= 0 WITH PROBABILITY >= 0.5
MINIMIZE EXPECTED SUM(Value)
"""

INFEASIBLE_CHANCE = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) BETWEEN 1 AND 2 AND
    SUM(Value) >= 100 WITH PROBABILITY >= 0.9
MINIMIZE EXPECTED SUM(Value)
"""


@pytest.fixture
def problem(items_catalog):
    return compile_query(CHANCE_QUERY, items_catalog)


@pytest.mark.parametrize("evaluate", [naive_evaluate, summary_search_evaluate])
def test_feasible_query_solved(problem, fast_config, evaluate):
    result = evaluate(problem, fast_config)
    assert result.feasible
    assert result.package is not None and not result.package.is_empty
    assert result.validation.items[0].satisfied_fraction >= 0.8
    assert result.stats.n_iterations >= 1


@pytest.mark.parametrize("evaluate", [naive_evaluate, summary_search_evaluate])
def test_solution_near_brute_force_optimum(problem, fast_config, evaluate):
    """Both algorithms' answers agree with the exhaustive oracle
    (``tests/exact/oracle.py``): not refuted on a fresh scenario stream,
    and within their ε certificate of the true optimum."""
    result = evaluate(problem, fast_config)
    assert result.feasible and result.epsilon_upper is not None
    Oracle(problem, fast_config.seed).check(
        records(result, []), fast_config.n_validation_scenarios
    )


def test_summarysearch_declares_deterministic_infeasibility(
    items_catalog, fast_config
):
    problem = compile_query(INFEASIBLE_DETERMINISTIC, items_catalog)
    result = summary_search_evaluate(problem, fast_config)
    assert not result.feasible
    assert result.package is None
    assert "no solution" in result.message


@pytest.mark.parametrize("evaluate", [naive_evaluate, summary_search_evaluate])
def test_chance_infeasible_query_fails_gracefully(
    items_catalog, fast_config, evaluate
):
    problem = compile_query(INFEASIBLE_CHANCE, items_catalog)
    config = fast_config.replace(
        n_initial_scenarios=10, scenario_increment=10, max_scenarios=30
    )
    result = evaluate(problem, config)
    assert not result.feasible
    # M must have been grown to the cap before giving up (Section 6.2.1).
    assert result.stats.final_n_scenarios == 30


#: Eight Gaussian tuples (σ = 3) on which naive validates its last
#: package and SummarySearch ends at M = 80 with an infeasible one.
EIGHT_TUPLE_QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 15 WITH PROBABILITY >= 0.9"
    " MINIMIZE EXPECTED SUM(Value)"
)


def eight_tuple_catalog():
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0, 7.0, 2.0, 9.0]})
    catalog = Catalog()
    catalog.register(
        relation, StochasticModel(relation, {"Value": GaussianNoiseVG("price", 3.0)})
    )
    return catalog


@pytest.mark.parametrize(
    "evaluate, feasible",
    [(naive_evaluate, True), (summary_search_evaluate, False)],
)
def test_an_infeasible_package_carries_no_epsilon_certificate(
    fast_config, evaluate, feasible
):
    """ε bounds the distance to the optimum of *feasible* packages only.

    On eight Gaussian tuples (σ = 3) naive validates only its last
    package, and SummarySearch ends at M = 80 with a package satisfying
    about a third of the validation scenarios.  No infeasible package
    gets an ε: not in a round's record, not in the result, not in
    ``summary()``.
    """
    problem = compile_query(EIGHT_TUPLE_QUERY, eight_tuple_catalog())
    result = evaluate(problem, fast_config)
    infeasible = [r for r in result.stats.iterations if not r.feasible]
    assert infeasible and all(r.epsilon_upper is None for r in infeasible)
    assert result.package is not None and result.feasible is feasible
    assert (result.epsilon_upper is not None) is feasible
    assert (result.validation.epsilon_upper is not None) is feasible
    assert ("1+eps" in result.summary()) is feasible


@pytest.mark.parametrize(
    "method, gap", [("naive", 0.0), ("summarysearch", None)]
)
def test_an_infeasible_untruncated_answer_has_no_anytime_gap(
    fast_config, method, gap
):
    """The engine's envelope certifies only a validated package: an
    untruncated but infeasible answer reports gap None, not 0.0."""
    engine = SPQEngine(catalog=eight_tuple_catalog(), config=fast_config)
    result = engine.execute(EIGHT_TUPLE_QUERY, method=method)
    assert result.package is not None and result.feasible is (gap is not None)
    assert result.anytime.deadline_met
    assert result.anytime.gap == gap


def test_naive_accumulates_scenarios_on_failure(items_catalog, fast_config):
    problem = compile_query(INFEASIBLE_CHANCE, items_catalog)
    config = fast_config.replace(
        n_initial_scenarios=5, scenario_increment=5, max_scenarios=20
    )
    result = naive_evaluate(problem, config)
    counts = [r.n_scenarios for r in result.stats.iterations]
    assert counts == [5, 10, 15, 20]


def test_summarysearch_reports_alphas_and_bounds(problem, fast_config):
    result = summary_search_evaluate(problem, fast_config)
    assert result.meta["final_Z"] >= 1
    assert "bounds" in result.meta
    record = result.stats.iterations[-1]
    assert record.n_summaries >= 1
    assert record.csa_iterations >= 1


def test_a_time_limited_q0_adds_no_relaxation_bound(
    items_catalog, fast_config, monkeypatch
):
    """A Q₀ stopped on its limit may return its all-zero warm-start hint:
    the search starts from it, but ε is certified against the Appendix-B
    bounds alone, which lie above the package (the hint's would be 0)."""
    import repro.core.summarysearch as summarysearch
    from repro.core.approx import compute_objective_bounds
    from repro.solver.result import STATUS_FEASIBLE, MILPResult

    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) <= 15 WITH PROBABILITY >= 0.8"
        " MAXIMIZE EXPECTED SUM(Value)",
        items_catalog,
    )
    hint = MILPResult(STATUS_FEASIBLE, x=np.zeros(problem.n_vars), objective=0.0)
    monkeypatch.setattr(summarysearch, "solve_unconstrained", lambda *_: hint)
    # ε = 1 certifies on the first round, keeping the test fast.
    result = summary_search_evaluate(problem, fast_config.replace(epsilon=1.0))
    bounds = result.meta["bounds"]
    assert "relaxation" not in bounds.sources
    assert result.meta["relaxation_objective"] is None
    untightened = compute_objective_bounds(EvaluationContext(problem, fast_config))
    assert (bounds.lower, bounds.upper) == (untightened.lower, untightened.upper)
    assert 0 < result.objective <= bounds.upper


@pytest.mark.parametrize("dual_bound", [5.5, None])
def test_a_time_limited_q0_contributes_its_dual_bound_or_nothing(
    fast_config, monkeypatch, dual_bound
):
    """Q₀ times out (patched on Q₀ only) with its hint as the incumbent.
    HiGHS's dual bound, when finite, is the relaxation bound — exactly
    it, never the hint's objective; without one, nothing else certifies
    this minimization (its Appendix-B lower bound is negative), so the
    answer carries no ε and is marked uncertified."""
    import repro.core.summarysearch as summarysearch
    from repro.solver.result import STATUS_FEASIBLE, MILPResult

    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    catalog = Catalog()
    catalog.register(
        relation, StochasticModel(relation, {"Value": GaussianNoiseVG("price", 3.0)})
    )
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) >= 2 AND"
        " COUNT(*) <= 3 AND SUM(Value) <= 20 WITH PROBABILITY >= 0.8"
        " MINIMIZE EXPECTED SUM(Value)",
        catalog,
    )
    real = summarysearch.solve_unconstrained
    meta = {} if dual_bound is None else {"best_bound": dual_bound}

    def timed_out(ctx, time_limit):
        x = real(ctx, time_limit).x
        return MILPResult(
            STATUS_FEASIBLE, x=x, objective=ctx.mean_objective_value(x),
            meta=dict(meta, stopped="limit"),
        )

    monkeypatch.setattr(summarysearch, "solve_unconstrained", timed_out)
    result = summary_search_evaluate(problem, fast_config)
    bounds = result.meta["bounds"]
    assert result.feasible
    assert result.meta["relaxation_objective"] == dual_bound
    if dual_bound is None:
        assert "relaxation" not in bounds.sources and bounds.lower < 0
        assert result.epsilon_upper is None and result.uncertified
    else:
        assert "relaxation" in bounds.sources and bounds.lower == dual_bound
        assert result.epsilon_upper == pytest.approx(
            result.objective / dual_bound - 1.0
        )
        assert not result.uncertified


def test_an_uncertified_answer_says_so_in_its_summary(items_catalog, fast_config):
    """SummarySearch accepts a feasible package it cannot certify (here
    the empty package, whose objective bounds start at 0) and flags it;
    ``summary()`` must show the flag, and a certified answer must not."""
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) <= 15 WITH PROBABILITY >= 0.8"
        " MINIMIZE EXPECTED SUM(Value)",
        items_catalog,
    )
    result = summary_search_evaluate(problem, fast_config)
    assert result.feasible and result.epsilon_upper is None
    assert result.meta["uncertified"] is True and result.uncertified
    assert "no approximation bound is certified" in result.summary()
    certified = summary_search_evaluate(
        compile_query(CHANCE_QUERY, items_catalog), fast_config
    )
    assert certified.epsilon_upper is not None and not certified.uncertified
    assert "certified" not in certified.summary()


def test_deterministic_baseline_matches_brute_force(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT SUM(price) <= 12"
        " MAXIMIZE SUM(price)",
        items_catalog,
    )
    result = deterministic_evaluate(problem, fast_config)
    assert result.feasible
    prices = items_catalog.relation("items").column("price")
    best = 0.0
    ub = EvaluationContext(problem, fast_config).variable_ub
    for x in itertools.product(*(range(int(u) + 1) for u in ub)):
        total = float(np.dot(prices, x))
        if total <= 12.0:
            best = max(best, total)
    assert result.objective == pytest.approx(best)


def test_deterministic_rejects_probabilistic_query(problem, fast_config):
    with pytest.raises(EvaluationError):
        deterministic_evaluate(problem, fast_config)


def test_repeat_limit_respected(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items REPEAT 0 SUCH THAT"
        " COUNT(*) <= 3 AND SUM(Value) >= 6 WITH PROBABILITY >= 0.5"
        " MINIMIZE EXPECTED SUM(Value)",
        items_catalog,
    )
    result = summary_search_evaluate(problem, fast_config)
    assert result.feasible
    assert np.all(result.package.multiplicities <= 1)


def test_seed_reproducibility(problem, fast_config):
    a = summary_search_evaluate(problem, fast_config)
    b = summary_search_evaluate(problem, fast_config)
    assert np.array_equal(a.package.multiplicities, b.package.multiplicities)
    assert a.objective == b.objective


def test_different_seeds_allowed(problem, fast_config):
    a = summary_search_evaluate(problem, fast_config)
    b = summary_search_evaluate(problem, fast_config.replace(seed=999))
    # Both feasible; packages may differ, but objectives stay comparable.
    assert a.feasible and b.feasible


def test_probability_objective_end_to_end(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) BETWEEN 1 AND 2 AND"
        " SUM(Value) <= 20 WITH PROBABILITY >= 0.7"
        " MAXIMIZE PROBABILITY OF SUM(Value) >= 9",
        items_catalog,
    )
    for evaluate in (naive_evaluate, summary_search_evaluate):
        result = evaluate(problem, fast_config)
        assert result.feasible
        assert 0.0 <= result.objective <= 1.0
        # items 1+3 reach E=14: probability of >= 9 should be high.
        assert result.objective >= 0.5
