"""Exactness of the evaluation memo (solve + validation + α fit).

Every case is evaluated twice: once as shipped, and once with the memo
defeated *from the test side* — the context's memo (or the store's) is
replaced by a dict that never stores, so every lookup misses and every
solve, validation and fit really runs.  The two runs must agree on the
package, the objective, the ε certificate and, round by round, on every
``CSAIteration`` and ``IterationRecord`` (timings aside).  Cases are
labelled by whether CSA repeats itself on them, and the hits are
counted, so neither side of the sweep can go unexercised.  With a
store the memo outlives the evaluation, so a repeated query is checked
the same way, before and after a delta.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.alpha as alpha_module
import repro.core.csa as csa_module
import repro.core.summarysearch as summarysearch_module
from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.core.context import EvaluationContext
from repro.core.validator import Validator
from repro.datasets.portfolio import (
    PortfolioParams,
    build_portfolio,
    build_portfolio_store,
)
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.scale import refine_cache
from repro.scale.partition import PartitionIndex
from repro.service import ScenarioStore
from repro.silp.compile import compile_query
from repro.solver import STATUS_OPTIMAL
from repro.solver.model import MILPBuilder
from repro.workloads import get_query

DATASET_SEED = 42

CONFIG = SPQConfig(
    n_validation_scenarios=1_000,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=60,
    n_expectation_scenarios=400,
    n_probe_scenarios=16,
    epsilon=0.5,
    scale_pilot_scenarios=8,
)


class NeverStores(dict):
    """A memo that forgets: every lookup misses, so everything re-runs."""

    def __setitem__(self, key, value) -> None:
        pass


@pytest.fixture(autouse=True)
def _leave_no_process_caches_behind():
    yield
    PartitionIndex.clear_memory()
    refine_cache.clear()


def evaluate(
    register, query, method, config, with_store, defeated, directory=None,
    store=None, calls=None,
):
    """One evaluation; returns (comparable outcome, solve hits, validate hits).

    ``store`` evaluates on that ScenarioStore (``with_store`` makes a
    fresh one); ``calls``, if given, receives the number of solves,
    validated items and α fits asked for, and how many the memo served,
    plus the CSA rounds replayed.  A replayed round builds no model, so
    it counts as a solve asked for and served.
    """
    PartitionIndex.clear_memory()
    refine_cache.clear()
    rounds, solve_hits, validate_hits = [], [], []
    fits, fitted, validated, formulated = [], [], [], []
    with pytest.MonkeyPatch.context() as patch:
        if defeated:
            real_init = EvaluationContext.__init__

            def init(self, *args, **kwargs):
                real_init(self, *args, **kwargs)
                self.memo = NeverStores()

            patch.setattr(EvaluationContext, "__init__", init)

        real_memoised = alpha_module._memoised_arctan_root
        real_fit = alpha_module._fit_arctan_root

        def memoised(*args):
            fits.append(1)
            return real_memoised(*args)

        def fit(*args):
            fitted.append(1)
            return real_fit(*args)

        patch.setattr(alpha_module, "_memoised_arctan_root", memoised)
        patch.setattr(alpha_module, "_fit_arctan_root", fit)

        real_csa = summarysearch_module.csa_solve

        def csa_solve(*args, **kwargs):
            result = real_csa(*args, **kwargs)
            rounds.append(result.iterations)
            return result

        patch.setattr(summarysearch_module, "csa_solve", csa_solve)

        real_formulate = csa_module.formulate_csa

        def formulate_csa(*args, **kwargs):
            formulated.append(1)
            return real_formulate(*args, **kwargs)

        patch.setattr(csa_module, "formulate_csa", formulate_csa)

        real_solve = MILPBuilder.solve

        def solve(self, *args, **kwargs):
            result = real_solve(self, *args, **kwargs)
            solve_hits.append(bool(result.meta.get("memo")))
            return result

        patch.setattr(MILPBuilder, "solve", solve)

        real_validate = Validator.validate

        def validate(self, *args, **kwargs):
            before = self.memo_hits
            report = real_validate(self, *args, **kwargs)
            validate_hits.append(self.memo_hits - before)
            validated.append(len(report.items))
            return report

        patch.setattr(Validator, "validate", validate)

        if store is None and with_store:
            store = ScenarioStore()
        engine = SPQEngine(config=config, store=store)
        relation = register(engine, directory)
        try:
            result = engine.execute(query, method=method)
        finally:
            if hasattr(relation, "close"):
                relation.close()

    untimed = dict(solve_time=0.0, validate_time=0.0, summary_time=0.0)
    outcome = {
        "feasible": result.feasible,
        "multiplicities": (
            None if result.package is None
            else result.package.multiplicities.tolist()
        ),
        "objective": result.objective,
        "epsilon_upper": result.epsilon_upper,
        "message": result.message,
        "validation": (
            None if result.validation is None
            else dataclasses.asdict(result.validation)
        ),
        "rounds": [
            [dataclasses.replace(r, **untimed) for r in call] for call in rounds
        ],
        "stats": [
            dataclasses.replace(r, **untimed) for r in result.stats.iterations
        ],
    }
    # Every round that got as far as a solve has a solver status; the
    # ones that built no model were replayed.
    replays = sum(
        bool(r.solver_status) for call in rounds for r in call
    ) - len(formulated)
    if calls is not None:
        calls.update(
            solves=len(solve_hits) + replays,
            solve_hits=sum(solve_hits) + replays,
            validations=sum(validated), validate_hits=sum(validate_hits),
            fits=len(fits), fit_hits=len(fits) - len(fitted),
            replays=replays,
        )
    return outcome, sum(solve_hits) + replays, sum(validate_hits)


def workload(name, query, scale):
    spec = get_query(name, query)

    def register(engine, directory):
        relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
        engine.register(relation, model)
        return relation

    return register, spec.spaql


def portfolio_q1(n_stocks, on_disk):
    """portfolio/Q1 for the scale driver, in memory or as a ColumnStore."""
    params = PortfolioParams(n_stocks=n_stocks, seed=7)

    def register(engine, directory):
        if on_disk:
            relation, model = build_portfolio_store(params, directory, chunk_rows=32)
        else:
            relation, model = build_portfolio(params)
        engine.register(relation, model)
        return relation

    return register, get_query("portfolio", "Q1").spaql


# (id, dataset, method, config overrides, store, CSA repeats itself)
CASES = [
    ("portfolio-q3", workload("portfolio", "Q3", 60), "summarysearch",
     dict(seed=1), False, True),
    ("correlated-q2-store", workload("portfolio_correlated", "Q2", 30),
     "summarysearch", dict(seed=1), True, True),
    ("tpch-q3", workload("tpch", "Q3", 120), "summarysearch",
     dict(seed=1), False, True),
    ("tpch-q1-probability-objective", workload("tpch", "Q1", 120),
     "summarysearch", dict(seed=2), False, False),
    ("tpch-q8-infeasible-store", workload("tpch", "Q8", 100), "summarysearch",
     dict(seed=2), True, None),
    ("galaxy-q1", workload("galaxy", "Q1", 120), "summarysearch",
     dict(seed=1), False, False),
    ("naive-correlated-q2", workload("portfolio_correlated", "Q2", 30),
     "naive", dict(seed=2), False, None),
    ("naive-tpch-q3", workload("tpch", "Q3", 120), "naive",
     dict(seed=1), False, False),
    ("scale-driver-memory", portfolio_q1(30, on_disk=False), "sketchrefine",
     dict(seed=5, scale_n_partitions=3), False, True),
    ("scale-driver-disk-store", portfolio_q1(40, on_disk=True), "sketchrefine",
     dict(seed=5, scale_n_partitions=3), True, True),
]


#: Cases on which CSA repeats whole rounds (inputs and all), so the
#: shipped side replays some without building their summaries or models.
REPLAYS_ROUNDS = {"portfolio-q3", "correlated-q2-store"}


@pytest.mark.usefixtures("no_lane")
@pytest.mark.parametrize(
    "dataset, method, overrides, with_store, repeats",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_memoised_evaluation_equals_recomputed_one(
    dataset, method, overrides, with_store, repeats, tmp_path, request
):
    register, query = dataset
    config = CONFIG.replace(**overrides)
    calls: dict = {}
    shipped, solve_hits, validate_hits = evaluate(
        register, query, method, config, with_store, False, tmp_path / "shipped",
        calls=calls,
    )
    recomputed, no_solve_hits, no_validate_hits = evaluate(
        register, query, method, config, with_store, True, tmp_path / "recomputed"
    )
    assert (no_solve_hits, no_validate_hits) == (0, 0)
    assert shipped == recomputed
    if repeats is True:
        assert solve_hits > 0 and validate_hits > 0
    elif repeats is False:
        assert (solve_hits, validate_hits) == (0, 0)
    if request.node.callspec.id in REPLAYS_ROUNDS:
        assert calls["replays"] > 0


def answers(outcome: dict) -> dict:
    """An outcome without its per-call CSA rounds: what the query answered."""
    return {k: v for k, v in outcome.items() if k != "rounds"}


def assert_rounds_contained(lane_on: dict, lane_off: dict) -> None:
    """Every CSA-Solve of the lane-off run, identical, in the lane-on one.

    The lane-on run also holds the rungs the lane solved and the ladder
    discarded, so it is a superset (counted as a multiset).
    """
    remaining = list(lane_on["rounds"])
    for call in lane_off["rounds"]:
        remaining.remove(call)


#: The cases whose memo counts a lane rung on another thread would move.
LANE_TWINS = (
    "portfolio-q3", "correlated-q2-store", "tpch-q3", "scale-driver-memory",
    "scale-driver-disk-store",
)


@pytest.mark.parametrize(
    "dataset, method, overrides, with_store",
    [pytest.param(*case[1:5], id=case[0]) for case in CASES
     if case[0] in LANE_TWINS],
)
def test_the_ladder_lane_answers_what_the_memoised_evaluation_does(
    dataset, method, overrides, with_store, tmp_path, monkeypatch, forced_lane
):
    """Lane-on twin of the test above: same answers, same CSA rounds."""
    from repro.core import lane

    register, query = dataset
    config = CONFIG.replace(**overrides)
    monkeypatch.setattr(lane, "ENABLED", False)
    alone, _, _ = evaluate(
        register, query, method, config, with_store, False, tmp_path / "alone"
    )
    monkeypatch.setattr(lane, "ENABLED", True)
    laned, _, _ = evaluate(
        register, query, method, config, with_store, False, tmp_path / "laned"
    )
    assert answers(laned) == answers(alone)
    assert_rounds_contained(laned, alone)


# --- the store's memo: a repeated query replays its own search ---------------------


# (id, dataset, method, config overrides, every call is evaluated on the store)
REPEATED = [
    ("correlated-q2", workload("portfolio_correlated", "Q2", 30),
     "summarysearch", dict(seed=1), True),
    # The driver's sketch is a store-less evaluation of its own, so only
    # the partition refines replay from the store.
    ("scale-driver-disk", portfolio_q1(40, on_disk=True), "sketchrefine",
     dict(seed=5, scale_n_partitions=3), False),
]


@pytest.mark.usefixtures("no_lane")
@pytest.mark.parametrize(
    "dataset, method, overrides, all_on_store",
    [pytest.param(*case[1:], id=case[0]) for case in REPEATED],
)
def test_a_repeated_query_replays_its_search_from_the_store(
    dataset, method, overrides, all_on_store, tmp_path
):
    register, query = dataset
    config = CONFIG.replace(**overrides)
    store = ScenarioStore()
    calls = [{}, {}]
    first, _, _ = evaluate(
        register, query, method, config, True, False, tmp_path / "first",
        store=store, calls=calls[0],
    )
    second, _, _ = evaluate(
        register, query, method, config, True, False, tmp_path / "second",
        store=store, calls=calls[1],
    )
    defeated = ScenarioStore()
    defeated.memo = NeverStores()
    recomputed, solve_hits, validate_hits = evaluate(
        register, query, method, config, True, True, tmp_path / "recomputed",
        store=defeated,
    )
    assert (solve_hits, validate_hits) == (0, 0)
    assert first == second == recomputed
    # The repeat asks the same questions and is served what the first
    # run computed.
    before, repeat = calls
    for kind in ("solves", "validations", "fits"):
        assert repeat[kind] == before[kind]
    for kind in ("solve", "validate", "fit"):
        assert repeat[f"{kind}_hits"] > before[f"{kind}_hits"]
    if all_on_store:
        # Nothing of the search is re-run.
        assert repeat["solve_hits"] == repeat["solves"]
        assert repeat["validate_hits"] == repeat["validations"]
        assert repeat["fit_hits"] == repeat["fits"]


@pytest.mark.parametrize(
    "dataset, method, overrides",
    [pytest.param(*case[1:4], id=case[0]) for case in REPEATED],
)
def test_a_repeated_query_on_the_ladder_lane_answers_what_it_did_alone(
    dataset, method, overrides, tmp_path, monkeypatch, forced_lane
):
    """Lane-on twin of the test above: the first run and its repeat on a
    store answer what a lane-off run does."""
    from repro.core import lane

    register, query = dataset
    config = CONFIG.replace(**overrides)
    store = ScenarioStore()
    first, _, _ = evaluate(
        register, query, method, config, True, False, tmp_path / "first",
        store=store,
    )
    second, _, _ = evaluate(
        register, query, method, config, True, False, tmp_path / "second",
        store=store,
    )
    monkeypatch.setattr(lane, "ENABLED", False)
    alone, _, _ = evaluate(
        register, query, method, config, True, False, tmp_path / "alone"
    )
    assert answers(first) == answers(second) == answers(alone)
    assert_rounds_contained(first, alone)


def delta_case():
    """(before, after, query, config): portfolio/Q1 across one delta."""
    from repro.db.delta import RelationDelta

    params = PortfolioParams(n_stocks=40, seed=7)
    delta = RelationDelta(updates={3: {"price": 18.0}}, deletes=[17])
    query = get_query("portfolio", "Q1").spaql
    config = CONFIG.replace(seed=5)

    def before(engine, _):
        engine.register(*build_portfolio(params))

    def after(engine, _):
        relation, model = build_portfolio(params)
        post, _ = relation.apply_delta(delta)
        engine.register(
            post,
            StochasticModel(
                post,
                {a: model.vg(a).unbound_copy() for a in model.attribute_names},
            ),
        )

    return before, after, query, config


@pytest.mark.usefixtures("no_lane")
def test_after_a_delta_a_shared_store_answers_what_a_fresh_one_does():
    before, after, query, config = delta_case()
    store = ScenarioStore()
    evaluate(before, query, "summarysearch", config, True, False, store=store)
    shared = evaluate(after, query, "summarysearch", config, True, False, store=store)
    fresh = evaluate(after, query, "summarysearch", config, True, False)
    assert shared[0] == fresh[0]
    assert shared[0]["multiplicities"] is not None


def test_after_a_delta_the_ladder_lane_answers_what_a_fresh_store_does(
    forced_lane, monkeypatch
):
    """Lane-on twin of the test above: the same answers, and every CSA
    round of the lane-off run in the lane-on one."""
    from repro.core import lane

    before, after, query, config = delta_case()
    store = ScenarioStore()
    evaluate(before, query, "summarysearch", config, True, False, store=store)
    shared = evaluate(after, query, "summarysearch", config, True, False, store=store)
    monkeypatch.setattr(lane, "ENABLED", False)
    fresh = evaluate(after, query, "summarysearch", config, True, False)
    assert answers(shared[0]) == answers(fresh[0])
    assert_rounds_contained(shared[0], fresh[0])
    assert shared[0]["multiplicities"] is not None


def test_store_less_contexts_share_nothing():
    problem = chance_problem()
    first = EvaluationContext(problem, CONFIG)
    second = EvaluationContext(problem, CONFIG)
    assert first.memo is not second.memo
    Validator(first).validate(np.array([1, 0, 1, 0, 0]))
    assert len(first.memo) == 2 and len(second.memo) == 0
    store = ScenarioStore()
    assert EvaluationContext(problem, CONFIG, store=store).memo is store.memo


def test_in_memory_sketchrefine_of_a_deterministic_query_is_untouched():
    """``core/sketchrefine.py`` builds standalone models: no memo, no hits."""
    rng = np.random.default_rng(0)
    relation = Relation(
        "inventory",
        {
            "cost": np.round(rng.uniform(1.0, 20.0, 60), 2),
            "value": np.round(rng.uniform(0.5, 30.0, 60), 2),
        },
    )
    query = (
        "SELECT PACKAGE(*) FROM inventory SUCH THAT"
        " SUM(cost) <= 50 AND COUNT(*) <= 8 MAXIMIZE SUM(value)"
    )
    outcomes = [
        evaluate(
            lambda engine, _: engine.register(relation), query, "sketchrefine",
            CONFIG, False, defeated,
        )
        for defeated in (False, True)
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]["feasible"] and outcomes[0][1:] == (0, 0)


# --- validation memo: property -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def chance_problem():
    relation = Relation(
        "items",
        {
            "price": [5.0, 8.0, 3.0, 6.0, 4.0],
            "weight": [2.0, 1.0, 4.0, 3.0, 2.5],
        },
    )
    catalog = Catalog()
    catalog.register(
        relation, StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    )
    return compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 6 WITH PROBABILITY >= 0.8 AND"
        " SUM(Value) <= 30 WITH PROBABILITY >= 0.9"
        " MINIMIZE EXPECTED SUM(Value)",
        catalog,
    )


packages = st.lists(st.integers(0, 3), min_size=5, max_size=5)


@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(packages, min_size=1, max_size=4),
    order=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=12),
    seed=st.integers(0, 50),
)
def test_satisfied_count_is_what_a_fresh_validator_returns(pool, order, seed):
    config = CONFIG.replace(seed=seed, n_validation_scenarios=300)
    ctx = EvaluationContext(chance_problem(), config)
    validator, items = Validator(ctx), ctx.chance_items()
    for which, item_index in order:
        x = np.asarray(pool[which % len(pool)], dtype=np.int64)
        item = items[item_index]
        fresh = Validator(EvaluationContext(chance_problem(), config))
        assert validator.satisfied_count(x, item) == fresh.satisfied_count(x, item)
    distinct = {(tuple(pool[w % len(pool)]), i) for w, i in order}
    assert len(ctx.memo) == len(distinct)
    assert validator.memo_hits == len(order) - len(distinct)


# --- solve memo: everything HiGHS is given is in the key ---------------------------------


def keyed_model(c=(3.0, 2.0, 4.0), weight=2.0, row_lb=-np.inf, row_ub=4.0,
                var_lb=0.0, var_ub=3.0, integer=True, column=1):
    builder = MILPBuilder()
    idx = builder.add_variables("x", 3, lb=var_lb, ub=var_ub, integer=integer)
    builder.add_constraint(idx, [1.0, weight, 1.0], lb=row_lb, ub=row_ub)
    builder.add_constraint([0, column], [1.0, 1.0], ub=3.0)
    builder.set_objective(idx, list(c), "maximize")
    return builder


@pytest.mark.parametrize(
    "change",
    [
        dict(c=(3.0, 2.5, 4.0)),
        dict(weight=1.0),          # A.data
        dict(column=2),            # A.indices
        dict(row_lb=1.0),
        dict(row_ub=5.0),
        dict(var_lb=1.0),
        dict(var_ub=2.0),
        dict(integer=False),
        dict(mip_gap=0.5),
    ],
    ids=lambda change: next(iter(change)),
)
def test_a_model_that_differs_anywhere_is_solved_not_served(change):
    memo: dict = {}
    first = keyed_model()
    first.solve_memo = memo
    assert first.solve().status == STATUS_OPTIMAL and len(memo) == 1
    change = dict(change)
    mip_gap = change.pop("mip_gap", 1e-6)
    second = keyed_model(**change)
    second.solve_memo = memo
    result = second.solve(mip_gap=mip_gap)
    assert "memo" not in result.meta and len(memo) == 2
    np.testing.assert_array_equal(
        result.x, keyed_model(**change).solve(mip_gap=mip_gap).x
    )
    # ... while the unchanged model, from a new builder, is a hit.
    third = keyed_model()
    third.solve_memo = memo
    again = third.solve()
    assert again.meta["memo"] is True and len(memo) == 2
    np.testing.assert_array_equal(again.x, keyed_model().solve().x)
