"""Exactness of the evaluation memo (solve + validation + round).

Rows of the exactness harness (``tests/exact/harness.py``): each test
names (mechanism, case) pairs of its tables, and the harness evaluates
the case as shipped and with the memo forgetting one key kind, on a
fresh store, and compares every record.  With a store the memo outlives
the evaluation, so a repeated query and a query after a delta are
checked the same way; the lane twins force the ladder lane on for both
runs on one store.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact.harness import (
    CONFIG,
    DELTA_CASE,
    KEY_TABLES,
    MEMO_CASES,
    MEMO_LANE_CASES,
    MEMO_ROWS,
    REPEAT_CASES,
    assert_one_miss,
    check,
    check_rows,
)
from repro import Catalog, Relation
from repro.core.context import EvaluationContext
from repro.core.validator import Validator
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.service import ScenarioStore
from repro.silp.compile import compile_query


def without_repeat(case: str) -> str:
    return case.removesuffix("-repeat")


@pytest.mark.parametrize("case", MEMO_CASES)
def test_memoised_evaluation_equals_recomputed_one(case):
    check_rows(MEMO_ROWS, case)


@pytest.mark.parametrize("case", MEMO_LANE_CASES)
def test_the_ladder_lane_answers_what_the_memoised_evaluation_does(case):
    check("lane", case)


@pytest.mark.parametrize("case", REPEAT_CASES, ids=without_repeat)
def test_a_repeated_query_replays_its_search_from_the_store(case):
    check_rows(MEMO_ROWS, case)


@pytest.mark.parametrize("case", REPEAT_CASES, ids=without_repeat)
def test_a_repeated_query_on_the_ladder_lane_answers_what_it_did_alone(case):
    """The lane forced on for the first run and its repeat, on one store."""
    check("lane", case)


def test_after_a_delta_a_shared_store_answers_what_a_fresh_one_does():
    check_rows(MEMO_ROWS, DELTA_CASE)


def test_after_a_delta_the_ladder_lane_answers_what_a_fresh_store_does():
    """The lane forced on before and after the delta, on one store."""
    check("lane", DELTA_CASE)


def test_in_memory_sketchrefine_of_a_deterministic_query_is_untouched():
    """``core/sketchrefine.py`` builds standalone models: no memo, no hits."""
    check_rows(MEMO_ROWS, "inventory-sketchrefine")


@pytest.mark.parametrize("change", list(KEY_TABLES["solve"][1]))
def test_a_model_that_differs_anywhere_is_solved_not_served(change):
    assert_one_miss("solve", change)


def test_store_less_contexts_share_nothing():
    problem = chance_problem()
    first = EvaluationContext(problem, CONFIG)
    second = EvaluationContext(problem, CONFIG)
    assert first.memo is not second.memo
    Validator(first).validate(np.array([1, 0, 1, 0, 0]))
    assert len(first.memo) == 2 and len(second.memo) == 0
    store = ScenarioStore()
    assert EvaluationContext(problem, CONFIG, store=store).memo is store.memo


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
