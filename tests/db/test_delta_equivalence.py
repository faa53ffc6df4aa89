"""Property suite: delta application is representation- and path-independent.

The delta-equivalence guarantee behind every cache in the live-data
tier (docs/live_data.md): applying a delta must produce *the same
relation* — columns, dirty set, content fingerprint — whether it is
applied to an in-memory :class:`Relation`, to a disk-backed
ColumnStore, or "applied" by rebuilding the post-delta content from
scratch.  Because fingerprints are content-addressed, fingerprint
equality is what makes delta-then-solve hit the same caches (and hence
return bit-identical packages) as rebuild-then-solve; the solve-level
anchor is pinned by the golden tests at the bottom.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.db.delta import RelationDelta, lineage
from repro.workloads import get_query

_N = 24
_KEYS = list(range(_N))
_TAGS = ["alpha", "beta", "gamma"]
_dirs = itertools.count()


@pytest.fixture(autouse=True)
def _clean_lineage():
    lineage.clear()
    yield
    lineage.clear()


def make_relation() -> Relation:
    rng = np.random.default_rng(5)
    return Relation(
        "goods",
        {
            "id": np.arange(_N, dtype=np.int64),
            "price": np.round(rng.uniform(1, 40, _N), 2),
            "qty": rng.integers(0, 9, _N),
            "tag": np.array([_TAGS[i % 3] for i in range(_N)], dtype=object),
        },
        key="id",
    )


def _cell_changes(draw):
    changes = {}
    if draw(st.booleans()):
        changes["price"] = draw(
            st.floats(0.5, 99.0, allow_nan=False, allow_infinity=False)
        )
    if draw(st.booleans()):
        changes["qty"] = draw(st.integers(0, 20))
    if draw(st.booleans()):
        changes["tag"] = draw(st.sampled_from(_TAGS + ["delta-tag"]))
    return changes


@st.composite
def delta_mixes(draw) -> RelationDelta:
    """An arbitrary valid mix of inserts, updates, and deletes."""
    update_keys = draw(
        st.lists(st.sampled_from(_KEYS), unique=True, max_size=4)
    )
    updates = {}
    for key in update_keys:
        changes = _cell_changes(draw)
        if changes:
            updates[key] = changes
    deletes = draw(
        st.lists(
            st.sampled_from([k for k in _KEYS if k not in updates]),
            unique=True,
            max_size=3,
        )
    )
    inserts = [
        {
            "id": 1000 + i,
            "price": draw(
                st.floats(0.5, 99.0, allow_nan=False, allow_infinity=False)
            ),
            "qty": draw(st.integers(0, 20)),
            "tag": draw(st.sampled_from(_TAGS)),
        }
        for i in range(draw(st.integers(0, 2)))
    ]
    if not (inserts or updates or deletes):
        deletes = [draw(st.sampled_from(_KEYS))]
    return RelationDelta(inserts=inserts, updates=updates, deletes=deletes)


@given(delta=delta_mixes())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_delta_is_representation_independent(delta, tmp_path):
    from repro.service.store import relation_fingerprint

    relation = make_relation()
    mem_after, mem_app = relation.apply_delta(delta)

    store = relation.to_disk(tmp_path / f"s{next(_dirs)}", chunk_rows=8)
    try:
        _, disk_app = store.apply_delta(delta)
        assert store.n_rows == mem_after.n_rows
        for name in mem_after.column_names:
            np.testing.assert_array_equal(
                store.column(name), mem_after.column(name)
            )
        np.testing.assert_array_equal(disk_app.dirty, mem_app.dirty)
        assert disk_app.shifted_from == mem_app.shifted_from
        assert disk_app.digest == mem_app.digest
        assert relation_fingerprint(store) == relation_fingerprint(mem_after)
    finally:
        store.close()

    # Rebuild-from-scratch: a relation constructed directly from the
    # post-delta columns is content-identical, so it shares every
    # fingerprint-keyed cache entry with the delta'd one.
    rebuilt = Relation(
        "goods",
        {name: mem_after.column(name) for name in mem_after.column_names},
        key="id",
    )
    assert relation_fingerprint(rebuilt) == relation_fingerprint(mem_after)


@given(deltas=st.lists(delta_mixes(), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_delta_chains_are_path_independent(deltas):
    """A chain of deltas through the catalog equals direct application."""
    from repro.service.store import relation_fingerprint

    catalog = Catalog()
    catalog.register(make_relation())
    v0 = catalog.version
    direct = make_relation()
    applied = 0
    for delta in deltas:
        # Later deltas in a random chain may reference keys a previous
        # delta deleted; skip those — path equivalence only concerns
        # deltas that actually apply.
        try:
            catalog.apply_delta("goods", delta)
        except Exception:
            continue
        direct, _ = direct.apply_delta(delta)
        applied += 1
    assert catalog.version == v0 + applied
    chained = catalog.relation("goods")
    assert relation_fingerprint(chained) == relation_fingerprint(direct)
    for name in direct.column_names:
        np.testing.assert_array_equal(
            chained.column(name), direct.column(name)
        )


# --- solve-level golden pin (portfolio/Q1 after a fixed delta) ---------------

SPEC = get_query("portfolio", "Q1")
GOLDEN_OBJECTIVE = 3.5451605465634253
GOLDEN_PACKAGE = {5: 4, 41: 13}
_FIXED_DELTA = {
    "inserts": [
        {
            "stock": 60,
            "price": 4.5,
            "drift": 0.001,
            "volatility": 0.02,
            "sell_in_days": 1,
        }
    ],
    "updates": {3: {"price": 18.0}},
    "deletes": [117],
}


_GOLDEN_CONFIG = SPQConfig(
    seed=99,
    n_validation_scenarios=400,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=60,
    n_expectation_scenarios=200,
    epsilon=0.5,
    solver_time_limit=10.0,
    time_limit=60.0,
)


def test_golden_package_after_fixed_delta():
    relation, model = build_portfolio(PortfolioParams(n_stocks=60, seed=7))
    catalog = Catalog()
    catalog.register(relation, model)
    catalog.apply_delta("stock_investments", RelationDelta(**_FIXED_DELTA))
    engine = SPQEngine(catalog, _GOLDEN_CONFIG)
    result = engine.execute(SPEC.spaql)
    assert result.feasible
    assert result.package.key_multiplicities() == GOLDEN_PACKAGE
    assert result.objective == pytest.approx(GOLDEN_OBJECTIVE, rel=1e-12)


def test_golden_package_matches_rebuild_from_scratch():
    relation, model = build_portfolio(PortfolioParams(n_stocks=60, seed=7))
    post, _ = relation.apply_delta(RelationDelta(**_FIXED_DELTA))
    from repro.mcdb import StochasticModel

    rebuilt_model = StochasticModel(
        post,
        {
            attr: model.vg(attr).unbound_copy()
            for attr in model.attribute_names
        },
    )
    catalog = Catalog()
    catalog.register(post, rebuilt_model)
    engine = SPQEngine(catalog, _GOLDEN_CONFIG)
    result = engine.execute(SPEC.spaql)
    assert result.feasible
    assert result.package.key_multiplicities() == GOLDEN_PACKAGE
    assert result.objective == pytest.approx(GOLDEN_OBJECTIVE, rel=1e-12)
