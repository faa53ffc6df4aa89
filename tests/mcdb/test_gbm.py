"""Geometric Brownian motion VG: correlation, means, the array sampler."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Catalog, SPQConfig
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.db.relation import Relation
from repro.errors import VGFunctionError
from repro.mcdb.gbm import GeometricBrownianMotionVG
from repro.mcdb.vg import VGFunction
from repro.scale.driver import scale_sketch_refine_evaluate
from repro.scale.partition import PartitionIndex
from repro.scale.refinecache import refine_cache
from repro.silp.compile import compile_query
from repro.utils.rngkeys import make_generator
from repro.workloads import get_query


def _relation(horizons=(1.0, 7.0), n_stocks=3, vol=0.02, drift=0.001):
    n_h = len(horizons)
    return Relation(
        "trades",
        {
            "stock": np.repeat([f"S{i}" for i in range(n_stocks)], n_h),
            "price": np.repeat(np.array([100.0, 150.0, 80.0])[:n_stocks], n_h),
            "drift": np.full(n_stocks * n_h, drift),
            "volatility": np.full(n_stocks * n_h, vol),
            "sell_in_days": np.tile(np.asarray(horizons, dtype=float), n_stocks),
        },
    )


def _bound(relation):
    return GeometricBrownianMotionVG(group_column="stock").bind(relation)


def test_blocks_group_by_stock():
    vg = _bound(_relation())
    assert vg.n_blocks == 3
    assert vg.blocks[0].tolist() == [0, 1]


def test_closed_form_mean():
    relation = _relation()
    vg = _bound(relation)
    price = relation.column("price")
    drift = relation.column("drift")
    horizon = relation.column("sell_in_days")
    expected = price * (np.exp(drift * horizon) - 1.0)
    assert np.allclose(vg.mean(), expected)


def test_mean_matches_monte_carlo():
    vg = _bound(_relation(vol=0.03))
    rng = make_generator(0, 0)
    samples = np.stack([vg.sample_all(rng) for _ in range(20_000)])
    assert np.allclose(samples.mean(axis=0), vg.mean(), atol=0.25)


def test_gain_bounded_below_by_negative_price():
    relation = _relation(vol=0.5)  # extreme volatility stresses the bound
    vg = _bound(relation)
    lo, hi = vg.support()
    assert np.allclose(lo, -relation.column("price"))
    rng = make_generator(1, 0)
    samples = np.stack([vg.sample_all(rng) for _ in range(500)])
    assert np.all(samples > lo[None, :])


def test_same_stock_horizons_share_path():
    """1-day and 7-day gains of one stock use one Brownian path: their
    correlation must be strongly positive, and (same-sign) co-movement
    must hold far more often than for independent draws."""
    vg = _bound(_relation(vol=0.05, drift=0.0))
    rng = make_generator(2, 0)
    samples = np.stack([vg.sample_all(rng) for _ in range(4000)])
    same_stock = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
    cross_stock = np.corrcoef(samples[:, 0], samples[:, 2])[0, 1]
    assert same_stock > 0.3  # W(1) is a component of W(7)
    assert abs(cross_stock) < 0.1


def test_uniform_grid_sampler_matches_block_distribution():
    relation = _relation()
    vg = _bound(relation)
    # Means from the scenario-wise sampler agree with the per-block path.
    rng_a = make_generator(3, 0)
    fast = np.stack([vg.sample_all(rng_a) for _ in range(6000)])
    block = np.concatenate(
        [vg.sample_block(b, make_generator(4, 0, b), 6000).mean(axis=1)
         for b in range(vg.n_blocks)]
    )
    assert np.allclose(fast.mean(axis=0), block, atol=0.3)


def test_non_uniform_grid_samples_every_row():
    relation = Relation(
        "trades",
        {
            "stock": ["A", "A", "B"],
            "price": [100.0, 100.0, 90.0],
            "drift": [0.001, 0.001, 0.001],
            "volatility": [0.02, 0.02, 0.02],
            "sell_in_days": [1.0, 3.0, 2.0],
        },
    )
    vg = _bound(relation)
    out = vg.sample_all(make_generator(0, 0))
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))


# --- the array sampler is the block loop's exact stream ----------------------

_HORIZONS = (0.25, 1.0, 2.0, 3.5, 7.0, 30.0)


@st.composite
def _stock_relations(draw):
    """Stocks with arbitrary horizon sets (repeats allowed), rows in any
    order, then an arbitrary ``take`` subset (any order, may split a
    stock's horizons apart) as a SketchRefine partition would bind."""
    columns = {k: [] for k in ("stock", "price", "drift", "volatility",
                               "sell_in_days")}
    for s in range(draw(st.integers(1, 7))):
        price = draw(st.floats(1.0, 500.0))
        drift = draw(st.floats(-0.01, 0.01))
        vol = draw(st.floats(0.0, 0.4))
        for h in draw(st.lists(st.sampled_from(_HORIZONS), min_size=1,
                               max_size=5)):
            columns["stock"].append(f"S{s}")
            columns["price"].append(price)
            columns["drift"].append(drift)
            columns["volatility"].append(vol)
            columns["sell_in_days"].append(h)
    n = len(columns["stock"])
    order = draw(st.permutations(range(n)))
    relation = Relation(
        "trades", {k: np.asarray(v)[list(order)] for k, v in columns.items()}
    )
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return relation.take(np.asarray(subset))


@settings(max_examples=150, deadline=None)
@given(relation=_stock_relations(), seed=st.integers(0, 2**31 - 1))
def test_sample_all_is_the_block_loop_stream(relation, seed):
    vg = _bound(relation)
    rng_array, rng_loop = make_generator(seed, 0), make_generator(seed, 0)
    for _ in range(3):  # consecutive scenarios continue the same stream
        fast = vg.sample_all(rng_array)
        loop = VGFunction.sample_all(vg, rng_loop)
        assert fast.tobytes() == loop.tobytes()


def _n_grids(vg):
    """How many distinct horizon grids the bound VG's stocks use."""
    return len({tuple(np.unique(vg._horizon[rows])) for rows in vg.blocks})


def _portfolio_partition(n_rows=250, seed=11):
    """A mixed-horizon partition of the 2 000-stock portfolio relation:
    a random row subset, so most stocks keep only one of their horizons."""
    relation, _ = build_portfolio(PortfolioParams(n_stocks=2000, seed=42))
    rows = np.random.default_rng(seed).choice(
        relation.n_rows, n_rows, replace=False
    )
    return relation.take(np.sort(rows))


def test_mixed_horizon_partition_never_loops_blocks(monkeypatch):
    vg = _bound(_portfolio_partition())
    assert _n_grids(vg) > 1
    calls = []
    real = GeometricBrownianMotionVG._sample_block

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GeometricBrownianMotionVG, "_sample_block", counting)
    rng = make_generator(0, 0)
    for _ in range(5):
        vg.sample_all(rng)
    assert calls == []
    VGFunction.sample_all(vg, rng)  # the counter does see the block loop
    assert len(calls) == vg.n_blocks


def _sketchrefine_outcome():
    PartitionIndex.clear_memory()
    refine_cache.clear()
    spec = get_query("portfolio", "Q1")
    relation, model = build_portfolio(PortfolioParams(n_stocks=40, seed=7))
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        seed=1234, n_validation_scenarios=800, n_initial_scenarios=20,
        scenario_increment=20, max_scenarios=40, n_expectation_scenarios=400,
        n_probe_scenarios=16, epsilon=0.5, solver_time_limit=15.0,
        time_limit=120.0, scale_n_partitions=5, scale_pilot_scenarios=8,
    )
    try:
        result = scale_sketch_refine_evaluate(
            compile_query(spec.spaql, catalog), config
        )
    finally:
        PartitionIndex.clear_memory()
        refine_cache.clear()
    untimed = dict(solve_time=0.0, validate_time=0.0, summary_time=0.0)
    return {
        "multiplicities": result.package.key_multiplicities(),
        "objective": result.objective,
        "feasible": result.feasible,
        "validation": dataclasses.asdict(result.validation),
        "stats": [
            dataclasses.replace(r, **untimed) for r in result.stats.iterations
        ],
    }


def test_sketchrefine_identical_with_the_block_loop(monkeypatch):
    """The array sampler switched off from the test: SketchRefine's
    answer, validation counts and every stats record are unchanged."""
    array = _sketchrefine_outcome()
    grid_counts = []

    def block_loop(self, rng):
        grid_counts.append(_n_grids(self))
        return VGFunction.sample_all(self, rng)

    monkeypatch.setattr(GeometricBrownianMotionVG, "sample_all", block_loop)
    loop = _sketchrefine_outcome()
    # The run realized partitions whose stocks do not share one grid.
    assert max(grid_counts) > 1
    assert loop == array


def test_params_fingerprint_pinned():
    """Persisted partition indexes and scenario caches are keyed by it."""
    assert GeometricBrownianMotionVG().params_fingerprint() == (
        "51180f3bcbd77c60b4774a5ddc21b6c141024571b0601a81a59d57f32d3fc0f9"
    )


def test_validation_errors():
    bad_price = Relation(
        "t", {"stock": ["A"], "price": [-1.0], "drift": [0.0],
              "volatility": [0.1], "sell_in_days": [1.0]}
    )
    with pytest.raises(VGFunctionError):
        _bound(bad_price)
    bad_horizon = Relation(
        "t", {"stock": ["A"], "price": [10.0], "drift": [0.0],
              "volatility": [0.1], "sell_in_days": [0.0]}
    )
    with pytest.raises(VGFunctionError):
        _bound(bad_horizon)


def test_inconsistent_group_parameters_rejected():
    relation = Relation(
        "t",
        {
            "stock": ["A", "A"],
            "price": [10.0, 10.0],
            "drift": [0.0, 0.001],  # drift differs within the stock
            "volatility": [0.1, 0.1],
            "sell_in_days": [1.0, 2.0],
        },
    )
    with pytest.raises(VGFunctionError, match="constant within"):
        _bound(relation)
