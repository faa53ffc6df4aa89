"""Determinism regression tests for the parallel scenario executor.

The contract is bit-identical equality (``np.array_equal``, not
``allclose``): ``ParallelScenarioExecutor.coefficient_columns`` — the
cache-fill primitive — chunks by scenario RNG identity, so any worker
count must reproduce the sequential stream exactly.
"""

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.config import STREAM_OPTIMIZATION
from repro.db.expressions import Attr
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.mcdb.scenarios import ScenarioCache, ScenarioGenerator
from repro.parallel import ParallelScenarioExecutor, scenario_chunks
from repro.silp.compile import compile_query

N_WORKERS = 4
M = 24


@pytest.fixture
def gaussian_setup():
    relation = Relation(
        "items", {"price": [float(v) for v in range(3, 40)]}
    )
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 2.0)})
    return relation, model


@pytest.fixture
def gbm_setup(portfolio_toy):
    return portfolio_toy


def _parallel_columns(model, seed, expr, scenarios):
    """``coefficient_columns`` through a real 4-worker pool."""
    executor = ParallelScenarioExecutor(
        ScenarioGenerator(model, seed, STREAM_OPTIMIZATION), N_WORKERS
    )
    try:
        columns = executor.coefficient_columns(expr, scenarios)
        # The pool really ran: no silent fall-back to the sequential loop.
        assert executor._pool is not None and not executor._broken
        return columns
    finally:
        executor.close()


def test_scenario_chunks_cover_in_order():
    chunks = scenario_chunks(range(10), 4)
    flat = np.concatenate(chunks)
    np.testing.assert_array_equal(flat, np.arange(10))
    assert len(chunks) <= 4
    assert scenario_chunks(range(2), 8) and len(scenario_chunks(range(2), 8)) == 2


def test_attribute_matrix_bit_identical(gaussian_setup):
    _, model = gaussian_setup
    sequential = ScenarioGenerator(model, 11, STREAM_OPTIMIZATION).matrix(
        "Value", M
    )
    assert np.array_equal(
        _parallel_columns(model, 11, Attr("Value"), range(M)), sequential
    )
    # A suffix, as the cache asks for when M grows.
    assert np.array_equal(
        _parallel_columns(model, 11, Attr("Value"), range(7, M)),
        sequential[:, 7:],
    )


def test_gbm_block_structure_bit_identical(gbm_setup):
    """Correlated (block-structured) VGs: a scenario's draws land on the
    same rows regardless of which worker realized it."""
    _, model = gbm_setup
    assert np.array_equal(
        _parallel_columns(model, 5, Attr("Gain"), range(M)),
        ScenarioGenerator(model, 5, STREAM_OPTIMIZATION).matrix("Gain", M),
    )


def test_coefficient_matrix_bit_identical(gaussian_setup):
    relation, model = gaussian_setup
    catalog = Catalog()
    catalog.register(relation, model)
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value * 2 + 1) >= 6 WITH PROBABILITY >= 0.8"
        " MINIMIZE EXPECTED SUM(Value)",
        catalog,
    )
    expr = problem.chance_constraints[0].expr
    sequential = ScenarioGenerator(model, 11, STREAM_OPTIMIZATION)
    assert np.array_equal(
        _parallel_columns(model, 11, expr, range(M)),
        sequential.coefficient_matrix(expr, M),
    )
    assert np.array_equal(
        _parallel_columns(model, 11, expr, range(4, 17)),
        np.column_stack(
            [sequential.coefficient_scenario(expr, j) for j in range(4, 17)]
        ),
    )


def test_scenario_cache_contents_bit_identical(gaussian_setup):
    """Cache fill with n_workers=4 equals n_workers=1, including the
    incremental top-up when M grows (Algorithm 1, line 9)."""
    relation, model = gaussian_setup
    catalog = Catalog()
    catalog.register(relation, model)
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 6 WITH PROBABILITY >= 0.8",
        catalog,
    )
    expr = problem.chance_constraints[0].expr
    cache_seq = ScenarioCache(ScenarioGenerator(model, 11, STREAM_OPTIMIZATION))
    cache_par = ScenarioCache(
        ScenarioGenerator(model, 11, STREAM_OPTIMIZATION), n_workers=N_WORKERS
    )
    try:
        for m in (6, M):  # second call exercises the grow-only top-up
            assert np.array_equal(
                cache_par.coefficient_matrix(expr, m),
                cache_seq.coefficient_matrix(expr, m),
            )
    finally:
        cache_par.close()


def _correlated_relation() -> Relation:
    rng = np.random.default_rng(12)
    n, n_obs = 12, 10
    columns = {
        "sector": np.array(["a", "b", "c"] * 4, dtype=object),
        "exp_gain": np.linspace(1.0, 12.0, n),
        "gain_sd": np.linspace(0.4, 1.5, n),
    }
    for d in range(n_obs):
        columns[f"h{d}"] = columns["exp_gain"] + rng.normal(size=n)
    return Relation("corr", columns)


def _correlated_models():
    """One (label, factory) per new VG family, incl. both copula paths."""
    from repro.mcdb import (
        EmpiricalBootstrapVG,
        GaussianCopulaVG,
        GaussianNoiseVG,
        MixtureVG,
    )

    history = [f"h{d}" for d in range(10)]
    return [
        (
            "copula-one-factor",
            lambda: GaussianCopulaVG(
                "exp_gain", scale="gain_sd", rho=0.7, group_column="sector"
            ),
        ),
        (
            "copula-cholesky",
            lambda: GaussianCopulaVG(
                "exp_gain", scale="gain_sd", history_columns=history,
                group_column="sector",
            ),
        ),
        (
            "mixture",
            lambda: MixtureVG(
                [
                    GaussianCopulaVG(
                        "exp_gain", scale="gain_sd", rho=0.2,
                        group_column="sector",
                    ),
                    GaussianNoiseVG("exp_gain", 2.0),
                ],
                weights=[0.6, 0.4],
            ),
        ),
        (
            "empirical-bootstrap",
            lambda: EmpiricalBootstrapVG("exp_gain", history, joint=True),
        ),
    ]


@pytest.mark.parametrize(
    "label,factory",
    _correlated_models(),
    ids=[label for label, _ in _correlated_models()],
)
def test_correlated_vgs_bit_identical_across_workers(label, factory):
    """Each correlated VG family: n_workers=4 realization equals
    sequential, bit for bit (the block-aware RNG substreams make
    correlated groups chunk-safe)."""
    relation = _correlated_relation()
    model = StochasticModel(relation, {"X": factory()})
    assert np.array_equal(
        _parallel_columns(model, 23, Attr("X"), range(M)),
        ScenarioGenerator(model, 23, STREAM_OPTIMIZATION).matrix("X", M),
    )


def test_end_to_end_package_identical_across_worker_counts(gaussian_setup):
    """Engine-level determinism: n_workers=4 fills the optimization
    ScenarioCache through the worker pool, and the package is the one
    the sequential fill gives."""
    relation, model = gaussian_setup
    query = (
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 9 WITH PROBABILITY >= 0.8"
        " MINIMIZE EXPECTED SUM(Value)"
    )
    packages = []
    for n_workers in (1, N_WORKERS):
        config = SPQConfig(
            n_validation_scenarios=500,
            n_initial_scenarios=16,
            scenario_increment=16,
            max_scenarios=48,
            n_expectation_scenarios=200,
            n_probe_scenarios=8,
            epsilon=0.5,
            solver_time_limit=10.0,
            time_limit=60.0,
            seed=3,
            n_workers=n_workers,
        )
        engine = SPQEngine(config=config)
        engine.register(relation, model)
        result = engine.execute(query, method="summarysearch")
        packages.append(
            None if result.package is None else result.package.multiplicities
        )
    first, second = packages
    if first is None:
        assert second is None
    else:
        np.testing.assert_array_equal(first, second)
