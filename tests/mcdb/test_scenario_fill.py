"""Grow-only regression tests for the scenario cache's fill.

Scenario ``j`` is drawn from its own RNG key, so
``ParallelScenarioExecutor.coefficient_columns`` — the cache-fill
primitive — must give the same columns for any slicing of the scenario
ids: filling ``[0, k)`` and then ``[k, M)`` equals filling ``[0, M)``,
and both equal the generator's own matrix.  The contract is bit
equality (``np.array_equal``, not ``allclose``).
"""

import numpy as np
import pytest

from repro import Catalog, Relation
from repro.config import STREAM_OPTIMIZATION
from repro.db.expressions import Attr
from repro.mcdb import (
    EmpiricalBootstrapVG,
    GaussianCopulaVG,
    GaussianNoiseVG,
    MixtureVG,
    StochasticModel,
)
from repro.mcdb.scenarios import ScenarioGenerator
from repro.parallel import ParallelScenarioExecutor
from repro.silp.compile import compile_query

M = 24


def _generator(model, seed):
    return ScenarioGenerator(model, seed, STREAM_OPTIMIZATION)


def _assert_grow_only(model, seed, expr, k):
    """A ``[0, k)`` + ``[k, M)`` fill, each slice from a fresh executor,
    equals one ``[0, M)`` fill and the generator's own matrix."""

    def fill(start, stop):
        executor = ParallelScenarioExecutor(_generator(model, seed))
        return executor.coefficient_columns(expr, range(start, stop))

    whole = fill(0, M)
    assert np.array_equal(np.hstack([fill(0, k), fill(k, M)]), whole)
    generator = _generator(model, seed)
    reference = (
        generator.matrix(expr.name, M)
        if isinstance(expr, Attr)
        else generator.coefficient_matrix(expr, M)
    )
    assert np.array_equal(whole, reference)


@pytest.fixture
def gaussian_model():
    relation = Relation("items", {"price": [float(v) for v in range(3, 40)]})
    return StochasticModel(relation, {"Value": GaussianNoiseVG("price", 2.0)})


def _chance_expr(model, summed: str):
    catalog = Catalog()
    catalog.register(model.relation, model)
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        f" SUM({summed}) >= 6 WITH PROBABILITY >= 0.8",
        catalog,
    )
    return problem.chance_constraints[0].expr


def test_attribute_fill_is_grow_only(gaussian_model):
    _assert_grow_only(gaussian_model, 11, Attr("Value"), 7)


def test_gbm_block_fill_is_grow_only(portfolio_toy):
    """Correlated (block-structured) VGs: a scenario's draws land on the
    same rows whichever fill realized it."""
    _assert_grow_only(portfolio_toy[1], 5, Attr("Gain"), 10)


def test_coefficient_expression_fill_is_grow_only(gaussian_model):
    expr = _chance_expr(gaussian_model, "Value * 2 + 1")
    _assert_grow_only(gaussian_model, 11, expr, 4)


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


_HISTORY = [f"h{d}" for d in range(10)]

#: One (label, factory) per correlated VG family, incl. both copula paths.
_CORRELATED = [
    ("copula-one-factor", lambda: GaussianCopulaVG(
        "exp_gain", scale="gain_sd", rho=0.7, group_column="sector")),
    ("copula-cholesky", lambda: GaussianCopulaVG(
        "exp_gain", scale="gain_sd", history_columns=_HISTORY,
        group_column="sector")),
    ("mixture", lambda: MixtureVG(
        [
            GaussianCopulaVG(
                "exp_gain", scale="gain_sd", rho=0.2, group_column="sector"),
            GaussianNoiseVG("exp_gain", 2.0),
        ],
        weights=[0.6, 0.4],
    )),
    ("empirical-bootstrap", lambda: EmpiricalBootstrapVG(
        "exp_gain", _HISTORY, joint=True)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in _CORRELATED], ids=[label for label, _ in _CORRELATED]
)
def test_correlated_vg_fill_is_grow_only(factory):
    """Each correlated VG family: a sliced fill equals one fill, bit for
    bit (the block-aware RNG substreams keep correlated groups whole
    inside each scenario)."""
    model = StochasticModel(_correlated_relation(), {"X": factory()})
    _assert_grow_only(model, 23, Attr("X"), 9)


# --- two threads, one cache ------------------------------------------------------


@pytest.mark.parametrize("with_store", [False, True], ids=["private", "store"])
def test_two_threads_filling_one_cache_equal_a_sequential_fill(with_store):
    """The ladder lane's rung and its caller's may fill one evaluation's
    cache at once — different expressions, different ``M`` — and the
    generator re-keys one Philox, so fills are serialized per cache.  A
    short switch interval makes an unserialized interleaving near-certain.
    """
    import sys
    import threading

    from repro.db.expressions import BinOp
    from repro.mcdb.scenarios import ScenarioCache
    from repro.service import ScenarioStore

    relation = Relation(
        "items",
        {
            "price": [float(v) for v in range(3, 203)],
            "cost": [float(v % 17) for v in range(200)],
        },
    )
    model = StochasticModel(
        relation,
        {
            "Value": GaussianNoiseVG("price", 2.0),
            "Noise": GaussianNoiseVG("cost", 1.0),
        },
    )
    exprs = (Attr("Value"), BinOp("+", Attr("Noise"), Attr("cost")))
    sizes = ((60, 150, 240), (40, 120, 200))

    def cache():
        return ScenarioCache(
            _generator(model, 7), store=ScenarioStore() if with_store else None
        )

    expected = [cache().coefficient_matrix(expr, steps[-1]).copy()
                for expr, steps in zip(exprs, sizes)]
    shared = cache()
    barrier = threading.Barrier(2)
    got: dict[int, list] = {0: [], 1: []}

    def fill(which):
        barrier.wait()
        for n in sizes[which]:
            got[which].append(shared.coefficient_matrix(exprs[which], n).copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for which in (0, 1):
        assert len(got[which]) == len(sizes[which])
        for n, matrix in zip(sizes[which], got[which]):
            assert np.array_equal(matrix, expected[which][:, :n])
