"""Bit-identity of the scenario cache's contents under the fill loop.

``ScenarioCache`` realizes its coefficient matrices through
``ParallelScenarioExecutor.coefficient_columns``, asking only for the
new columns when ``M`` grows.  Scenario ``j`` is drawn from its own RNG
key, so the cache's contents must not depend on how the fill was
sliced.  The contract is bit equality (``np.array_equal``, not
``allclose``).
"""

import numpy as np

from repro import Catalog, Relation
from repro.config import STREAM_OPTIMIZATION
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.mcdb.scenarios import ScenarioCache, ScenarioGenerator
from repro.parallel import ParallelScenarioExecutor
from repro.silp.compile import compile_query

M = 24


def test_scenario_cache_contents_bit_identical():
    """A cache topped up from 6 to M scenarios (Algorithm 1, line 9)
    holds the same matrix as a cache filled once at M and as the
    executor's columns for ``range(M)``."""
    relation = Relation("items", {"price": [float(v) for v in range(3, 40)]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 2.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 6 WITH PROBABILITY >= 0.8",
        catalog,
    )
    expr = problem.chance_constraints[0].expr

    def generator():
        return ScenarioGenerator(model, 11, STREAM_OPTIMIZATION)

    grown = ScenarioCache(generator())
    small = grown.coefficient_matrix(expr, 6).copy()
    large = grown.coefficient_matrix(expr, M)
    one_shot = ScenarioCache(generator()).coefficient_matrix(expr, M)
    direct = ParallelScenarioExecutor(generator()).coefficient_columns(
        expr, range(M)
    )
    assert large.shape == (relation.n_rows, M)
    assert np.array_equal(large[:, :6], small)
    assert np.array_equal(large, one_shot)
    assert np.array_equal(large, direct)
