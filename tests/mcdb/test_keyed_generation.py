"""Keyed generation builds one Philox per stream, not one per key.

Every scenario-wise and tuple-wise draw is keyed by
``(seed, stream, substream, attr, index)``; a :class:`ScenarioGenerator`
re-keys one long-lived Philox for all of them, and the validator shares
one across all of its chunks.  The mechanism is pinned by counting
``Philox`` constructions during one query, never by wall time.
"""

from __future__ import annotations

import numpy as np

import repro.core.summaries as summaries
from repro import SPQConfig
from repro.core.engine import SPQEngine
from repro.core.validator import VALIDATION_CHUNK
from repro.db.catalog import Catalog
from repro.workloads import get_query

#: Scenario streams a summarysearch query realizes: optimisation,
#: probe and expectation (the validator is counted on its own).
_SCENARIO_STREAMS = 3


def test_a_query_builds_one_philox_per_stream_not_per_key(monkeypatch):
    spec = get_query("galaxy", "Q5")
    relation, model = spec.build_dataset(30, seed=21)
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        n_validation_scenarios=2 * VALIDATION_CHUNK + 100,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=40,
        n_expectation_scenarios=300,
        epsilon=0.6,
        solver_time_limit=10.0,
        time_limit=60.0,
        seed=21,
    )
    engine = SPQEngine(catalog=catalog, config=config)
    # Philox is an immutable extension type, so its constructor is
    # counted through a subclass put in its place for the query.
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(args or kwargs)
            super().__init__(*args, **kwargs)

    # make_partitions draws one one-shot generator per (M, Z) rung.
    partitions = []
    make_generator = summaries.make_generator

    def counting_make_generator(*parts):
        partitions.append(parts)
        return make_generator(*parts)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    monkeypatch.setattr(summaries, "make_generator", counting_make_generator)
    result = engine.execute(spec.spaql, method="summarysearch")

    assert result.package is not None
    n_attrs = len(model.attribute_names)
    # Pareto with shape 1 has no closed-form mean, so the expectation
    # stream really realized its scenarios.
    assert model.vg(model.attribute_names[0]).mean() is None
    assert result.stats.final_n_scenarios >= 20
    assert len(built) - len(partitions) <= _SCENARIO_STREAMS * n_attrs + 1
