"""SPQConfig validation and derivation."""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro import SPQConfig
from repro.config import paper_scale_config
from repro.errors import EvaluationError


def test_defaults_valid():
    SPQConfig().validate()  # must not raise


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_validation_scenarios", 0),
        ("n_initial_scenarios", 0),
        ("scenario_increment", 0),
        ("initial_summaries", 0),
        ("summary_increment", 0),
        ("epsilon", -0.1),
        ("time_limit", 0.0),
        ("deadline_ms", float("nan")),
        ("deadline_ms", float("inf")),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(EvaluationError):
        SPQConfig(**{field: value})


@pytest.mark.parametrize(
    "field",
    [
        "solver",
        "scale_delta_reuse",
        "convergence_acceleration",
        "default_multiplicity_bound",
        "profile_stages",
        "incremental_solves",
        "analytic_expectations",
        "scale_threshold_rows",
        "summary_strategy",
        "scale_chunk_rows",
        "max_csa_iterations",
        "n_workers",
    ],
)
def test_removed_knobs_are_not_fields(field):
    # Every solve goes to HiGHS, delta repair and convergence
    # acceleration are always on, and an unbounded variable is an error.
    # Base-model reuse, warm starts and analytic means are always on,
    # the self-time table is a view of the trace, and the scale route
    # is derived from the model and the store's resident budget.
    # Summaries are always built in memory (Section 5.5), the CSA round
    # cap is a constant, on-disk chunking uses the columnar default, and
    # partition refines run in the query's own process.
    with pytest.raises(TypeError):
        SPQConfig(**{field: None})


#: Every SPQConfig field.  No new knob for something the code can decide
#: from the model: a field joins this set only when a workload, script or
#: deployment needs a non-default value, and a field that only tests set
#: leaves it.  Editing this set is the place to argue for the knob.
FIELDS = {
    # Monte Carlo sizes and SummarySearch (the paper's M̂, M, m, z, ε)
    "n_validation_scenarios", "n_initial_scenarios", "scenario_increment",
    "max_scenarios", "initial_summaries", "summary_increment", "epsilon",
    "max_quality_rounds",
    "n_expectation_scenarios", "n_probe_scenarios",
    # the stochastic model
    "vg_overrides",
    # serving
    "scenario_store_budget", "scenario_store_spill", "service_pool_size",
    "service_max_pending",
    # out-of-core scale tier
    "scale_n_partitions", "scale_pilot_scenarios", "scale_resident_budget",
    # observability
    "trace_enabled", "trace_ring_size", "slow_query_threshold_s",
    "slow_query_log", "slow_query_log_max_bytes",
    # solving, reproducibility, budgets
    "solver_time_limit", "mip_gap", "seed", "time_limit", "deadline_ms",
}


def test_config_field_set_is_pinned():
    assert {f.name for f in dataclasses.fields(SPQConfig)} == FIELDS
    assert len(FIELDS) == 28


def test_every_field_is_read_outside_config():
    """A field that no code reads is a dead knob: setting it changes
    nothing.  A read is ``.<field>`` or a ``getattr(..., "<field>")``
    string in ``src/repro/`` outside ``config.py``; code that loops over
    every field (``refinecache.query_digest``) is not a read."""
    package = Path(repro.__file__).parent
    text = "\n".join(
        path.read_text()
        for path in sorted(package.rglob("*.py"))
        if path != package / "config.py"
    )
    unread = [
        name
        for name in sorted(FIELDS)
        if not re.search(rf"\.{name}\b", text)
        and not re.search(rf"getattr\([^)]*[\"']{name}[\"']", text)
    ]
    assert not unread, unread


def test_refine_cache_excludes_only_real_fields():
    from repro.scale.refinecache import _EXCLUDED_CONFIG_FIELDS

    assert _EXCLUDED_CONFIG_FIELDS <= FIELDS


def test_max_scenarios_must_cover_initial():
    with pytest.raises(EvaluationError):
        SPQConfig(n_initial_scenarios=100, max_scenarios=50)


def test_replace_revalidates():
    config = SPQConfig()
    with pytest.raises(EvaluationError):
        config.replace(epsilon=-1.0)
    clone = config.replace(seed=7)
    assert clone.seed == 7
    assert config.seed != 7  # original untouched


def test_paper_scale_config():
    config = paper_scale_config()
    assert config.n_validation_scenarios == 1_000_000
    assert config.time_limit == 4 * 3600.0
    assert config.max_scenarios == 1_000


def test_vg_overrides_validated_at_construction():
    good = SPQConfig(
        vg_overrides=(
            "Gain=gaussian_copula:base_column=exp_gain,rho=0.5,"
            "group_column=sector",
        )
    )
    assert len(good.vg_overrides) == 1
    from repro.errors import VGFunctionError

    with pytest.raises(VGFunctionError):
        SPQConfig(vg_overrides=("Gain=mystery_family:x=1",))
    with pytest.raises(VGFunctionError):
        SPQConfig(vg_overrides=("not-a-spec",))
    with pytest.raises(EvaluationError):
        SPQConfig(vg_overrides="Gain=gaussian:base_column=a,sigma=1")
