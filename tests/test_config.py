"""SPQConfig validation and derivation."""

import pytest

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
        ("summary_strategy", "zip"),
        ("service_backend", "fork"),
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
    ],
)
def test_removed_knobs_are_not_fields(field):
    # Every solve goes to HiGHS, delta repair and convergence
    # acceleration are always on, and an unbounded variable is an error.
    with pytest.raises(TypeError):
        SPQConfig(**{field: None})


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
