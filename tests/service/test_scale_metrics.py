"""``repro_scale_*`` counters on /status and /metrics, both backends."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import Catalog, SPQConfig
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.obs.metrics import section_keys
from repro.scale.partition import PartitionIndex
from repro.service import QueryBroker, SPQService
from repro.workloads import get_query

SPEC = get_query("portfolio", "Q1")
SCALE_COUNTERS = section_keys("scale", "counter")

pytestmark = pytest.mark.usefixtures("_fresh_partition_cache")


@pytest.fixture
def _fresh_partition_cache():
    PartitionIndex.clear_memory()
    yield
    PartitionIndex.clear_memory()


def _config(**overrides) -> SPQConfig:
    return SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.5,
        seed=1234,
        scale_n_partitions=3,
        scale_pilot_scenarios=8,
        **overrides,
    )


def _catalog() -> Catalog:
    relation, model = build_portfolio(PortfolioParams(n_stocks=60, seed=7))
    catalog = Catalog()
    catalog.register(relation, model)
    return catalog


def test_status_exposes_scale_section_with_all_fields():
    broker = QueryBroker(_catalog(), config=_config(), pool_size=1)
    try:
        scale = broker.status()["scale"]
        for field in section_keys("scale"):
            assert field in scale
    finally:
        broker.close()


def test_thread_backend_counters_monotonic_across_scale_queries():
    broker = QueryBroker(_catalog(), config=_config(), pool_size=1)
    try:
        before = broker.status()["scale"]
        broker.execute(SPEC.spaql, method="sketchrefine")
        middle = broker.status()["scale"]
        broker.execute(SPEC.spaql, method="sketchrefine")
        after = broker.status()["scale"]
        for field in SCALE_COUNTERS:
            assert before[field] <= middle[field] <= after[field], field
        assert middle["runs"] >= before["runs"] + 1
        assert after["runs"] >= middle["runs"] + 1
        assert after["partitions"] > before["partitions"]
        assert after["refine_seconds"] > before["refine_seconds"]
        # The second identical query hits the partition index.
        assert after["index_hits"] > middle["index_hits"] - 1
    finally:
        broker.close()


def test_metrics_exposition_includes_scale_series():
    broker = QueryBroker(_catalog(), config=_config(), pool_size=1)
    service = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        host, port = service.address
        broker.execute(SPEC.spaql, method="sketchrefine")
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=60
        ) as response:
            text = response.read().decode()
        for name in (
            "repro_scale_runs_total",
            "repro_scale_partitions_total",
            "repro_scale_refines_total",
            "repro_scale_sketch_seconds_total",
            "repro_scale_refine_seconds_total",
            "repro_scale_index_hits_total",
            "repro_scale_index_misses_total",
            "repro_scale_resident_bytes",
            "repro_scale_resident_peak_bytes",
        ):
            assert f"\n{name} " in "\n" + text or text.startswith(f"{name} "), name
        with urllib.request.urlopen(
            f"http://{host}:{port}/status", timeout=60
        ) as response:
            status = json.loads(response.read())
        assert status["scale"]["runs"] >= 1
    finally:
        service.shutdown()
