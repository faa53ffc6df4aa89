"""End-to-end ``repro serve`` protocol tests over a local socket."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.errors import SolverError
from repro.mcdb import GaussianNoiseVG, StochasticModel, UniformNoiseVG
from repro.service import QueryBroker, SPQService

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


@pytest.fixture
def service():
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    # Value within 1 of price: no tuple can lower a package's sum.
    parts = Relation("parts", {"price": [5.0, 8.0, 3.0, 6.0, 2.0]})
    catalog.register(
        parts, StochasticModel(parts, {"Value": UniformNoiseVG("price", -1.0, 1.0)})
    )
    config = SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
    )
    broker = QueryBroker(catalog, config=config, pool_size=2)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        yield svc
    finally:
        svc.shutdown()


def _url(service, path: str) -> str:
    host, port = service.address
    return f"http://{host}:{port}{path}"


def _post(service, payload: dict):
    request = urllib.request.Request(
        _url(service, "/query"),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def _get(service, path: str):
    with urllib.request.urlopen(_url(service, path), timeout=30) as response:
        body = response.read()
        content_type = response.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(body)
        return response.status, body.decode()


def test_query_roundtrip_and_cache_hit_on_repeat(service):
    status, first = _post(service, {"query": QUERY})
    assert status == 200
    assert first["feasible"] is True
    assert first["package"]["total_count"] >= 1
    assert first["package"]["rows"]
    assert {"price", "id"} <= set(first["package"]["columns"])
    assert first["store"]["generations"] > 0

    status, second = _post(service, {"query": QUERY})
    assert status == 200
    # The repeat is served from the shared store: the generation counter
    # is unchanged while the hit counter moved.
    assert second["store"]["generations"] == first["store"]["generations"]
    assert second["store"]["hits"] > first["store"]["hits"]
    assert second["objective"] == first["objective"]
    assert second["package"]["multiplicities"] == first["package"]["multiplicities"]


def test_a_query_with_no_certifiable_bound_is_marked_uncertified(service):
    """Minimising a nonnegative sum under an upper chance constraint:
    the empty package is feasible and its objective bounds' lower end
    is 0, so no (1+eps) certificate exists for it."""
    status, body = _post(
        service,
        {
            "query": "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3"
            " AND SUM(Value) <= 15 WITH PROBABILITY >= 0.8"
            " MINIMIZE EXPECTED SUM(Value)"
        },
    )
    assert status == 200
    assert body["feasible"] is True and body["uncertified"] is True
    assert body["epsilon_upper"] is None and body["verdict"] == "uncertified"
    status, certified = _post(service, {"query": QUERY})
    assert status == 200
    assert certified["uncertified"] is False
    assert certified["verdict"] == "certified"


def test_the_payload_says_whether_no_package_exists(service):
    """Every package of ``parts`` holds a tuple, none of which can lower
    its Value sum: no package stays under 2.5 more often than the price-2
    tuple does (3/4), so none exists.  ``items``'s Gaussian Value proves
    nothing, and its ladder runs out instead."""
    such_that = (
        " SUCH THAT COUNT(*) BETWEEN 1 AND 2 AND SUM(Value) <= 2.5"
        " WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(Value)"
    )
    status, proved = _post(service, {"query": "SELECT PACKAGE(*) FROM parts" + such_that})
    assert status == 200
    assert proved["feasible"] is False and proved["package"] is None
    assert proved["verdict"] == "proved_infeasible"
    assert proved["message"].startswith("no package can reach SUM(Value) <= 2.5")
    assert proved["stats"]["n_iterations"] == 1
    status, exhausted = _post(
        service,
        {"query": "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) BETWEEN 1 AND 2"
         " AND SUM(Value) >= 100 WITH PROBABILITY >= 0.9"
         " MINIMIZE EXPECTED SUM(Value)"},
    )
    assert status == 200
    assert exhausted["verdict"] == "not_found"
    assert exhausted["stats"]["final_n_scenarios"] == 60


def test_status_endpoint(service):
    _post(service, {"query": QUERY})
    status, body = _get(service, "/status")
    assert status == 200
    assert body["status"] == "ok"
    assert body["pool_size"] == 2
    assert body["submitted"] >= 1
    assert body["uptime_s"] >= 0
    assert "hits" in body["store"]


def test_metrics_endpoint_exposes_store_counters(service):
    _post(service, {"query": QUERY})
    _post(service, {"query": QUERY})
    status, text = _get(service, "/metrics")
    assert status == 200
    metrics = {
        line.split()[0]: line.split()[1]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert int(metrics["repro_store_hits_total"]) > 0
    assert int(metrics["repro_store_generations_total"]) >= 1
    assert int(metrics["repro_broker_submitted_total"]) >= 2
    assert "repro_store_evictions_total" in metrics
    assert "repro_store_bytes_resident" in metrics


def test_overrides_are_applied(service):
    status, body = _post(
        service, {"query": QUERY, "method": "naive", "overrides": {"seed": 9}}
    )
    assert status == 200
    assert body["method"] == "naive"


def _status_of(exc: urllib.error.HTTPError):
    return exc.code, json.loads(exc.read())


def test_saturation_is_counted_and_exposed_as_rejected_total(monkeypatch):
    # A broker with no headroom: one session, one pending slot, and the
    # evaluation gated so the slot stays occupied while we overflow it.
    import threading

    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    broker = QueryBroker(
        catalog,
        config=SPQConfig(
            n_validation_scenarios=200,
            n_initial_scenarios=10,
            scenario_increment=10,
            max_scenarios=30,
            epsilon=0.9,
        ),
        pool_size=1,
        max_pending=1,
    )
    gate = threading.Event()
    original = SPQEngine.execute

    def gated(self, query, *args, **kwargs):
        gate.wait(60)
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(SPQEngine, "execute", gated)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        first = threading.Thread(target=lambda: _post(svc, {"query": QUERY}))
        first.start()
        deadline = 60
        import time

        start = time.time()
        while broker.status()["pending"] < 1 and time.time() - start < deadline:
            time.sleep(0.01)

        # The overflow request is rejected with 503 ...
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(svc, {"query": QUERY, "overrides": {"seed": 99}})
        code, body = _status_of(excinfo.value)
        assert code == 503
        assert body["error"]["kind"] == "saturated"

        # ... and the event is visible on /status and /metrics.
        _, status_body = _get(svc, "/status")
        assert status_body["rejected_total"] == 1
        assert status_body["rejected"] == 1  # backwards-compatible alias
        _, metrics = _get(svc, "/metrics")
        assert "repro_broker_rejected_total 1" in metrics.splitlines()

        gate.set()
        first.join(120)
    finally:
        gate.set()
        svc.shutdown()


def test_error_mapping(service):
    # Invalid JSON → 400.
    request = urllib.request.Request(
        _url(service, "/query"),
        data=b"{nope",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    code, body = _status_of(excinfo.value)
    assert code == 400
    assert body["error"]["kind"] == "bad-request"

    # sPaQL parse errors → 400 with kind "parse".
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(service, {"query": "SELEC PACKAGE nonsense"})
    code, body = _status_of(excinfo.value)
    assert code == 400
    assert body["error"]["kind"] == "parse"

    # Unknown route → 404.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(service, "/nope")
    assert excinfo.value.code == 404

    # Unknown config override → 400, including the removed solver
    # switch, delta-reuse knob, and the knobs only tests set.
    for knob, value in (
        ("bogus_knob", 1),
        ("solver", "branch-bound"),
        ("scale_delta_reuse", False),
        ("profile_stages", True),
        ("incremental_solves", False),
        ("analytic_expectations", False),
        ("scale_threshold_rows", 10),
        ("summary_strategy", "tuple-wise"),
        ("scale_chunk_rows", 1024),
        ("max_csa_iterations", 5),
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(service, {"query": QUERY, "overrides": {knob: value}})
        code, body = _status_of(excinfo.value)
        assert code == 400
        assert body["error"]["kind"] == "bad-request"


def test_a_failed_solve_maps_to_409_solve(monkeypatch):
    # The request was well formed: the evaluation itself failed.
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    broker = QueryBroker(catalog, config=SPQConfig(), pool_size=1)

    def fail(self, query, *args, **kwargs):
        raise SolverError("HiGHS failed while evaluating the request")

    monkeypatch.setattr(SPQEngine, "execute", fail)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(svc, {"query": QUERY})
        code, body = _status_of(excinfo.value)
        assert code == 409
        assert body["error"]["kind"] == "solve"
    finally:
        svc.shutdown()


# --- POST /update (docs/live_data.md) ----------------------------------------


def _post_update(service, payload: dict):
    request = urllib.request.Request(
        _url(service, "/update"),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _delta_counters(service) -> dict:
    _, text = _get(service, "/metrics")
    samples = {
        line.split()[0]: line.split()[1]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    return {
        name: int(samples.get(name, 0))
        for name in ("repro_delta_applied_total", "repro_delta_rows_dirty_total")
    }


def test_update_roundtrip_and_version_labeling(service):
    status, before = _post(service, {"query": QUERY})
    assert status == 200
    v0 = before["catalog_version"]
    counters_before = _delta_counters(service)

    status, summary = _post_update(
        service,
        {"table": "items", "delta": {"updates": [[0, {"price": 50.0}]]}},
    )
    assert status == 200
    assert summary["status"] == "ok"
    assert summary["dirty_rows"] == 1
    assert summary["catalog_version"] == v0 + 1

    # A post-delta query answers against the new version (never a stale
    # cache hit from before the update).
    status, after = _post(service, {"query": QUERY})
    assert status == 200
    assert after["catalog_version"] == v0 + 1

    # Counters are process-global: assert the delta, not the absolute value.
    counters_after = _delta_counters(service)
    applied = "repro_delta_applied_total"
    dirty = "repro_delta_rows_dirty_total"
    assert counters_after[applied] == counters_before[applied] + 1
    assert counters_after[dirty] == counters_before[dirty] + 1

    status, text = _get(service, "/metrics")
    metrics = {
        line.split()[0]: line.split()[1]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert "repro_delta_partitions_dirty_total" in metrics
    assert "repro_store_stale_dropped_total" in metrics


def test_update_error_mapping(service):
    # Unknown table → 404.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_update(service, {"table": "ghost", "delta": {"deletes": [0]}})
    code, body = _status_of(excinfo.value)
    assert code == 404
    assert body["error"]["kind"] == "unknown-table"

    # Missing/ill-typed delta body → 400 bad-request.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_update(service, {"table": "items"})
    code, body = _status_of(excinfo.value)
    assert code == 400
    assert body["error"]["kind"] == "bad-request"

    # Structurally valid JSON that is not a valid delta → 400 bad-delta.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_update(service, {"table": "items", "delta": {}})
    code, body = _status_of(excinfo.value)
    assert code == 400
    assert body["error"]["kind"] == "bad-delta"

    # Updating the key column is a delta-validation error, not a crash.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_update(
            service,
            {"table": "items", "delta": {"updates": [[0, {"id": 9}]]}},
        )
    code, body = _status_of(excinfo.value)
    assert code == 400
    assert body["error"]["kind"] == "bad-delta"
