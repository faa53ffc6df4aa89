"""Traced queries over HTTP: span trees, the ring, and per-stage
histograms on /metrics."""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro import Catalog, Relation, SPQConfig
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.service import QueryBroker, SPQService

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


def _catalog() -> Catalog:
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    return catalog


@contextmanager
def _service(**config_overrides):
    config = SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
        **config_overrides,
    )
    broker = QueryBroker(_catalog(), config=config, pool_size=2)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        yield svc
    finally:
        svc.shutdown()


def _post(service, payload: dict):
    host, port = service.address
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def _get(service, path: str):
    host, port = service.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=60
        ) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def _iter_tree(node):
    yield node
    for child in node.get("children", ()):
        yield from _iter_tree(child)


def test_traced_query_inlines_span_tree():
    with _service() as service:
        code, payload = _post(service, {"query": QUERY, "trace": True})
        assert code == 200 and payload["feasible"]
        trace_id = payload["trace_id"]
        tree = payload["trace"]
        assert tree["trace_id"] == trace_id
        root = tree["root"]
        assert root["name"] == "query"
        assert root["attrs"]["backend"] == "thread"
        assert root["attrs"]["method"] == "summarysearch"
        spans = list(_iter_tree(root))
        names = {s["name"] for s in spans}
        assert {"query", "execute", "compile", "parse", "solve.q0",
                "csa", "solve", "validate"} <= names, names
        # Every span belongs to this trace — nothing leaked in.
        assert all(s.get("trace_id", trace_id) == trace_id for s in spans)


def test_get_trace_endpoint_serves_finished_tree():
    with _service() as service:
        code, payload = _post(service, {"query": QUERY})
        assert code == 200
        assert "trace" not in payload  # inlining is opt-in
        trace_id = payload["trace_id"]
        code, body = _get(service, f"/trace/{trace_id}")
        assert code == 200
        tree = json.loads(body)
        assert tree["trace_id"] == trace_id
        assert tree["complete"] is True
        assert tree["root"]["name"] == "query"

        code, body = _get(service, "/trace/no-such-trace")
        assert code == 404
        assert json.loads(body)["error"]["kind"] == "unknown-trace"


def _query_observations(service) -> int:
    _, metrics = _get(service, "/metrics")
    match = re.search(
        r'^repro_stage_seconds_count\{stage="query"\} (\d+)$', metrics, re.M
    )
    return int(match.group(1)) if match else 0


def test_tracing_disabled_is_dark():
    with _service(trace_enabled=False) as service:
        # The stage-histogram registry is process-wide, so other tests'
        # observations may already show; disabled tracing must add none.
        before = _query_observations(service)
        code, payload = _post(service, {"query": QUERY, "trace": True})
        assert code == 200
        assert "trace_id" not in payload
        assert "trace" not in payload
        code, body = _get(service, "/trace/anything")
        assert code == 404
        assert json.loads(body)["error"]["kind"] == "tracing-disabled"
        time.sleep(0.2)  # let the done-callback run, had it observed
        assert _query_observations(service) == before


def test_ring_evicts_oldest_trace_first():
    with _service(trace_ring_size=2) as service:
        ids = []
        for _ in range(3):
            code, payload = _post(service, {"query": QUERY})
            assert code == 200
            ids.append(payload["trace_id"])
        assert len(set(ids)) == 3
        code, body = _get(service, f"/trace/{ids[0]}")
        assert code == 404  # evicted, oldest first
        assert json.loads(body)["error"]["kind"] == "unknown-trace"
        for kept in ids[1:]:
            code, _ = _get(service, f"/trace/{kept}")
            assert code == 200


def test_metrics_expose_stage_histograms():
    with _service() as service:
        code, _ = _post(service, {"query": QUERY})
        assert code == 200
        # The "query" observation lands in the future's done-callback,
        # which may trail the HTTP response by a beat — poll briefly.
        count = None
        for _ in range(100):
            _, metrics = _get(service, "/metrics")
            count = re.search(
                r'^repro_stage_seconds_count\{stage="query"\} (\d+)$',
                metrics, re.M,
            )
            if count:
                break
            time.sleep(0.05)
        assert "# TYPE repro_stage_seconds histogram" in metrics
        assert count and int(count.group(1)) >= 1
        assert re.search(
            r'^repro_stage_seconds_bucket\{stage="validate",le="\+Inf"\} \d+$',
            metrics, re.M,
        )
