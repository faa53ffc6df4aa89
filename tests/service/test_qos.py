"""QoS tier: EDF ordering, deadline expiry races, admission, HTTP 504.

Every scheduling assertion runs on an injected fake clock — no sleeps,
no wall-clock flakiness.  The HTTP tests at the bottom exercise the
full ``deadline_ms`` round trip against a live socket.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.errors import EvaluationError
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.service import (
    DeadlineExpiredError,
    EDFQueue,
    QueryBroker,
    SPQService,
    TaskDeadline,
)
from repro.service.http import metrics_text

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


# --- TaskDeadline ----------------------------------------------------------


def test_task_deadline_pins_absolute_expiry():
    clock = FakeClock(100.0)
    deadline = TaskDeadline(250.0, clock=clock)
    assert deadline.expires_at == pytest.approx(100.25)
    assert deadline.remaining_ms() == pytest.approx(250.0)
    assert not deadline.expired()
    clock.now = 100.2
    assert deadline.remaining_ms() == pytest.approx(50.0)
    clock.now = 100.25
    assert deadline.expired()  # boundary counts as expired
    clock.now = 101.0
    assert deadline.remaining_ms() == pytest.approx(-750.0)


def test_queue_time_counts_against_budget():
    # A query admitted with 50ms that waits 60ms is dead on dispatch even
    # though no solving happened — the absolute pin makes this automatic.
    clock = FakeClock(0.0)
    deadline = TaskDeadline(50.0, clock=clock)
    clock.now = 0.06
    assert deadline.expired()


# --- EDFQueue --------------------------------------------------------------


def test_edf_orders_by_expiry_not_arrival():
    clock = FakeClock(0.0)
    queue = EDFQueue()
    queue.push("loose", TaskDeadline(5_000.0, clock=clock))
    queue.push("tight", TaskDeadline(100.0, clock=clock))
    queue.push("medium", TaskDeadline(1_000.0, clock=clock))
    assert queue.items() == ["tight", "medium", "loose"]
    assert [queue.pop() for _ in range(3)] == ["tight", "medium", "loose"]
    assert not queue


def test_deadline_less_work_keeps_fifo_behind_deadlined():
    clock = FakeClock(0.0)
    queue = EDFQueue()
    queue.push("a")
    queue.push("b")
    queue.push("urgent", TaskDeadline(10.0, clock=clock))
    queue.push("c")
    assert [queue.pop() for _ in range(4)] == ["urgent", "a", "b", "c"]


def test_edf_tie_breaks_fifo():
    clock = FakeClock(0.0)
    queue = EDFQueue()
    first = {"id": 1}
    twin = {"id": 1}  # equal by value, distinct by identity
    queue.push(first, TaskDeadline(100.0, clock=clock))
    queue.push(twin, TaskDeadline(100.0, clock=clock))
    assert queue.pop() is first
    assert queue.pop() is twin
    with pytest.raises(IndexError):
        queue.pop()


def test_expiry_race_item_queued_then_clock_advances():
    # The queue itself never drops items — expiry is the dispatcher's
    # call (the broker checks at pop time) — but EDF rank is frozen at push, so
    # an expired item surfaces first and is rejected promptly, not last.
    clock = FakeClock(0.0)
    queue = EDFQueue()
    dead = TaskDeadline(10.0, clock=clock)
    queue.push("doomed", dead)
    queue.push("fine", TaskDeadline(10_000.0, clock=clock))
    clock.now = 5.0  # way past 10ms
    assert dead.expired()
    assert queue.pop() == "doomed"


# --- broker admission ------------------------------------------------------


@pytest.fixture
def catalog() -> Catalog:
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    out = Catalog()
    out.register(relation, model)
    return out


@pytest.fixture
def config() -> SPQConfig:
    return SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
    )


def test_broker_rejects_expired_budget_at_admission(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        with pytest.raises(DeadlineExpiredError, match="rejected at admission"):
            broker.submit(QUERY, deadline_ms=0)
        with pytest.raises(DeadlineExpiredError):
            broker.submit(QUERY, deadline_ms=-10.0)
        with pytest.raises(EvaluationError, match="must be a number"):
            broker.submit(QUERY, deadline_ms="soon")
        status = broker.status()
        assert status["deadline"]["rejected"] == 2
        assert status["submitted"] == 0  # rejected before accounting


def test_broker_counts_deadline_verdicts(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        broker.execute(QUERY)  # no deadline: counts as met
        broker.execute(QUERY, deadline_ms=3_600_000.0)  # ample: met
        status = broker.status()
    assert status["deadline"]["met"] == 2
    assert status["deadline"]["missed"] == 0
    assert status["deadline"]["last_gap"] == 0.0


#: Eight Gaussian tuples (σ = 3) on which SummarySearch ends, untruncated,
#: with an infeasible package: an answer that carries no gap.
EIGHT_TUPLE_QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 15 WITH PROBABILITY >= 0.9"
    " MINIMIZE EXPECTED SUM(Value)"
)


def test_last_gap_follows_the_last_answer_even_without_a_gap(fast_config):
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0, 7.0, 2.0, 9.0]})
    catalog = Catalog()
    catalog.register(
        relation, StochasticModel(relation, {"Value": GaussianNoiseVG("price", 3.0)})
    )

    def gauge(broker) -> str:
        (line,) = [
            line for line in metrics_text(broker).splitlines()
            if line.startswith("repro_query_gap ")
        ]
        return line.split()[1]

    with QueryBroker(catalog, config=fast_config, pool_size=1) as broker:
        assert broker.status()["deadline"]["last_gap"] is None
        assert broker.execute(QUERY).feasible
        assert broker.status()["deadline"]["last_gap"] == 0.0
        assert float(gauge(broker)) == 0.0
        infeasible = broker.execute(EIGHT_TUPLE_QUERY, method="summarysearch")
        assert not infeasible.feasible and infeasible.anytime.gap is None
        assert broker.status()["deadline"]["last_gap"] is None
        assert gauge(broker) == "NaN"


def test_broker_result_carries_anytime_envelope(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        result = broker.execute(QUERY, deadline_ms=3_600_000.0)
    assert result.anytime is not None
    assert result.anytime.deadline_met
    assert result.anytime.gap == 0.0


def test_queued_expiry_fails_future_with_504_error(catalog, config, monkeypatch):
    # Hold the only slot hostage, queue a 1ms query behind it: by the
    # time the slot frees, the budget is gone and the future must fail
    # with DeadlineExpiredError (not run the solve).
    gate = threading.Event()
    original = SPQEngine.execute

    def gated(self, query, *args, **kwargs):
        gate.wait(60)
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(SPQEngine, "execute", gated)
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        import time

        blocker = broker.submit(QUERY)
        # EDF would pop the 1ms query first if both sat in the queue.
        while not blocker.running():
            time.sleep(0.001)
        doomed = broker.submit(QUERY, seed=77, deadline_ms=1.0)
        time.sleep(0.05)  # let the 1ms budget drain while queued
        gate.set()
        assert blocker.result(timeout=120) is not None
        with pytest.raises(DeadlineExpiredError, match="expired"):
            doomed.result(timeout=120)
        status = broker.status()
    assert status["failed"] == 1


def test_deadline_request_overtakes_queued_deadline_less_one():
    # With the only slot held by a slow query, a deadline request queued
    # *after* a deadline-less one is dispatched — and so completes —
    # first.
    import time

    import numpy as np

    relation = Relation(
        "items", {"price": np.random.default_rng(0).uniform(1.0, 10.0, 400)}
    )
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        n_validation_scenarios=300_000,
        n_initial_scenarios=50,
        scenario_increment=50,
        max_scenarios=100,
        epsilon=0.9,
        seed=11,
    )
    slow_query = QUERY.replace("<= 3", "<= 5").replace(">= 6", ">= 20")
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        slow = broker.submit(slow_query)
        while not (slow.running() or slow.done()):
            time.sleep(0.001)
        plain = broker.submit(QUERY)
        urgent = broker.submit(QUERY, deadline_ms=60_000)
        finished = []
        plain.add_done_callback(lambda _f: finished.append("plain"))
        urgent.add_done_callback(lambda _f: finished.append("urgent"))
        assert not slow.done(), "the slot was released before both queued"
        for future in (slow, plain, urgent):
            assert future.result(timeout=120).feasible
    assert finished == ["urgent", "plain"]


# --- HTTP round trip -------------------------------------------------------


@pytest.fixture
def service(catalog, config):
    broker = QueryBroker(catalog, config=config, pool_size=2)
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
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=30
    ) as response:
        body = response.read()
        if response.headers.get("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(body)
        return response.status, body.decode()


def test_http_every_response_states_deadline_verdict(service):
    status, body = _post(service, {"query": QUERY})
    assert status == 200
    assert body["deadline_met"] is True
    assert body["gap"] == 0.0


def test_http_ample_deadline_roundtrip(service):
    status, body = _post(service, {"query": QUERY, "deadline_ms": 3_600_000})
    assert status == 200
    assert body["deadline_met"] is True
    assert body["gap"] == 0.0
    assert body["anytime"]["deadline_ms"] is not None
    assert body["anytime"]["elapsed_ms"] > 0


def test_http_expired_deadline_maps_to_504(service):
    request_payload = {"query": QUERY, "deadline_ms": 0}
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(service, request_payload)
    assert excinfo.value.code == 504
    body = json.loads(excinfo.value.read())
    assert body["error"]["kind"] == "deadline-expired"


def _post_raw(service, body: bytes):
    host, port = service.address
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def test_http_bad_deadline_type_maps_to_400(service):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(service, {"query": QUERY, "deadline_ms": "soon"})
    assert excinfo.value.code == 400
    # Python's json module accepts these bare tokens; they are not
    # budgets, and an admitted NaN would reach the response as invalid
    # JSON.
    for token in ("NaN", "Infinity", "-Infinity"):
        body = '{"query": %s, "deadline_ms": %s}' % (json.dumps(QUERY), token)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(service, body.encode())
        assert excinfo.value.code == 400, token
        assert json.loads(excinfo.value.read())["error"]["kind"] == "bad-request"


def test_http_tight_deadline_returns_200_with_incumbent_and_gap():
    """Acceptance: deadline < exact solve time → 200, feasible incumbent,
    finite gap, on a warm engine."""
    from repro.workloads import get_query

    spec = get_query("portfolio", "Q1")
    relation, model = spec.build_dataset(40, seed=7)
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        n_validation_scenarios=1_000,
        n_initial_scenarios=24,
        scenario_increment=24,
        max_scenarios=1_000_000,
        n_expectation_scenarios=400,
        seed=3,
    )
    broker = QueryBroker(catalog, config=config, pool_size=1)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        # Warm the engine/store with a cheap exact run first.
        status, _ = _post(
            svc,
            {"query": spec.spaql, "overrides": {"epsilon": 0.9,
                                                "max_scenarios": 48}},
        )
        assert status == 200
        # An unattainable epsilon forces refinement until the deadline.
        status, body = _post(
            svc,
            {
                "query": spec.spaql,
                "deadline_ms": 1_200,
                "overrides": {"epsilon": 1e-9, "max_quality_rounds": None},
            },
        )
        assert status == 200
        assert body["feasible"] is True  # validator-feasible incumbent
        assert body["deadline_met"] is False
        assert body["gap"] is not None and body["gap"] >= 0.0
        assert body["anytime"]["stages_truncated"] == ["csa"]
        # The verdict lands on the broker's QoS counters too.
        _, metrics = _get(svc, "/metrics")
        lines = metrics.splitlines()
        assert "repro_deadline_missed_total 1" in lines
    finally:
        svc.shutdown()


def test_http_metrics_expose_deadline_families(service):
    _post(service, {"query": QUERY, "deadline_ms": 3_600_000})
    with pytest.raises(urllib.error.HTTPError):
        _post(service, {"query": QUERY, "deadline_ms": -1})
    status, text = _get(service, "/metrics")
    assert status == 200
    metrics = {
        line.split()[0]: line.split()[1]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert int(metrics["repro_deadline_met_total"]) >= 1
    assert int(metrics["repro_deadline_rejected_total"]) == 1
    assert "repro_deadline_missed_total" in metrics
    assert "repro_deadline_expired_total" in metrics
    assert float(metrics["repro_query_gap"]) == 0.0
    # /status mirrors the same counters.
    _, status_body = _get(service, "/status")
    assert status_body["deadline"]["rejected"] == 1
