"""Acceptance: a deadline-truncated solve returns the solver's own anytime
certificate, and its trace carries the solve's events and LP bill
through the service.

The workload is a strongly correlated multi-dimensional 0/1 knapsack
(800 items, 5 capacity rows) whose gain tracks the mean weight to within
0.05, so the LP bound never separates from good incumbents.  Measured on
a 2-CPU box, HiGHS has not closed the gap after 20 s, so the solve
reliably stops on the 800 ms deadline and returns the anytime incumbent
with HiGHS's gap and dual bound.  At 800 columns the solve goes through
the root-LP reduction, whose ``solver.reduce`` event rides the trace
session from the broker's slot and surfaces on ``GET /trace/<id>``.
"""

from __future__ import annotations

import json
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.core.anytime import relative_gap
from repro.service import QueryBroker, SPQService
from repro.solver import STATUS_FEASIBLE
from repro.solver.model import MILPBuilder

N_ITEMS = 800
N_ROWS = 5
DEADLINE_MS = 800.0


def _knapsack_catalog() -> tuple[Catalog, np.ndarray]:
    rng = np.random.default_rng(5)
    columns = {
        f"w{r}": rng.integers(5, 50, size=N_ITEMS).astype(float)
        for r in range(N_ROWS)
    }
    weights = np.column_stack(list(columns.values()))
    columns["gain"] = weights.mean(axis=1) + rng.uniform(0.0, 0.05, size=N_ITEMS)
    catalog = Catalog()
    catalog.register(Relation("inv", columns))
    return catalog, weights.sum(axis=0) / 2


def _query(capacities) -> str:
    rows = " AND ".join(
        f"SUM(w{r}) <= {cap:.1f}" for r, cap in enumerate(capacities)
    )
    return (
        f"SELECT PACKAGE(*) FROM inv REPEAT 0 SUCH THAT {rows}"
        " MAXIMIZE SUM(gain)"
    )


@contextmanager
def _service():
    catalog, capacities = _knapsack_catalog()
    config = SPQConfig(seed=11)
    broker = QueryBroker(catalog, config=config, pool_size=1)
    svc = SPQService(broker, port=0, own_broker=True).start_background()
    try:
        yield svc, capacities
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


def _get_json(service, path: str):
    host, port = service.address
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=60
    ) as response:
        return response.status, json.loads(response.read())


def test_truncated_solve_envelope_is_the_solvers_certificate(monkeypatch):
    solves = []
    solve = MILPBuilder.solve

    def recording(builder, *args, **kwargs):
        solves.append(solve(builder, *args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(MILPBuilder, "solve", recording)
    catalog, capacities = _knapsack_catalog()
    engine = SPQEngine(
        catalog=catalog, config=SPQConfig(seed=11, deadline_ms=DEADLINE_MS)
    )
    result = engine.execute(_query(capacities))
    (solved,) = solves
    assert solved.status == STATUS_FEASIBLE
    envelope = result.anytime
    assert envelope.deadline_met is False
    assert envelope.stages_truncated == ("solve",)
    # Carried bit-for-bit through meta["solver_gap"] into finalize_anytime.
    assert envelope.gap == solved.gap
    assert envelope.gap > 0.0
    assert envelope.best_bound == solved.meta["best_bound"]


def test_truncated_solve_trace_matches_envelope():
    with _service() as (service, capacities):
        # Warm-up: pay compile outside the timed query (zero capacities
        # solve at the root).
        status, _ = _post(service, {"query": _query(np.zeros(N_ROWS))})
        assert status == 200

        status, body = _post(
            service, {"query": _query(capacities), "deadline_ms": DEADLINE_MS}
        )
        assert status == 200
        # The deadline truncated the solve mid-search: an anytime
        # incumbent with a certified gap, not a bare timeout.
        assert body["deadline_met"] is False
        assert body["feasible"] is True
        anytime = body["anytime"]
        assert anytime["stages_truncated"] == ["solve"]
        assert body["gap"] is not None and body["gap"] > 0.0
        # The gap is the incumbent's relative distance to the solver's
        # dual bound, which bounds the maximized objective from above.
        assert anytime["best_bound"] >= anytime["incumbent_objective"]
        assert body["gap"] == pytest.approx(
            relative_gap(anytime["incumbent_objective"], anytime["best_bound"]),
            rel=1e-9,
        )

        status, tree = _get_json(service, f"/trace/{body['trace_id']}")
        assert status == 200
        reductions = [
            e for e in tree["events"] if e["kind"] == "solver.reduce"
        ]
        assert len(reductions) == 1, tree["events"]
        assert reductions[0]["cols"] == N_ITEMS
        assert reductions[0]["verdict"] in ("reduced", "full")

        # Resource accounting rode the same payload: the root LP and the
        # MILP HiGHS ran after it are charged to the query's trace.
        assert tree["resources"]["lp_solves"] >= 2
