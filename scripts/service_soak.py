#!/usr/bin/env python
"""Soak smoke: boot ``repro serve``, fire 32 mixed clients.

Boots the HTTP serving layer over the portfolio workload, then drives
**32 concurrent clients** with a mixed load — repeated identical
queries (store/dedup path), distinct seeds (parallel solves), a parse
error (400 path), status/metrics polls, and a mixed-deadline cohort
(tight 5ms / loose 60s budgets, exercising the QoS admission + EDF +
anytime path of docs/qos.md) —
and asserts:

* every response lands in its expected status class
  (200 / 400 / 503 / 504);
* every 200 query response states its ``deadline_met`` verdict and
  ``gap`` (the anytime contract), and loose-deadline responses always
  met their budget;
* at least one solve succeeded per distinct-seed client group;
* a ``"trace": true`` query returns its span tree inline and via
  ``GET /trace/<id>``, with the evaluation's stages parented under the
  broker's root span;
* the ``repro_stage_seconds`` histogram's ``stage="query"`` count
  equals the number of completed queries;
* a **mutator cohort** POSTs ``/update`` deltas concurrently with the
  query cohorts (docs/live_data.md): no crashes, every applied delta is
  counted in ``repro_delta_applied_total``, and no query ever answers
  against a catalog version older than the one it was submitted after
  (the stale-fingerprint check);
* the server shuts down cleanly.

Budgeted well under the CI job's 2-minute window.  Also runnable
locally::

    PYTHONPATH=src python scripts/service_soak.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

N_CLIENTS = 32
DEADLINE_S = 110.0  # stay inside the CI job's 2-minute budget

SERVE_ARGS = [
    sys.executable, "-m", "repro", "serve",
    "--workload", "portfolio:Q1",
    "--scale", "40",
    "--port", "0",
    "--pool-size", "2",
    "--max-pending", "64",
    "--validation-scenarios", "800",
    "--initial-scenarios", "16",
    "--max-scenarios", "48",
    "--epsilon", "0.9",
]

QUERY = (
    "SELECT PACKAGE(*) FROM stock_investments SUCH THAT\n"
    "    SUM(price) <= 1000 AND\n"
    "    SUM(Gain) >= -10.0 WITH PROBABILITY >= 0.9\n"
    "MAXIMIZE EXPECTED SUM(Gain)"
)


def wait_for_listen_line(process, timeout: float = 90.0) -> str:
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit("server exited before announcing its address")
        sys.stdout.write(line)
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return match.group(1)
    raise SystemExit("timed out waiting for the server to start")


def post_query(
    base: str, payload: dict, timeout: float = 120.0, path: str = "/query"
):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(base: str, path: str, timeout: float = 30.0) -> tuple[int, str]:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return response.status, response.read().decode()


def iter_spans(node):
    """Depth-first iteration over a span-tree node and its children."""
    yield node
    for child in node.get("children", ()):
        yield from iter_spans(child)


def _assert_anytime_contract(body: dict) -> None:
    """Every 200 query response states deadline_met and gap (docs/qos.md)."""
    assert "deadline_met" in body and "gap" in body, body
    assert isinstance(body["deadline_met"], bool), body


def client(base: str, client_id: int, outcomes: list, lock: threading.Lock):
    """One of the 32 concurrent clients; records (client_id, kind, code)."""
    kind = (
        "repeat", "seeded", "tight", "status",
        "loose", "bad", "mutator", "versioned",
    )[client_id % 8]
    try:
        if kind == "repeat":
            code, body = post_query(base, {"query": QUERY})
            expect = {200, 503}
            if code == 200:
                _assert_anytime_contract(body)
        elif kind == "seeded":
            code, body = post_query(
                base, {"query": QUERY, "overrides": {"seed": client_id}}
            )
            expect = {200, 503}
            if code == 200:
                _assert_anytime_contract(body)
        elif kind == "tight":
            # 5ms budget: either an anytime incumbent made it (200, met
            # or missed), the queue drained the budget first (504), or
            # admission was saturated (503) — never a crash or a hang.
            code, body = post_query(
                base,
                {
                    "query": QUERY,
                    "deadline_ms": 5,
                    "overrides": {"seed": 1_000 + client_id},
                },
            )
            expect = {200, 503, 504}
            if code == 200:
                _assert_anytime_contract(body)
            elif code == 504:
                assert body["error"]["kind"] == "deadline-expired", body
        elif kind == "loose":
            # 60s budget: comfortably met at this scale.
            code, body = post_query(
                base,
                {
                    "query": QUERY,
                    "deadline_ms": 60_000,
                    "overrides": {"seed": 2_000 + client_id},
                },
            )
            expect = {200, 503}
            if code == 200:
                _assert_anytime_contract(body)
                assert body["deadline_met"] is True, body
        elif kind == "status":
            code, _ = get(base, "/status" if client_id % 16 == 3 else "/metrics")
            expect = {200}
        elif kind == "mutator":
            # A live price tick racing the query cohorts.  200 (applied)
            # or 503 (broker closing) — never a crash, never a 500.
            code, body = post_query(
                base,
                {
                    "table": "stock_investments",
                    "delta": {
                        "updates": [
                            [client_id, {"price": 20.0 + client_id}]
                        ]
                    },
                },
                path="/update",
            )
            expect = {200, 503}
            if code == 200:
                assert body["status"] == "ok", body
                assert body["dirty_rows"] == 1, body
        elif kind == "versioned":
            # Stale-fingerprint check: an answer must never be labeled
            # with a catalog version older than one observed *before*
            # the query was submitted.
            _, status_text = get(base, "/status")
            version_before = json.loads(status_text)["catalog_version"]
            code, body = post_query(
                base, {"query": QUERY, "overrides": {"seed": 3_000 + client_id}}
            )
            expect = {200, 503}
            if code == 200:
                _assert_anytime_contract(body)
                assert body["catalog_version"] >= version_before, (
                    body["catalog_version"], version_before,
                )
        else:
            code, body = post_query(base, {"query": "SELEC nonsense"})
            expect = {400}
            assert body["error"]["kind"] == "parse", body
    except Exception as error:  # timeout/URLError: record, don't die silently
        with lock:
            outcomes.append(
                (client_id, kind, f"{type(error).__name__}: {error}", False)
            )
        return
    with lock:
        outcomes.append((client_id, kind, code, code in expect))


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    started = time.time()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        SERVE_ARGS,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        base = wait_for_listen_line(process)
        # Warm the pool (first realization done) so the 32-way burst
        # measures serving, not startup.  Traced, so the warm-up doubles
        # as the span-tree check.
        code, first = post_query(base, {"query": QUERY, "trace": True})
        assert code == 200 and first["feasible"], (code, first)
        trace_id = first.get("trace_id")
        assert trace_id, "traced query response missing trace_id"
        root = (first.get("trace") or {}).get("root")
        assert root and root["name"] == "query", first.get("trace")
        stages = {s["name"] for s in iter_spans(root)}
        assert {"query", "execute", "solve"} <= stages, stages
        code, body = get(base, f"/trace/{trace_id}")
        assert code == 200 and json.loads(body)["trace_id"] == trace_id

        outcomes: list = []
        lock = threading.Lock()
        threads = [
            threading.Thread(target=client, args=(base, i, outcomes, lock))
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(5.0, DEADLINE_S - (time.time() - started)))
            assert not thread.is_alive(), "client wedged past the deadline"

        assert len(outcomes) == N_CLIENTS
        bad = [o for o in outcomes if not o[3]]
        assert not bad, f"unexpected status codes: {bad}"
        solved = [
            o
            for o in outcomes
            if o[1] in ("repeat", "seeded", "tight", "loose", "versioned")
            and o[2] == 200
        ]
        assert solved, "no concurrent query was served"
        loose_ok = [o for o in outcomes if o[1] == "loose" and o[2] == 200]
        assert loose_ok, "no loose-deadline query was served"

        _, metrics = get(base, "/metrics")
        completed = re.search(r"^repro_broker_completed_total (\d+)$", metrics, re.M)
        dedup = re.search(r"^repro_broker_deduplicated_total (\d+)$", metrics, re.M)
        # Identical in-flight requests share one evaluation, so solves
        # served can exceed evaluations completed by the dedup count.
        assert completed and dedup
        assert int(completed.group(1)) + int(dedup.group(1)) >= len(solved)
        # Every served query was traced: the stage="query" histogram
        # count on /metrics must equal completed + failed (the parse
        # errors retire as failures but are still traced evaluations).
        # The observation happens in the future's done-callback, which
        # can trail the client's result() by a beat — poll briefly.
        def served_counts(text):
            hist = re.search(
                r'^repro_stage_seconds_count\{stage="query"\} (\d+)$',
                text, re.M,
            )
            done = re.search(r"^repro_broker_completed_total (\d+)$",
                             text, re.M)
            failed = re.search(r"^repro_broker_failed_total (\d+)$",
                               text, re.M)
            assert hist and done and failed, (
                "metrics missing the query histogram or broker counters"
            )
            return int(hist.group(1)), int(done.group(1)) + int(failed.group(1))

        for _ in range(50):
            hist_queries, retired = served_counts(metrics)
            if hist_queries == retired:
                break
            time.sleep(0.1)
            _, metrics = get(base, "/metrics")
        assert hist_queries == retired, (hist_queries, retired)

        # The QoS metric families are exposed and consistent with the
        # deadline cohort: every finished deadline carry got a verdict.
        for family in (
            "repro_deadline_met_total",
            "repro_deadline_missed_total",
            "repro_deadline_rejected_total",
            "repro_deadline_expired_total",
            "repro_query_gap",
        ):
            assert re.search(rf"^{family} ", metrics, re.M), (
                f"metrics missing {family}"
            )
        met = int(re.search(r"^repro_deadline_met_total (\d+)$",
                            metrics, re.M).group(1))
        assert met >= len(loose_ok), (met, len(loose_ok))

        # Every applied delta is accounted for, and the pool survived
        # concurrent mutation.
        applied = [o for o in outcomes if o[1] == "mutator" and o[2] == 200]
        assert applied, "no mutator update was applied"
        delta_total = re.search(r"^repro_delta_applied_total (\d+)$",
                                metrics, re.M)
        assert delta_total and int(delta_total.group(1)) == len(applied), (
            delta_total and delta_total.group(1), len(applied),
        )

        _, status_text = get(base, "/status")
        status = json.loads(status_text)
        assert status["deadline"]["met"] >= len(loose_ok)
        assert status["deltas_applied"] == len(applied)
        assert status["catalog_version"] >= len(applied)

        print(f"service soak: OK — {len(solved)} solves, "
              f"{len(outcomes)} clients, "
              f"{time.time() - started:.1f}s total")
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
