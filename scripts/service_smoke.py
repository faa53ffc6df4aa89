#!/usr/bin/env python
"""Service smoke check: boot ``repro serve``, query it twice, assert a hit.

Starts the HTTP serving layer as a subprocess over the portfolio
workload, posts the same Table-3 Q1 query twice, and asserts the second
request is served from the scenario store (hit counter moved, generation
counter did not) and replays its search from the store's memo: the same
multiplicities and objective, every solve span of its traced tree
marked ``memo=true``, and no ``summaries`` or ``milp.build`` span in it
(each CSA round is replayed whole).  Used by the CI ``service-smoke``
job; also runnable locally::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

SERVE_ARGS = [
    sys.executable, "-m", "repro", "serve",
    "--workload", "portfolio:Q1",
    "--scale", "60",
    "--port", "0",
    "--pool-size", "2",
    "--validation-scenarios", "1000",
    "--initial-scenarios", "20",
    "--max-scenarios", "60",
    "--epsilon", "0.9",
]


def wait_for_listen_line(process, timeout: float = 60.0) -> str:
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


def wait_for_status(base: str, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(f"{base}/status", timeout=5) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise SystemExit("server never became healthy")


def post_query(base: str, query: str, trace: bool = False) -> dict:
    request = urllib.request.Request(
        f"{base}/query",
        data=json.dumps({"query": query, "trace": trace}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


def iter_spans(node):
    """Depth-first walk of a trace document's span tree."""
    yield node
    for child in node.get("children", ()):
        yield from iter_spans(child)


def main() -> int:
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
        wait_for_status(base)
        query = (
            "SELECT PACKAGE(*) FROM stock_investments SUCH THAT\n"
            "    SUM(price) <= 1000 AND\n"
            "    SUM(Gain) >= -10.0 WITH PROBABILITY >= 0.9\n"
            "MAXIMIZE EXPECTED SUM(Gain)"
        )
        first = post_query(base, query)
        second = post_query(base, query, trace=True)
        print(f"first:  feasible={first['feasible']}"
              f" wall={first['wall_time_s']:.3f}s store={first['store']}")
        print(f"second: feasible={second['feasible']}"
              f" wall={second['wall_time_s']:.3f}s store={second['store']}")

        assert first["feasible"], "portfolio Q1 should be feasible"
        # The acceptance check: the second identical request is a cache
        # hit — hits moved, generations did not.
        assert (
            second["store"]["generations"] == first["store"]["generations"]
        ), "second request regenerated scenarios"
        assert second["store"]["hits"] > first["store"]["hits"], (
            "second request did not hit the scenario store"
        )
        assert second["objective"] == first["objective"]
        assert (
            second["package"]["multiplicities"]
            == first["package"]["multiplicities"]
        ), "the repeated query returned a different package"
        # ... and it re-ran nothing: every solve was a memo replay.
        solves = [
            span for span in iter_spans(second["trace"]["root"])
            if span["name"] in ("solve", "solve.q0")
        ]
        assert solves, "traced repeat has no solve spans"
        unserved = [s["name"] for s in solves if not s["attrs"].get("memo")]
        assert not unserved, f"repeat re-solved {len(unserved)} models"
        # Each CSA round is replayed whole: no summaries, no model built.
        rebuilt = [
            span["name"] for span in iter_spans(second["trace"]["root"])
            if span["name"] in ("summaries", "milp.build")
        ]
        assert not rebuilt, f"repeat rebuilt {len(rebuilt)} summaries/models"
        print(f"second: {len(solves)} solves, all from the store's memo,"
              " no summaries or models rebuilt")

        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            metrics = response.read().decode()
        hits = re.search(r"^repro_store_hits_total (\d+)$", metrics, re.M)
        assert hits and int(hits.group(1)) > 0, "metrics missing store hits"
        print("service smoke: OK")
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
