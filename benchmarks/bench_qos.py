"""QoS benchmark: latency percentiles under a mixed-deadline client mix.

Drives one warm broker with three client cohorts — **tight** budgets
(deadlines well below a cold solve), **loose** budgets (never binding),
and **no deadline** — and records per-cohort p50/p99 end-to-end latency
plus deadline verdicts to ``BENCH_qos.json`` at the repo root.  The
acceptance properties (the latency-SLO tier of docs/qos.md):

* **no cohort crashes** — tight deadlines resolve to an anytime
  incumbent or a clean :class:`DeadlineExpiredError`, never an
  unhandled exception;
* **tight responses respect the budget** — a tight query's wall time is
  bounded by its budget plus a fixed scheduling overhead allowance
  (the anytime path truncates, it does not run to completion);
* **loose/no-deadline answers agree** — an ample budget is a pure
  pass-through (same package, gap 0).

``REPRO_SMOKE=1`` shrinks the cohorts and the workload so CI finishes
in seconds; the recorded schema is identical either way::

    REPRO_SMOKE=1 PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_qos.py
"""

import json
import os
import time

import numpy as np

from repro.service import DeadlineExpiredError, QueryBroker
from repro.workloads import get_query

from conftest import bench_config, cached_catalog, stamp_record

_SMOKE = os.environ.get("REPRO_SMOKE") == "1"

SCALE = 40 if _SMOKE else 120
COHORT_SIZE = 4 if _SMOKE else 12
TIGHT_MS = 150.0
LOOSE_MS = 120_000.0
#: Queueing + dispatch allowance on top of a tight budget before a
#: response counts as an SLO violation (generous: CI machines stall).
SCHED_OVERHEAD_S = 2.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_qos.json")


def _qos_config(**overrides):
    # Epsilon low enough that SummarySearch has real refinement work at
    # this scale (a cold solve takes well over TIGHT_MS, so the tight
    # cohort genuinely truncates mid-solve), while time_limit bounds the
    # loose/no-deadline cohorts so the whole benchmark stays in minutes.
    defaults = dict(
        n_validation_scenarios=1_000,
        n_initial_scenarios=24,
        scenario_increment=24,
        max_scenarios=240,
        n_expectation_scenarios=400,
        epsilon=0.1 if _SMOKE else 0.05,
        time_limit=10.0 if _SMOKE else 30.0,
    )
    defaults.update(overrides)
    return bench_config(**defaults)


def _percentiles(samples: list) -> dict:
    arr = np.asarray(samples, dtype=float)
    return {
        "n": int(arr.size),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1000.0, 2),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1000.0, 2),
        "max_ms": round(float(arr.max()) * 1000.0, 2),
    }


def _drive_cohort(broker, spec, deadline_ms, seeds):
    """Serve one cohort sequentially; returns (latencies, outcomes)."""
    latencies, outcomes = [], []
    for seed in seeds:
        overrides = {"seed": int(seed)}
        if deadline_ms is not None:
            overrides["deadline_ms"] = deadline_ms
        started = time.perf_counter()
        try:
            result = broker.execute(spec.spaql, **overrides)
        except DeadlineExpiredError:
            latencies.append(time.perf_counter() - started)
            outcomes.append("expired")
            continue
        latencies.append(time.perf_counter() - started)
        anytime = result.anytime
        assert anytime is not None, "result missing the anytime envelope"
        outcomes.append("met" if anytime.deadline_met else "missed")
        if not anytime.deadline_met:
            assert anytime.gap is None or anytime.gap >= 0.0
    return latencies, outcomes


def test_mixed_deadline_latency_percentiles(benchmark):
    spec = get_query("portfolio", "Q1")
    catalog = cached_catalog("portfolio", "Q1", scale=SCALE)
    config = _qos_config()

    record: dict = {}

    def run_cohorts():
        with QueryBroker(catalog, config=config, pool_size=2) as broker:
            # Warm-up: pay the first realization outside the measurement.
            broker.execute(spec.spaql, seed=1, epsilon=0.9, max_scenarios=48)
            cohorts = {
                "tight": (TIGHT_MS, range(100, 100 + COHORT_SIZE)),
                "loose": (LOOSE_MS, range(200, 200 + COHORT_SIZE)),
                "none": (None, range(300, 300 + COHORT_SIZE)),
            }
            for name, (deadline_ms, seeds) in cohorts.items():
                latencies, outcomes = _drive_cohort(
                    broker, spec, deadline_ms, seeds
                )
                record[name] = {
                    "deadline_ms": deadline_ms,
                    **_percentiles(latencies),
                    "outcomes": {
                        verdict: outcomes.count(verdict)
                        for verdict in ("met", "missed", "expired")
                    },
                }
            record["broker_deadline_counters"] = broker.status()["deadline"]
            # Per-stage wall seconds over the whole mixed run (sum across
            # histogram buckets) — the breakdown bench_compare.py uses to
            # attribute a latency regression to a stage.
            record["stage_seconds"] = {
                name: round(hist.get("sum", 0.0), 6)
                for name, hist in sorted(broker.metrics()["histograms"].items())
            }
        return record

    benchmark.pedantic(run_cohorts, rounds=1, iterations=1)

    # Tight responses must respect budget + overhead: anytime truncation,
    # not run-to-completion.
    tight = record["tight"]
    assert tight["max_ms"] <= TIGHT_MS + SCHED_OVERHEAD_S * 1000.0, tight
    # Every tight query resolved cleanly (a verdict, never a crash).
    assert sum(tight["outcomes"].values()) == COHORT_SIZE
    # Ample budgets never miss.
    assert record["loose"]["outcomes"]["missed"] == 0
    assert record["loose"]["outcomes"]["expired"] == 0
    assert record["none"]["outcomes"] == {
        "met": COHORT_SIZE, "missed": 0, "expired": 0,
    }

    record["workload"] = "portfolio/Q1"
    record["scale"] = SCALE
    record["cohort_size"] = COHORT_SIZE
    record["smoke"] = _SMOKE
    try:
        with open(BENCH_RESULTS_PATH) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    if not isinstance(data, dict) or "benchmarks" not in data:
        data = {"benchmarks": {}}
    data["benchmarks"]["mixed_deadline_percentiles"] = stamp_record(record)
    with open(BENCH_RESULTS_PATH, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    benchmark.extra_info.update(
        {name: record[name] for name in ("tight", "loose", "none")}
    )


def test_ample_deadline_package_matches_no_deadline():
    """Loose-budget and deadline-free runs return the identical package."""
    spec = get_query("portfolio", "Q1")
    catalog = cached_catalog("portfolio", "Q1", scale=SCALE)
    config = _qos_config(max_scenarios=96, epsilon=0.5)
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        bare = broker.execute(spec.spaql, seed=7)
        budgeted = broker.execute(
            spec.spaql, seed=7, deadline_ms=LOOSE_MS
        )
    assert budgeted.anytime.deadline_met
    assert budgeted.anytime.gap == 0.0
    assert budgeted.objective == bare.objective
    if bare.package is not None:
        assert np.array_equal(
            bare.package.multiplicities, budgeted.package.multiplicities
        )
