"""Strict Prometheus text-format validation of ``GET /metrics``.

Every series must belong to a family declared with ``# HELP`` and
``# TYPE``; counters must end in ``_total``; histogram families must be
internally consistent (cumulative buckets through ``+Inf`` equal to
``_count``); and no sample may repeat.
"""

from __future__ import annotations

import json
import re
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

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
HELP_RE = re.compile(rf"^# HELP ({_NAME}) (.+)$")
TYPE_RE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|histogram)$")
SAMPLE_RE = re.compile(
    rf"^({_NAME})(\{{[^}}]*\}})? (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$"
)
#: Histogram sample suffixes that roll up to the family name.
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


@contextmanager
def _served():
    """Serve one query; yield ``(/metrics text, /status doc)``."""
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
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
        host, port = svc.address
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=json.dumps({"query": QUERY}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            assert response.status == 200
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=60
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        with urllib.request.urlopen(
            f"http://{host}:{port}/status", timeout=60
        ) as response:
            status = json.loads(response.read())
        yield text, status
    finally:
        svc.shutdown()


def _family_of(sample_name: str, histogram_families: set) -> str:
    for suffix in HIST_SUFFIXES:
        base = sample_name[: -len(suffix)]
        if sample_name.endswith(suffix) and base in histogram_families:
            return base
    return sample_name


def _parse(text: str):
    """Parse exposition text into (helps, types, samples), validating
    line syntax and declaration-before-samples ordering."""
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: list[tuple[str, str, str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP"):
            match = HELP_RE.match(line)
            assert match, f"malformed HELP line: {line!r}"
            name = match.group(1)
            assert name not in helps, f"duplicate HELP for {name}"
            helps[name] = match.group(2)
        elif line.startswith("# TYPE"):
            match = TYPE_RE.match(line)
            assert match, f"malformed TYPE line: {line!r}"
            name = match.group(1)
            assert name not in types, f"duplicate TYPE for {name}"
            assert name in helps, f"TYPE before HELP for {name}"
            types[name] = match.group(2)
        elif line.startswith("#"):
            raise AssertionError(f"unexpected comment line: {line!r}")
        else:
            match = SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            samples.append((match.group(1), match.group(2) or "", match.group(3)))
    return helps, types, samples


def test_metrics_exposition_is_strictly_valid():
    with _served() as (text, _):
        helps, types, samples = _parse(text)

    assert helps.keys() == types.keys()
    histogram_families = {n for n, t in types.items() if t == "histogram"}

    seen = set()
    sampled_families = set()
    for name, labels, _ in samples:
        family = _family_of(name, histogram_families)
        assert family in types, f"sample {name} has no HELP/TYPE declaration"
        sampled_families.add(family)
        key = (name, labels)
        assert key not in seen, f"duplicate sample {name}{labels}"
        seen.add(key)
        kind = types[family]
        if kind == "counter":
            assert name == family and family.endswith("_total"), (
                f"counter {name} must end in _total"
            )
        elif kind == "histogram":
            assert name != family, (
                f"histogram family {family} sampled without a suffix"
            )
        else:
            assert name == family

    # Every declared family has at least one sample, and vice versa.
    assert sampled_families == set(types), (
        set(types) - sampled_families, sampled_families - set(types)
    )

    # The families this PR is about are present with the right types.
    assert types["repro_stage_seconds"] == "histogram"
    assert types["repro_broker_completed_total"] == "counter"
    assert types["repro_scale_partitions_total"] == "counter"
    assert types["repro_scale_sketch_seconds_total"] == "counter"
    assert types["repro_scale_refine_seconds_total"] == "counter"
    assert types["repro_store_bytes_resident"] == "gauge"
    # Resource accounting and scenario-byte families.
    assert types["repro_resource_queries_total"] == "counter"
    assert types["repro_resource_cpu_seconds_total"] == "counter"
    assert types["repro_resource_lp_solves_total"] == "counter"
    assert types["repro_store_bytes_realized_total"] == "counter"
    assert types["repro_store_bytes_reused_total"] == "counter"
    assert types["repro_scale_chunk_hits_total"] == "counter"
    assert types["repro_scale_chunk_misses_total"] == "counter"

    # The standard build-info gauge: constant 1 with identity labels.
    assert types["repro_build_info"] == "gauge"
    build_samples = [s for s in samples if s[0] == "repro_build_info"]
    assert len(build_samples) == 1
    _, labels, value = build_samples[0]
    assert float(value) == 1.0
    assert 'version="' in labels and 'python="' in labels, labels

    # A completed query must have been accounted: the resource counters
    # are live.
    by_name = {s[0]: s[2] for s in samples}
    assert float(by_name["repro_resource_queries_total"]) >= 1
    assert float(by_name["repro_resource_cpu_seconds_total"]) > 0.0


def test_histograms_are_cumulative_and_consistent():
    with _served() as (text, _):
        _, types, samples = _parse(text)
    histogram_families = {n for n, t in types.items() if t == "histogram"}
    assert histogram_families

    buckets: dict[tuple, list] = {}
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    for name, labels, value in samples:
        family = _family_of(name, histogram_families)
        if family not in histogram_families:
            continue
        series = re.sub(r'le="[^"]*",?', "", labels).strip("{,}")
        key = (family, series)
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels).group(1)
            buckets.setdefault(key, []).append((le, int(value)))
        elif name.endswith("_sum"):
            sums[key] = float(value)
        elif name.endswith("_count"):
            counts[key] = int(value)

    assert buckets and buckets.keys() == sums.keys() == counts.keys()
    for key, series_buckets in buckets.items():
        les = [le for le, _ in series_buckets]
        assert les[-1] == "+Inf", f"{key} buckets must end at +Inf"
        bounds = [float(le) for le in les[:-1]]
        assert bounds == sorted(bounds), f"{key} bounds not increasing"
        values = [count for _, count in series_buckets]
        assert values == sorted(values), f"{key} buckets not cumulative"
        assert values[-1] == counts[key], f"{key} +Inf bucket != _count"
        assert sums[key] >= 0.0


#: Every ``(family, type)`` pair ``GET /metrics`` exposes.  A dropped,
#: renamed or re-typed family fails the golden test.
FAMILIES = {
    ("repro_build_info", "gauge"),
    ("repro_store_hits_total", "counter"),
    ("repro_store_misses_total", "counter"),
    ("repro_store_generations_total", "counter"),
    ("repro_store_generated_columns_total", "counter"),
    ("repro_store_evictions_total", "counter"),
    ("repro_store_spills_total", "counter"),
    ("repro_store_bytes_realized_total", "counter"),
    ("repro_store_bytes_reused_total", "counter"),
    ("repro_store_bytes_resident", "gauge"),
    ("repro_store_bytes_spilled", "gauge"),
    ("repro_store_entries", "gauge"),
    ("repro_store_stale_dropped_total", "counter"),
    ("repro_scale_runs_total", "counter"),
    ("repro_scale_partitions_total", "counter"),
    ("repro_scale_refines_total", "counter"),
    ("repro_scale_sketch_seconds_total", "counter"),
    ("repro_scale_refine_seconds_total", "counter"),
    ("repro_scale_index_hits_total", "counter"),
    ("repro_scale_index_misses_total", "counter"),
    ("repro_scale_chunk_hits_total", "counter"),
    ("repro_scale_chunk_misses_total", "counter"),
    ("repro_scale_resident_bytes", "gauge"),
    ("repro_scale_resident_peak_bytes", "gauge"),
    ("repro_resource_queries_total", "counter"),
    ("repro_resource_cpu_seconds_total", "counter"),
    ("repro_resource_lp_solves_total", "counter"),
    ("repro_delta_applied_total", "counter"),
    ("repro_delta_rows_dirty_total", "counter"),
    ("repro_delta_partitions_dirty_total", "counter"),
    ("repro_delta_partitions_reused_total", "counter"),
    ("repro_delta_index_refreshes_total", "counter"),
    ("repro_delta_repair_fallbacks_total", "counter"),
    ("repro_broker_submitted_total", "counter"),
    ("repro_broker_completed_total", "counter"),
    ("repro_broker_failed_total", "counter"),
    ("repro_broker_deduplicated_total", "counter"),
    ("repro_broker_rejected_total", "counter"),
    ("repro_deadline_met_total", "counter"),
    ("repro_deadline_missed_total", "counter"),
    ("repro_deadline_rejected_total", "counter"),
    ("repro_deadline_expired_total", "counter"),
    ("repro_query_gap", "gauge"),
    ("repro_broker_pending", "gauge"),
    ("repro_broker_pool_size", "gauge"),
    ("repro_service_uptime_seconds", "gauge"),
    ("repro_stage_seconds", "histogram"),
}

#: Key sets of the nested ``GET /status`` sections.
STATUS_SECTIONS = {
    "store": [
        "hits", "misses", "generations", "generated_columns", "evictions",
        "spills", "stale_dropped", "bytes_resident",
        "bytes_spilled", "entries", "bytes_realized", "bytes_reused",
    ],
    "scale": [
        "runs", "partitions", "refines", "sketch_seconds", "refine_seconds",
        "index_hits", "index_misses", "chunk_hits", "chunk_misses",
        "deltas_applied", "delta_rows_dirty", "delta_partitions_dirty",
        "delta_partitions_reused", "delta_index_refreshes",
        "delta_repair_fallbacks", "resident_bytes", "resident_peak_bytes",
    ],
    "resources": ["queries_accounted", "query_cpu_seconds", "lp_solves"],
    "deadline": ["met", "missed", "rejected", "expired_queued", "last_gap"],
}


def test_metrics_and_status_surface_is_pinned():
    with _served() as (text, status):
        _, types, _ = _parse(text)
    assert set(types.items()) == FAMILIES, (
        set(types.items()) - FAMILIES, FAMILIES - set(types.items())
    )
    for section, keys in STATUS_SECTIONS.items():
        assert set(status[section]) == set(keys), section
