"""Observability for the query pipeline (``repro.obs``).

Five cooperating pieces, all dependency-free and cheap when unused:

* :mod:`repro.obs.trace` — lightweight trace spans recorded through
  ``with stage("solve"):`` context managers woven through the engine,
  the scale driver, and the serving layer; a bounded
  :class:`~repro.obs.trace.TraceRing` keeps recent span trees for
  ``GET /trace/<id>``.
* :mod:`repro.obs.metrics` — the shared :class:`LockedCounters`
  atomic-increment helper, per-stage latency histograms exported on
  ``/metrics`` as ``repro_stage_seconds_bucket{stage=...}``, and the one
  snapshot (``collect``) behind ``/status`` and ``/metrics``.
* :mod:`repro.obs.profile` — per-stage self-time aggregation over one
  span tree plus the waterfall / top-N renderers behind the
  ``repro trace`` CLI.
* :mod:`repro.obs.events` — trace-scoped convergence event streams
  (root-LP reduction verdicts, CSA ε-trajectory, refine outcomes)
  rendered by ``repro trace --convergence``.
* :mod:`repro.obs.resources` — per-query resource accounting (CPU,
  peak-RSS delta, scenario bytes, LP solves, chunk-cache hit ratio)
  attached to root spans and ``AnytimeResult`` envelopes and exported
  as ``repro_resource_*`` metric families.

Trace context crosses the broker's pool boundary as
``(trace_id, parent_span_id)``: the slot thread records the
evaluation's spans under that parent and hands them back with the
result.
"""

from .events import (
    KIND_CSA_ROUND,
    KIND_REFINE_OUTCOME,
    KIND_SOLVER_REDUCE,
    emit,
    epsilon_events,
    events_enabled,
    format_convergence,
    reduce_events,
    refine_events,
)
from .metrics import (
    DEFAULT_BUCKETS,
    FAMILIES,
    LockedCounters,
    StageHistograms,
    collect,
    histogram_exposition,
    stage_histograms,
    status_sections,
)
from .profile import (
    aggregate_self_times,
    format_top_table,
    format_waterfall,
    trace_document,
)
from .resources import (
    QueryResourceProbe,
    bill,
    charge,
    resource_counters,
)
from .slowlog import SlowQueryLog
from .trace import (
    TraceRing,
    TraceSession,
    activate,
    current_session,
    fork_session,
    new_span_id,
    new_trace_id,
    span_tree,
    stage,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "FAMILIES",
    "KIND_CSA_ROUND",
    "KIND_REFINE_OUTCOME",
    "KIND_SOLVER_REDUCE",
    "LockedCounters",
    "QueryResourceProbe",
    "SlowQueryLog",
    "StageHistograms",
    "TraceRing",
    "TraceSession",
    "activate",
    "aggregate_self_times",
    "bill",
    "charge",
    "collect",
    "current_session",
    "emit",
    "epsilon_events",
    "fork_session",
    "events_enabled",
    "format_convergence",
    "format_top_table",
    "format_waterfall",
    "histogram_exposition",
    "new_span_id",
    "new_trace_id",
    "reduce_events",
    "refine_events",
    "resource_counters",
    "span_tree",
    "stage",
    "stage_histograms",
    "status_sections",
    "trace_document",
]
