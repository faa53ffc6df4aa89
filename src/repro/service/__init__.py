"""repro.service — concurrent package-query serving layer.

Three tiers (see each module's docstring):

* :class:`ScenarioStore` — shared, content-keyed, budget-bounded cache
  of realized scenario matrices with LRU spill-to-memmap;
* :class:`QueryBroker` — admission control, in-flight deduplication
  and one EDF queue, popped by pool slot threads that run each request
  on an in-process engine;
* :class:`SPQService` — stdlib JSON-over-HTTP front-end
  (``POST /query``, ``GET /status``, ``GET /metrics``), exposed as the
  ``repro serve`` CLI subcommand.

Per-query QoS (``deadline_ms`` admission, earliest-deadline-first
scheduling, anytime truncation) lives in :mod:`repro.service.qos`; see
``docs/qos.md`` for the end-to-end contract.
"""

from .broker import BrokerClosedError, BrokerSaturatedError, QueryBroker
from .http import SPQService
from .qos import DeadlineExpiredError, EDFQueue, TaskDeadline
from .store import (
    ScenarioStore,
    StoreStats,
    model_fingerprint,
    relation_fingerprint,
    store_key,
)

__all__ = [
    "BrokerClosedError",
    "BrokerSaturatedError",
    "DeadlineExpiredError",
    "EDFQueue",
    "QueryBroker",
    "SPQService",
    "ScenarioStore",
    "StoreStats",
    "TaskDeadline",
    "model_fingerprint",
    "relation_fingerprint",
    "store_key",
]
