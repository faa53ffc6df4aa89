"""The scenario cache's fill loop, and the library's worker context.

:class:`ParallelScenarioExecutor` realizes the one loop ``ScenarioCache``
runs to fill its new columns.  Scenario ``j`` is drawn from its own
``(seed, stream, substream, attr, j)`` key, so column ``j`` is the same
array whichever call computes it, and filling ``[0, k)`` then ``[k, M)``
equals filling ``[0, M)`` bit for bit.  The loop runs in the caller's
process: at the few hundred optimisation scenarios a query realizes,
forking a worker pool never paid for itself.

:func:`refine_context` is the multiprocessing context of the scale
driver's refine pool, the library's one worker-process pool.
"""

from __future__ import annotations

import multiprocessing

import numpy as np


def refine_context():
    """The multiprocessing context for the scale driver's refine workers.

    The driver runs inside multithreaded processes (broker slot threads,
    HTTP handlers).  Forking a multithreaded parent can deadlock the
    child on a lock some other thread held at fork time (and is
    deprecated on CPython 3.12+), so refine workers come from a
    ``forkserver``: a clean, single-threaded server process that
    preloads this library once and forks each worker from that quiet
    state.  Worker arguments are pickled.  Platforms without forkserver
    fall back to the default context, where process arguments must be
    picklable too.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()
    ctx.set_forkserver_preload(["repro.core.engine", "repro.scale.driver"])
    return ctx


class ParallelScenarioExecutor:
    """Coefficient columns of one :class:`ScenarioGenerator`, in order.

    The class keeps its name and module because the latency ledger
    (``benchmarks/ledger/trace.py``) times ``coefficient_columns`` as
    its ``parallel.fanout`` layer.
    """

    def __init__(self, generator):
        self.generator = generator

    def coefficient_columns(self, expr, scenarios) -> np.ndarray:
        """Full-relation coefficient columns for explicit scenario ids.

        This is the cache-fill primitive: ``ScenarioCache`` asks for the
        *new* columns ``[start, stop)`` when ``M`` grows.
        """
        generator = self.generator
        scenario_ids = [int(j) for j in scenarios]
        out = np.empty((generator.relation.n_rows, len(scenario_ids)), dtype=float)
        for i, j in enumerate(scenario_ids):
            out[:, i] = generator.coefficient_scenario(expr, j)
        return out
