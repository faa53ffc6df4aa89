"""The scenario cache's fill loop.

:class:`ParallelScenarioExecutor` realizes the one loop ``ScenarioCache``
runs to fill its new columns.  Scenario ``j`` is drawn from its own
``(seed, stream, substream, attr, j)`` key, so column ``j`` is the same
array whichever call computes it, and filling ``[0, k)`` then ``[k, M)``
equals filling ``[0, M)`` bit for bit.  The loop runs in the caller's
process: at the few hundred optimisation scenarios a query realizes,
forking a worker pool never paid for itself.  The library starts no
worker process anywhere.
"""

from __future__ import annotations

import numpy as np


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
