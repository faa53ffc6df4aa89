"""Process-parallel scenario materialization.

Scenario identity in this system is a pure function of an RNG key —
``(seed, stream, substream, attr, j)`` for scenario ``j`` — so the work
of realizing a scenario matrix decomposes into independent chunks of
scenario ids whose results are *bit-identical* no matter which process
computes them.
:class:`ParallelScenarioExecutor` exploits exactly that: it fans chunks
out across worker processes and reassembles them in canonical order.
"""

from .executor import (
    ParallelScenarioExecutor,
    farm_context,
    mp_context,
    scenario_chunks,
)

__all__ = [
    "ParallelScenarioExecutor",
    "farm_context",
    "mp_context",
    "scenario_chunks",
]
