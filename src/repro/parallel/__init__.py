"""Scenario-cache fill and the library's worker-process context.

Scenario identity in this system is a pure function of an RNG key —
``(seed, stream, substream, attr, j)`` for scenario ``j`` — so a
scenario matrix can be realized a slice of scenario ids at a time and
the slices are *bit-identical* to one whole fill.
:class:`ParallelScenarioExecutor` is that fill loop; :func:`farm_context`
is the process context of the solve farm and the scale driver's refine
pool.
"""

from .executor import ParallelScenarioExecutor, farm_context

__all__ = ["ParallelScenarioExecutor", "farm_context"]
