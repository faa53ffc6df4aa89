"""Scenario-cache fill.

Scenario identity in this system is a pure function of an RNG key —
``(seed, stream, substream, attr, j)`` for scenario ``j`` — so a
scenario matrix can be realized a slice of scenario ids at a time and
the slices are *bit-identical* to one whole fill.
:class:`ParallelScenarioExecutor` is that fill loop; it runs in the
query's process, as everything in this library does.
"""

from .executor import ParallelScenarioExecutor

__all__ = ["ParallelScenarioExecutor"]
