"""Per-query QoS primitives: deadlines and earliest-deadline-first order.

The serving tier admits each query with an optional ``deadline_ms``
budget.  Three mechanisms turn that budget into latency SLOs:

* **admission control** — work that is already hopeless (deadline
  expired while queued, or non-positive on arrival) is rejected with
  :class:`DeadlineExpiredError` instead of wasting a solver slot;
* **EDF scheduling** — the broker's one queue is
  ordered by absolute expiry time (:class:`EDFQueue`), so tight-deadline
  queries overtake loose ones while deadline-less work keeps FIFO order
  among itself at the back;
* **anytime solving** — whatever budget remains at dispatch time is
  forwarded to the evaluator as ``SPQConfig.deadline_ms``, where expiry
  returns the best incumbent plus a relative optimality gap (see
  :mod:`repro.core.anytime`) rather than an error.

Both classes take an injectable ``clock`` so expiry races are testable
deterministically (no sleeps).
"""

from __future__ import annotations

import time

from ..errors import SPQError


class DeadlineExpiredError(SPQError):
    """The query's latency budget expired before solving could start.

    Raised by broker admission (budget non-positive) and by a broker
    pool slot when a queued request's deadline passed before the slot
    popped it.  Maps to HTTP 504 in the serving layer.
    """


class TaskDeadline:
    """Absolute expiry time for one query, in the scheduler's clock.

    ``deadline_ms`` is the relative budget granted at admission; the
    instance pins it to an absolute instant so queue time counts against
    the budget (a query admitted with 50ms that waits 60ms is dead).
    """

    __slots__ = ("deadline_ms", "_clock", "expires_at")

    def __init__(self, deadline_ms: float, clock=None):
        self.deadline_ms = float(deadline_ms)
        self._clock = time.monotonic if clock is None else clock
        self.expires_at = self._clock() + self.deadline_ms / 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds of budget left (negative once expired)."""
        return (self.expires_at - self._clock()) * 1000.0

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskDeadline({self.deadline_ms:.0f}ms,"
            f" remaining={self.remaining_ms():.0f}ms)"
        )


class EDFQueue:
    """Earliest-deadline-first queue with a FIFO tail for undeadlined work.

    Entries are ranked by ``(expires_at, seq)``; items without a deadline
    rank as ``+inf`` expiry, so among themselves they keep submission
    order behind every deadlined item.

    A plain list with linear min-scans: the broker queue is bounded by
    the broker's ``max_pending`` (tens, not millions), where O(n) scans
    beat heap bookkeeping.
    """

    def __init__(self):
        self._entries: list = []  # (expires_at, seq, item)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, item, deadline: "TaskDeadline | None" = None) -> None:
        """Enqueue ``item`` at its deadline's rank."""
        expires = float("inf") if deadline is None else deadline.expires_at
        self._seq += 1
        self._entries.append((expires, self._seq, item))

    def pop(self):
        """Remove and return the earliest-deadline item (FIFO on ties)."""
        if not self._entries:
            raise IndexError("pop from empty EDFQueue")
        index = min(
            range(len(self._entries)),
            key=lambda i: self._entries[i][:2],
        )
        return self._entries.pop(index)[2]

    def items(self) -> list:
        """Snapshot of queued items in rank order (tests/status)."""
        return [
            entry[2]
            for entry in sorted(self._entries, key=lambda e: e[:2])
        ]
