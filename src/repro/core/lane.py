"""The ladder lane: one helper thread that solves SummarySearch's next rung.

SummarySearch (Algorithm 2) climbs an ``(M, Z)`` ladder of CSA-Solve
calls, and every call restarts from ``x^{(0)}`` at α = 0, so a rung does
not depend on the rung before it — only *which* rung comes next does.
While the caller solves rung ``k``, the lane solves the rung the same
branch leads to next; the caller consumes rungs strictly in ladder order
and discards a rung the ladder does not take (``core/summarysearch.py``).
A rung is a pure function of its inputs plus the exact memos, so the
lane changes no answer: it only overlaps two MILP solves, and HiGHS
releases the GIL while it runs.

There is one lane per process, started lazily, shared by every query; a
ladder that finds it busy simply runs alone.  It never starts on a
single CPU, nor in the scale driver's refine workers, which are already
the parallelism there (:func:`disable`).

A rung runs in a copy of its submitter's ``contextvars`` context, so its
trace spans (in a child session, ``obs.trace.fork_session``) and its
bill (``obs.resources.bill``) reach the query that asked for it.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from concurrent.futures import Future

#: Whether this process may use the lane (worker processes switch it off).
ENABLED = True

#: The lane's thread name (visible in thread dumps and tests).
THREAD_NAME = "repro-ladder-lane"

_jobs: queue.SimpleQueue | None = None
#: Held from a rung's submission until it finishes: a busy lane is
#: never queued on (submission is a non-blocking acquire).
_free: threading.Lock | None = None
#: The process the lane was started in (a forked child starts its own).
_pid: int | None = None
_start_lock = threading.Lock()


def disable() -> None:
    """Never use the lane in this process (refine workers)."""
    global ENABLED
    ENABLED = False


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def try_submit(fn) -> Future | None:
    """Run ``fn()`` on the lane if it is usable and free, else None.

    ``fn`` runs in a copy of the caller's context; the future settles
    after the lane is free again, so a caller woken by it can submit the
    next rung at once.
    """
    if not ENABLED or usable_cpus() < 2:
        return None
    jobs, free = _ensure_started()
    if not free.acquire(blocking=False):
        return None
    future: Future = Future()
    jobs.put((future, contextvars.copy_context(), fn))
    return future


def _ensure_started() -> tuple[queue.SimpleQueue, threading.Lock]:
    global _jobs, _free, _pid
    with _start_lock:
        if _pid != os.getpid():
            _jobs, _free, _pid = queue.SimpleQueue(), threading.Lock(), os.getpid()
            threading.Thread(
                target=_run, args=(_jobs, _free), name=THREAD_NAME, daemon=True
            ).start()
        return _jobs, _free


def _run(jobs: queue.SimpleQueue, free: threading.Lock) -> None:
    while True:
        future, context, fn = jobs.get()
        try:
            result = context.run(fn)
        except BaseException as error:  # noqa: BLE001 - the caller re-raises it
            free.release()
            future.set_exception(error)
        else:
            free.release()
            future.set_result(result)
