"""Fan scenario-matrix generation out across worker processes.

The executor parallelizes the one loop ``ScenarioCache`` runs to fill
its new columns, chunked along the axis that carries RNG identity:
contiguous chunks of scenario indices ``j``, each worker drawing its
scenarios from the ``(seed, stream, substream, attr, j)`` keys, so
column ``j`` is the same array no matter who computed it.  Reassembly
keeps scenario order, so parallel output is bit-identical to
``n_workers=1`` (the determinism regression tests assert
``np.array_equal``, not ``allclose``).

Workers are plain ``ProcessPoolExecutor`` processes seeded once with a
pickled copy of the generator (relations are immutable, generators are
stateless beyond their key fields).  Any failure to parallelize —
unpicklable payloads, missing OS support — degrades silently to the
sequential path: parallelism is an optimization, never a behavior change.
"""

from __future__ import annotations

import multiprocessing
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

#: Per-process generator installed by the pool initializer.
_WORKER_GENERATOR = None


def mp_context():
    """The multiprocessing context for this library's worker processes.

    Fork is preferred: workers inherit relations, catalogs, and
    generators without pickling, and replacement workers (the solve
    farm's recycling and crash recovery) can be spawned at any point in
    the parent's lifetime.  Platforms without fork fall back to the
    default context, where process arguments must be picklable — which
    every payload shipped by this library is.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def farm_context():
    """The multiprocessing context for long-lived solve-farm workers.

    The farm starts replacement workers at arbitrary points in the
    parent's lifetime — from broker slot threads and ``/status`` reads,
    while HTTP handler threads and broker callers are live.  Forking a multithreaded parent
    can deadlock the child on a lock some other thread held at fork time
    (and is deprecated on CPython 3.12+), so farm workers come from a
    ``forkserver``: a clean, single-threaded server process that
    preloads this library once and forks each worker from that quiet
    state.  Worker arguments (catalog, config, pipe) are pickled —
    every payload the farm ships is.  Platforms without forkserver fall
    back to :func:`mp_context`.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return mp_context()
    ctx.set_forkserver_preload(["repro.core.engine", "repro.service.farm"])
    return ctx


def _init_worker(generator) -> None:
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = generator


def _coefficient_scenario_chunk(expr, scenarios):
    """Full-relation coefficient columns for the given scenario ids."""
    generator = _WORKER_GENERATOR
    out = np.empty((generator.relation.n_rows, len(scenarios)), dtype=float)
    for i, j in enumerate(scenarios):
        out[:, i] = generator.coefficient_scenario(expr, int(j))
    return out


def scenario_chunks(indices, n_chunks: int) -> list[np.ndarray]:
    """Split ``indices`` into at most ``n_chunks`` contiguous, ordered chunks."""
    arr = np.asarray(list(indices))
    n_chunks = max(1, min(int(n_chunks), len(arr)))
    return [chunk for chunk in np.array_split(arr, n_chunks) if len(chunk)]


def _shutdown_pool(pool) -> None:
    pool.shutdown(wait=False, cancel_futures=True)


class ParallelScenarioExecutor:
    """Process-parallel coefficient columns of one :class:`ScenarioGenerator`.

    With ``n_workers=1`` :meth:`coefficient_columns` runs the wrapped
    generator's sequential loop — the executor is then a zero-cost
    pass-through, which lets callers hold one code path for both
    configurations.
    """

    def __init__(self, generator, n_workers: int = 1):
        self.generator = generator
        self.n_workers = max(1, int(n_workers))
        self._pool = None
        self._finalizer = None
        self._broken = False

    # --- pool management ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=mp_context(),
                initializer=_init_worker,
                initargs=(self.generator,),
            )
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers (idempotent).

        Garbage collection (the finalizer) only signals the workers to
        exit; an explicit close also joins them, so none outlives it.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None

    def _map(self, fn, arg_tuples) -> list | None:
        """Run ``fn`` over ``arg_tuples`` in the pool; None = fall back."""
        if self.n_workers == 1 or self._broken or len(arg_tuples) <= 1:
            return None
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(fn, *args) for args in arg_tuples]
            return [future.result() for future in futures]
        except Exception as error:
            # Parallelism is best-effort: fall back to the sequential
            # path rather than failing the evaluation — but say so, as
            # the downgrade is permanent for this executor.
            warnings.warn(
                f"parallel scenario generation disabled after worker-pool"
                f" failure ({type(error).__name__}: {error}); continuing"
                f" sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
            self._broken = True
            self.close()
            return None

    # --- parallel generation -------------------------------------------------

    def coefficient_columns(self, expr, scenarios) -> np.ndarray:
        """Full-relation coefficient columns for explicit scenario ids.

        This is the cache-fill primitive: ``ScenarioCache`` asks for the
        *new* columns ``[start, stop)`` when ``M`` grows, and each worker
        realizes a contiguous sub-range of them.
        """
        generator = self.generator
        scenario_ids = [int(j) for j in scenarios]
        chunks = scenario_chunks(scenario_ids, self.n_workers)
        results = self._map(_coefficient_scenario_chunk, [(expr, c) for c in chunks])
        if results is None:
            out = np.empty((generator.relation.n_rows, len(scenario_ids)), dtype=float)
            for i, j in enumerate(scenario_ids):
                out[:, i] = generator.coefficient_scenario(expr, j)
            return out
        return np.concatenate(results, axis=1)
