"""Scenario generation with reproducible, stream-separated seeding.

A *scenario* realizes every stochastic attribute of a relation (Section
2.2).  Scenario identity is stable: scenario ``j`` of a given stream is
the same realization no matter when, how often, or by which worker it
is generated, which is what lets ``ScenarioCache`` grow a matrix by its
new columns as ``M`` grows and lets the validator use a fixed
out-of-sample scenario set (Section 3.2).

Two generation modes:

* ``MODE_SCENARIO_WISE`` — RNG keyed by ``(seed, stream, attr, j)``; one
  vectorized draw realizes all tuples of scenario ``j``.  Generating a
  single scenario costs Θ(N); restricting to a subset of rows does not
  reduce the cost.  The optimization, probe, expectation and partition
  streams use it.
* ``MODE_TUPLE_WISE`` — RNG keyed by ``(seed, stream, attr, block)``; one
  draw realizes all ``M`` scenarios of one independence block.
  Restricting generation to the blocks that intersect a package costs
  Θ(PM), but scenario sets are tied to the chosen ``M``.  The validator
  uses it: it only ever realizes the rows of the package it checks.

The two modes produce different (but identically distributed) streams;
each is internally reproducible.

Each key's stream is ``make_generator(seed, stream, substream, attr, k)``;
a generator draws it by re-keying one long-lived Philox
(:class:`~repro.utils.rngkeys.KeyedGenerator`, one key prefix per
attribute) instead of building a generator per scenario or per block.
"""

from __future__ import annotations

import threading

import numpy as np

from ..db.expressions import Expr, attributes_of, evaluate
from ..errors import EvaluationError
from ..obs.resources import bill
from ..parallel.executor import ParallelScenarioExecutor
from ..utils.rngkeys import KeyedGenerator, rekeyable_generator
from .stochastic import StochasticModel

MODE_SCENARIO_WISE = "scenario"
MODE_TUPLE_WISE = "tuple"

_MODES = (MODE_SCENARIO_WISE, MODE_TUPLE_WISE)


class ScenarioGenerator:
    """Reproducible scenario access for one (relation, model, stream).

    Every key re-keys one Philox-backed generator, so an instance (and
    any generators sharing its ``rng``) serves one thread at a time.
    """

    def __init__(
        self,
        model: StochasticModel,
        seed: int,
        stream: int,
        mode: str = MODE_SCENARIO_WISE,
        substream: int = 0,
        rng: np.random.Generator | None = None,
    ):
        if mode not in _MODES:
            raise EvaluationError(f"unknown scenario mode {mode!r}; expected {_MODES}")
        self.model = model
        self.relation = model.relation
        self.seed = seed
        self.stream = stream
        self.mode = mode
        #: Distinguishes disjoint scenario sets within one stream (the
        #: validator uses one substream per scenario chunk so that chunked
        #: generation is reproducible at fixed chunk size).
        self.substream = substream
        #: The one Philox-backed generator every key of this instance
        #: re-keys; the validator passes one to all of its chunks.
        self._rng = rekeyable_generator() if rng is None else rng
        self._keyed: dict[str, KeyedGenerator] = {}

    def _keyed_generator(self, attr: str) -> KeyedGenerator:
        """The keyed generator of ``attr``'s ``(seed, stream, substream, attr)``."""
        keyed = self._keyed.get(attr)
        if keyed is None:
            attr_id = self.model.attr_id(attr)
            keyed = self._keyed[attr] = KeyedGenerator(
                self.seed, self.stream, self.substream, attr_id, rng=self._rng
            )
        return keyed

    # --- raw attribute realizations -------------------------------------------

    def realize(self, attr: str, scenario: int, n_scenarios: int | None = None):
        """One full-relation realization of ``attr`` in scenario ``scenario``.

        In tuple-wise mode the total scenario count ``n_scenarios`` must
        be supplied (the per-block draw is sized by it); the call costs a
        full Θ(N·M) regeneration, mirroring the strategy's trade-off.
        """
        vg = self.model.vg(attr)
        if self.mode == MODE_SCENARIO_WISE:
            return vg.sample_all(self._keyed_generator(attr).at(scenario))
        if n_scenarios is None:
            raise EvaluationError(
                "tuple-wise realization of a single scenario requires n_scenarios"
            )
        if not 0 <= scenario < n_scenarios:
            raise EvaluationError("scenario index out of range")
        matrix = self.matrix(attr, n_scenarios)
        return matrix[:, scenario]

    def matrix(
        self,
        attr: str,
        n_scenarios: int,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Realizations of ``attr``: shape ``(len(rows), n_scenarios)``.

        ``rows`` restricts generation to the given row positions; only
        tuple-wise mode exploits the restriction to reduce work.
        """
        if n_scenarios < 1:
            raise EvaluationError("n_scenarios must be >= 1")
        vg = self.model.vg(attr)
        keyed = self._keyed_generator(attr)
        n_rows = self.relation.n_rows
        if self.mode == MODE_SCENARIO_WISE:
            out = np.empty(
                (n_rows if rows is None else len(rows), n_scenarios), dtype=float
            )
            for j in range(n_scenarios):
                full = vg.sample_all(keyed.at(j))
                out[:, j] = full if rows is None else full[rows]
            return out
        # Tuple-wise: visit only blocks intersecting `rows`.
        if rows is None:
            block_ids = list(range(vg.n_blocks))
            out = np.empty((n_rows, n_scenarios), dtype=float)
            position = np.arange(n_rows)
        else:
            rows = np.asarray(rows)
            block_ids = sorted(set(vg.block_of_rows(rows).tolist()))
            out = np.empty((len(rows), n_scenarios), dtype=float)
            position = np.full(n_rows, -1, dtype=np.int64)
            position[rows] = np.arange(len(rows))
        for b in block_ids:
            values = vg.sample_block(b, keyed.at(b), n_scenarios)
            block_rows = vg.blocks[b]
            mask = position[block_rows] >= 0
            out[position[block_rows[mask]], :] = values[mask, :]
        return out

    # --- expression coefficients -----------------------------------------------

    def coefficient_matrix(
        self,
        expr: Expr,
        n_scenarios: int,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-scenario coefficient vectors for ``SUM(expr)`` constraints.

        Evaluates ``expr`` with deterministic columns broadcast across
        scenarios and stochastic attributes realized per scenario.
        Output shape: ``(len(rows), n_scenarios)``.
        """
        names = attributes_of(expr)
        stochastic = [n for n in sorted(names) if self.model.is_stochastic(n)]
        n_out = self.relation.n_rows if rows is None else len(np.asarray(rows))
        if not stochastic:
            values = self._deterministic_vector(expr, rows)
            return np.broadcast_to(values[:, None], (n_out, n_scenarios)).copy()
        realized = {
            name: self.matrix(name, n_scenarios, rows=rows) for name in stochastic
        }

        def resolver(name: str) -> np.ndarray:
            if name in realized:
                return realized[name]
            column = self.relation.column(name)
            restricted = column if rows is None else column[np.asarray(rows)]
            return np.asarray(restricted, dtype=float)[:, None]

        result = evaluate(expr, resolver)
        return np.broadcast_to(result, (n_out, n_scenarios)).astype(float, copy=False)

    def coefficient_scenario(
        self,
        expr: Expr,
        scenario: int,
        n_scenarios: int | None = None,
    ) -> np.ndarray:
        """One full-relation coefficient vector for scenario ``scenario``."""
        names = attributes_of(expr)
        stochastic = [n for n in sorted(names) if self.model.is_stochastic(n)]
        if not stochastic:
            return self._deterministic_vector(expr, None)
        realized = {
            name: self.realize(name, scenario, n_scenarios) for name in stochastic
        }

        def resolver(name: str) -> np.ndarray:
            if name in realized:
                return realized[name]
            return np.asarray(self.relation.column(name), dtype=float)

        values = evaluate(expr, resolver)
        return np.broadcast_to(values, (self.relation.n_rows,)).astype(
            float, copy=False
        )

    def _deterministic_vector(self, expr: Expr, rows) -> np.ndarray:
        values = evaluate(expr, self.relation.columns_mapping())
        values = np.broadcast_to(
            np.asarray(values, dtype=float), (self.relation.n_rows,)
        )
        if rows is not None:
            values = values[np.asarray(rows)]
        return values.astype(float)


class ScenarioCache:
    """Grow-only cache of coefficient matrices for one generator.

    Naïve accumulates scenarios across iterations (Algorithm 1, line 9);
    with scenario-wise keys, scenario ``j`` is stable as ``M`` grows, so
    the cache only generates the *new* columns when asked for a larger
    matrix.  Keys are expression identities (one entry per constraint).

    When a shared :class:`repro.service.ScenarioStore` is supplied, the
    matrices live in the store under content keys instead of this
    instance, so concurrent and repeated queries over the same data
    reuse one realization (the store enforces the byte budget and
    eviction policy); this cache then only contributes the generation
    callback.  Without a store the private dict behaviour is unchanged,
    and each fill's bytes are billed to the query (``obs.resources``).

    Fills are serialized per cache, hence per generator: the generator
    re-keys one Philox, and two CSA rungs of one evaluation (the ladder
    lane's and the caller's) may fill at once — a store runs fills of
    different expressions outside its lock.  Reads of columns already
    held take no lock.
    """

    def __init__(self, generator: ScenarioGenerator, store=None):
        if generator.mode != MODE_SCENARIO_WISE:
            raise EvaluationError(
                "ScenarioCache requires scenario-wise mode (prefix-stable sets)"
            )
        self.generator = generator
        self._executor = ParallelScenarioExecutor(generator)
        #: Shared ScenarioStore (owned by its creator, never closed here).
        self._store = store
        #: id(expr) -> (expr, content key).  The Expr is pinned so its
        #: id cannot be recycled for a different expression.
        self._store_keys: dict[int, tuple[Expr, tuple]] = {}
        self._cache: dict[int, tuple[Expr, np.ndarray]] = {}
        self._fill_lock = threading.Lock()

    def _new_columns(self, expr: Expr, start: int, stop: int) -> np.ndarray:
        with self._fill_lock:
            return self._executor.coefficient_columns(expr, range(start, stop))

    def _content_key(self, expr: Expr) -> tuple:
        cached = self._store_keys.get(id(expr))
        if cached is not None:
            return cached[1]
        # Imported lazily: repro.service builds on this module.
        from ..service.store import store_key

        key = store_key(self.generator, expr)
        self._store_keys[id(expr)] = (expr, key)
        return key

    def coefficient_matrix(self, expr: Expr, n_scenarios: int) -> np.ndarray:
        """The first ``n_scenarios`` coefficient columns of ``expr``.

        Grow-only: asking for a larger ``n_scenarios`` generates only
        the new suffix (delegated to the shared store when attached).
        """
        if self._store is not None:
            return self._store.coefficient_matrix(
                self._content_key(expr),
                n_scenarios,
                lambda start, stop: self._new_columns(expr, start, stop),
            )
        key = id(expr)
        cached = self._cache.get(key)
        if cached is not None and cached[1].shape[1] >= n_scenarios:
            return cached[1][:, :n_scenarios]
        with self._fill_lock:
            cached = self._cache.get(key)
            if cached is not None and cached[1].shape[1] >= n_scenarios:
                return cached[1][:, :n_scenarios]
            start = 0 if cached is None else cached[1].shape[1]
            new_cols = self._executor.coefficient_columns(
                expr, range(start, n_scenarios)
            )
            bill("scenario_bytes_realized", new_cols.nbytes)
            matrix = (
                new_cols if cached is None else np.hstack([cached[1], new_cols])
            )
            self._cache[key] = (expr, matrix)
        return matrix

    def clear(self) -> None:
        """Drop all locally cached matrices and content keys.

        A shared store's entries are its owner's to manage
        (``ScenarioStore.clear`` releases memmap handles and spill
        files).  Idempotent.
        """
        self._cache.clear()
        self._store_keys.clear()

    @property
    def cached_bytes(self) -> int:
        """Total bytes of locally (non-store) cached matrices."""
        return sum(m.nbytes for _, m in self._cache.values())


def probe_value_bounds(
    generator: ScenarioGenerator,
    expr: Expr,
    n_probe: int,
    rows: np.ndarray | None = None,
) -> tuple[float, float]:
    """Empirical (min, max) of per-tuple coefficients over probe scenarios.

    Used as the fallback for Appendix B's assumption (A1) when the VG
    support gives no finite analytic bound (see ``core.approx``).
    """
    matrix = generator.coefficient_matrix(expr, n_probe, rows=rows)
    return float(matrix.min()), float(matrix.max())
