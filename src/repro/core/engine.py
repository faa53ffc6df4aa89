"""End-to-end query engine: parse → compile → evaluate.

:class:`SPQEngine` is the public façade: register relations (and their
stochastic models) in a catalog, then execute sPaQL text with the method
of your choice.  The engine mirrors the paper's system architecture —
data stays "in the database" (the catalog) and the optimization layers
pull scenario realizations on demand.

Engines are *warm sessions*: compiled problems are cached per query
text, so the serving layer's long-lived sessions (the broker's
thread-pool engines) pay parse + compile once per distinct query.
Registering new data invalidates the cache.  Sessions over one catalog
may share one :class:`CompileCache` (the broker's thread slots
do): evaluation never mutates a compiled problem.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..config import DEFAULT_CONFIG, SPQConfig
from ..db.catalog import Catalog
from ..errors import EvaluationError
from ..obs import (
    QueryResourceProbe,
    TraceSession,
    activate,
    current_session,
    new_trace_id,
    span_tree,
    stage,
    stage_histograms,
)
from ..silp.compile import compile_query
from ..silp.model import StochasticPackageProblem
from ..spaql.nodes import PackageQuery
from ..spaql.parser import parse_query
from .anytime import finalize_anytime
from .deterministic import deterministic_evaluate
from .naive import naive_evaluate
from .package import PackageResult
from .summarysearch import summary_search_evaluate

METHOD_SUMMARY_SEARCH = "summarysearch"
METHOD_NAIVE = "naive"
METHOD_DETERMINISTIC = "deterministic"
METHOD_SKETCH_REFINE = "sketchrefine"

_METHODS = (
    METHOD_SUMMARY_SEARCH,
    METHOD_NAIVE,
    METHOD_DETERMINISTIC,
    METHOD_SKETCH_REFINE,
)

#: Compiled problems cached per :class:`CompileCache` (distinct query
#: texts); least-recently-used entries are evicted beyond this, so a
#: long-lived session keeps caching its *hot* queries no matter how many
#: distinct texts it has seen.
_COMPILE_CACHE_LIMIT = 256


class CompileCache:
    """Compiled problems by query text, for one catalog; thread-safe.

    Compilation is a pure function of (text, catalog contents); the
    cache is bound to the catalog's version counter, so a registration
    or delta through ANY session sharing the catalog (or on the catalog
    directly) invalidates it — a hit is always current.  Least-recently
    used entries are evicted beyond ``_COMPILE_CACHE_LIMIT``.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self._entries: "OrderedDict[str, StochasticPackageProblem]" = OrderedDict()
        self._version = getattr(catalog, "version", 0)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, text: str) -> tuple[StochasticPackageProblem | None, int]:
        """The cached problem for ``text`` (or None) and the version seen."""
        version = getattr(self.catalog, "version", 0)
        with self._lock:
            if self._version != version:
                self._entries.clear()
                self._version = version
            cached = self._entries.get(text)
            if cached is not None:
                self._entries.move_to_end(text)
        return cached, version

    def put(self, text: str, version: int, problem) -> None:
        """Keep ``problem``, compiled at catalog ``version``, if still current."""
        with self._lock:
            if self._version != version:
                return
            self._entries[text] = problem
            self._entries.move_to_end(text)
            while len(self._entries) > _COMPILE_CACHE_LIMIT:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class SPQEngine:
    """Evaluates stochastic package queries against a catalog."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        config: SPQConfig | None = None,
        store=None,
        compile_cache: CompileCache | None = None,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.config = config if config is not None else DEFAULT_CONFIG
        #: Optional shared :class:`repro.service.ScenarioStore`.  When
        #: set, every evaluation routes scenario realization through it,
        #: so repeated and concurrent queries over the same data reuse
        #: one realized matrix (results stay bit-identical).  The store
        #: is owned by its creator; the engine never closes it.
        self.store = store
        #: Compiled problems by query text; shared when given (it must
        #: be over this engine's catalog).
        self._compiled = (
            compile_cache if compile_cache is not None
            else CompileCache(self.catalog)
        )
        #: Span tree of the last *self-rooted* traced execution (CLI and
        #: library use; broker-rooted traces land in the trace ring
        #: instead).  None until the first traced ``execute()``.
        self.last_trace: dict | None = None

    # --- registration ---------------------------------------------------------

    def register(self, relation, model=None, name: str | None = None) -> None:
        """Register a relation (and optional stochastic model)."""
        self.catalog.register(relation, model=model, name=name)

    # --- pipeline stages ----------------------------------------------------------

    def parse(self, text: str) -> PackageQuery:
        """Parse sPaQL text into a :class:`PackageQuery` AST."""
        return parse_query(text)

    def compile(self, query: str | PackageQuery) -> StochasticPackageProblem:
        """Compile a query against this engine's catalog.

        Results for textual queries are cached on the session: repeated
        and concurrent executions of the same text (the serving layer's
        hot path) parse and compile once.
        """
        with stage("compile") as span:
            if not isinstance(query, str):
                span.set("cache_hit", False)
                return compile_query(query, self.catalog)
            text = query.strip()
            cached, version = self._compiled.get(text)
            if cached is not None:
                span.set("cache_hit", True)
                return cached
            span.set("cache_hit", False)
            with stage("parse"):
                ast = parse_query(text)
            problem = compile_query(ast, self.catalog)
            self._compiled.put(text, version, problem)
            return problem

    # --- evaluation ------------------------------------------------------------------

    def execute(
        self,
        query: str | PackageQuery | StochasticPackageProblem,
        method: str = METHOD_SUMMARY_SEARCH,
        config: SPQConfig | None = None,
        **overrides,
    ) -> PackageResult:
        """Evaluate ``query`` and return a :class:`PackageResult`.

        ``overrides`` are applied on top of the engine's (or the given)
        config, e.g. ``engine.execute(q, seed=7, epsilon=0.05)``.
        """
        if method not in _METHODS:
            raise EvaluationError(
                f"unknown method {method!r}; expected one of {_METHODS}"
            )
        effective = config if config is not None else self.config
        if overrides:
            effective = effective.replace(**overrides)
        if current_session() is not None:
            # Already under an active trace (a broker slot activated
            # it); just nest.
            return self._execute_traced(query, method, effective)
        if not effective.trace_enabled:
            return self._execute_traced(query, method, effective)
        # Self-rooted trace: CLI / library use without a broker above.
        own = TraceSession(trace_id=new_trace_id())
        try:
            with activate(own):
                return self._execute_traced(query, method, effective)
        finally:
            stage_histograms.observe_spans(own.spans)
            self.last_trace = span_tree(own.spans, own.trace_id, dropped=own.dropped)
            self.last_trace["events"] = list(own.events)
            self.last_trace["events_dropped"] = own.events_dropped
            if own.resources:
                self.last_trace["resources"] = dict(own.resources)

    def _execute_traced(
        self,
        query: str | PackageQuery | StochasticPackageProblem,
        method: str,
        effective: SPQConfig,
    ) -> PackageResult:
        with stage("execute", method=method) as span:
            probe = QueryResourceProbe(store=self.store)
            started = time.perf_counter()
            try:
                result = self._dispatch(query, method, effective)
            except BaseException:
                probe.release()
                raise
            finalize_anytime(result, effective, time.perf_counter() - started)
            usage = probe.finish(session=current_session())
            if result.anytime is not None:
                result.anytime.resources = usage
            span.set("resources", usage)
            if result.anytime is not None and not result.anytime.deadline_met:
                span.set("deadline_missed", True)
            return result

    def _dispatch(
        self,
        query: str | PackageQuery | StochasticPackageProblem,
        method: str,
        effective: SPQConfig,
    ) -> PackageResult:
        problem = (
            query
            if isinstance(query, StochasticPackageProblem)
            else self.compile(query)
        )
        if method == METHOD_DETERMINISTIC:
            return deterministic_evaluate(problem, effective, store=self.store)
        has_probabilistic = bool(problem.chance_constraints) or (
            problem.has_probability_objective
        )
        if method == METHOD_SKETCH_REFINE:
            if has_probabilistic:
                # The out-of-core tier: partition-by-partition
                # SummarySearch (imported lazily; repro.scale builds on
                # this module's evaluators).
                from ..scale.driver import scale_sketch_refine_evaluate

                return scale_sketch_refine_evaluate(
                    problem, effective, store=self.store
                )
            from .sketchrefine import sketch_refine_evaluate

            return sketch_refine_evaluate(
                problem, effective, n_partitions=effective.scale_n_partitions
            )
        if not has_probabilistic:
            # Both algorithms degenerate to the deterministic solve.
            return deterministic_evaluate(problem, effective, store=self.store)
        if method == METHOD_NAIVE:
            return naive_evaluate(problem, effective, store=self.store)
        if _exceeds_resident_budget(problem, effective):
            # The scenarios would not fit the store's resident budget:
            # route summarysearch through the out-of-core driver.
            from ..scale.driver import scale_sketch_refine_evaluate

            return scale_sketch_refine_evaluate(
                problem, effective, store=self.store
            )
        return summary_search_evaluate(problem, effective, store=self.store)


def _exceeds_resident_budget(
    problem: StochasticPackageProblem, config: SPQConfig
) -> bool:
    """Whether SummarySearch's scenario footprint outgrows the relation.

    The footprint is ``n_vars × max_scenarios`` float64 cells per chance
    constraint; it routes only a chance-constrained, non-probability
    objective query over a relation with a ``resident_budget`` (an
    on-disk column store opened with one).  In-memory relations and
    unbudgeted stores never route.
    """
    budget = getattr(problem.relation, "resident_budget", None)
    if (
        budget is None
        or not problem.chance_constraints
        or problem.has_probability_objective
    ):
        return False
    footprint = (
        problem.n_vars * config.max_scenarios * 8 * len(problem.chance_constraints)
    )
    return footprint > budget
