"""Outside-in span tracer for the ledger benchmark.

The traced run measures the layers of ``repro`` without editing them:
:meth:`Tracer.install` replaces each public boundary function listed in
:data:`BOUNDARIES` with a timing wrapper — in the module that defines it
*and* in every already-imported ``repro`` module that bound the name
with ``from x import f`` — and :meth:`Tracer.uninstall` puts the
originals back.

A span is ``[id, name, parent, op_id, start, end, busy_s, calls]``.
Spans live in memory until the run ends.  Two rules keep the tracer
cheap enough to leave the timings meaningful:

* a boundary entered directly from a span of the same name passes
  straight through (``coefficient_matrix`` calling ``matrix`` is one
  ``mcdb.realize`` span, not two);
* consecutive *leaf* spans of one name under one parent are folded into
  one record (``calls`` counts them, ``busy_s`` sums them), so the
  20 000 ``realize`` calls of a Monte-Carlo mean cost one record.

Self time is computed after the run: a span's ``busy_s`` minus the
``busy_s`` of its direct children.  Children run inside their parent's
interval (same thread, or a thread the parent is blocked on), so the
self times of a tree sum to its root's ``busy_s`` exactly; the root's
own self time is what no boundary claimed (``bench.unattributed_ratio``).

Nothing here is active unless :meth:`Tracer.install` was called *and*
the calling thread is inside :meth:`Tracer.op` (or was linked to one:
see ``_link_execute`` / ``_link_http``), so set-up work is never traced.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import itertools
import sys
import threading
import time

_clock = time.perf_counter

#: Header carrying ``<op_id>:<root span id>`` from the benchmark client
#: to the HTTP handler thread (sent on traced runs only).
OP_HEADER = "X-Ledger-Op"

# Span record fields.
SID, NAME, PARENT, OP, START, END, BUSY, CALLS = range(8)


# --- count hooks (run after the span closed; cost lands on the parent) -------

def _hook_csa(counts, args, kwargs, result):
    counts["core.csa.rounds"] += len(result.iterations)


def _hook_validate(counts, args, kwargs, result):
    counts["core.validate.scenarios"] += args[0].n_scenarios * max(
        1, len(result.items)
    )
    counts["core.validate.feasible"] += bool(result.feasible)


def _hook_realize(counts, args, kwargs, result):
    counts["mcdb.realize.cells"] += result.size


def _hook_solve(counts, args, kwargs, result):
    builder = args[0]
    counts["solver.solve.vars"] += builder.n_variables
    counts["solver.solve.rows"] += builder.n_constraints
    counts["solver.solve.limited"] += (
        result.status in ("feasible", "time_limit")
        or result.meta.get("stopped") in ("deadline", "nodes")
    )
    # Memoized by the backend's own solve-time check, so this is free.
    counts["solver.warmstart.accepted"] += (
        builder.validated_warm_start() is not None
    )


def _hook_delta(counts, args, kwargs, result):
    counts["db.delta.dirty_rows"] += int(result["dirty_rows"])


#: span name -> (module, qualified attribute, hook).  Several functions
#: may share one span name; they are then one layer row.
BOUNDARIES = (
    ("spaql.parse", "repro.spaql.parser", "parse_query", None),
    ("silp.compile", "repro.silp.compile", "compile_query", None),
    ("core.execute", "repro.core.engine", "SPQEngine.execute", None),
    ("core.compile", "repro.core.engine", "SPQEngine.compile", None),
    ("core.q0", "repro.core.deterministic", "solve_unconstrained", None),
    ("core.bounds", "repro.core.approx", "compute_objective_bounds", None),
    ("core.csa", "repro.core.csa", "csa_solve", _hook_csa),
    ("core.formulate", "repro.core.csa", "formulate_csa", None),
    ("core.summaries", "repro.core.summaries", "SummaryBuilder.build", None),
    ("core.validate", "repro.core.validator", "Validator.validate", _hook_validate),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioGenerator.realize", _hook_realize),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioGenerator.matrix", _hook_realize),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioGenerator.coefficient_matrix", _hook_realize),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioGenerator.coefficient_scenario", _hook_realize),
    ("mcdb.expectation", "repro.mcdb.expectation", "ExpectationEstimator.expression_mean", None),
    ("solver.build", "repro.solver.model", "MILPBuilder.to_arrays", None),
    ("solver.solve", "repro.solver.model", "MILPBuilder.solve", _hook_solve),
    ("parallel.fanout", "repro.parallel.executor", "ParallelScenarioExecutor.coefficient_columns", None),
    ("service.store", "repro.service.store", "ScenarioStore.coefficient_matrix", None),
    ("service.broker", "repro.service.broker", "QueryBroker.submit", None),
    ("service.http", "repro.service.http", "_ServiceHandler.do_POST", None),
    ("scale.partition.build", "repro.scale.partition", "pilot_statistics", None),
    ("scale.partition.build", "repro.scale.partition", "partition_labels", None),
    ("scale.driver", "repro.scale.driver", "scale_sketch_refine_evaluate", None),
    ("db.delta.apply", "repro.db.catalog", "Catalog.apply_delta", _hook_delta),
)

class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: submit start -> ``SPQEngine.execute`` start, one per dispatch.
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[collections.Counter] = []
        #: (query text, seed override) -> submissions not yet executing.
        self._pending: dict[tuple, collections.deque] = {}
        self._futures: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- per-thread state -------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counts(self) -> collections.Counter:
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = collections.Counter()
            with self._lock:
                self._thread_counts.append(counts)
            return counts

    def counts(self) -> collections.Counter:
        """Hook counters merged over every thread that traced anything."""
        total: collections.Counter = collections.Counter()
        with self._lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    # --- span lifecycle ---------------------------------------------------------

    def _open(self, name: str, parent_sid, op_id) -> list:
        # frame: [sid, name, op_id, had_child, last_leaf_child_record]
        frame = [next(self._ids), name, op_id, False, None]
        self._stack().append(frame)
        return frame

    def _close(self, frame, parent, parent_sid, start: float, end: float) -> None:
        self._stack().pop()
        leaf = not frame[3]
        if parent is not None:
            parent[3] = True
            last = parent[4]
            if leaf and last is not None and last[NAME] == frame[1]:
                last[END] = end
                last[BUSY] += end - start
                last[CALLS] += 1
                return
        record = [frame[0], frame[1], parent_sid, frame[2], start, end, end - start, 1]
        self.spans.append(record)
        if parent is not None:
            parent[4] = record if leaf else None

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span around one benchmark operation on this thread."""
        frame = self._open("op", None, op_id)
        start = _clock()
        try:
            yield f"{op_id}:{frame[0]}"
        finally:
            self._close(frame, None, None, start, _clock())

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        link = _LINKS.get(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                if parent[1] == name:
                    return fn(*args, **kwargs)
                parent_sid, op_id = parent[0], parent[2]
            else:
                linked = link(tracer, args, kwargs) if link is not None else None
                if linked is None:
                    return fn(*args, **kwargs)
                parent, (parent_sid, op_id) = None, linked
            frame = tracer._open(name, parent_sid, op_id)
            token = before(tracer, parent_sid, op_id, args, kwargs) if before else None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, parent, parent_sid, start, _clock())
            if after is not None:
                after(tracer, token, result)
            if hook is not None:
                hook(tracer._counts(), args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_warm_start(self, fn):
        tracer = self

        def set_warm_start(builder, x):
            if x is not None and tracer._stack():
                tracer._counts()["solver.warmstart.offered"] += 1
            return fn(builder, x)

        set_warm_start.__wrapped__ = fn
        return set_warm_start

    # --- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary; call once, after the workload's imports."""
        for name, module_name, qualname, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: other modules hold their own
            # reference through ``from x import f`` — rebind those too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        from repro.solver.model import MILPBuilder

        self._patch(
            MILPBuilder,
            "set_warm_start",
            self._count_warm_start(MILPBuilder.set_warm_start),
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------------

    def overhead_per_span(self, n: int = 20_000) -> float:
        """Measured cost of one wrapped call, in seconds (calibration)."""

        def noop(value):
            return value

        wrapped = self._wrap("bench.calibration", noop, lambda c, a, k, r: None)
        saved = self.spans
        self.spans = []
        try:
            with self.op("calibration"):
                start = _clock()
                for i in range(n):
                    wrapped(i)
                traced = _clock() - start
            start = _clock()
            for i in range(n):
                noop(i)
            bare = _clock() - start
        finally:
            self.spans = saved
        return max(traced - bare, 0.0) / n


def self_times(spans) -> dict[str, dict]:
    """``{name: {"calls", "busy_s", "self_s"}}`` over finished spans."""
    child_busy: dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_busy[span[PARENT]] += span[BUSY]
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += span[CALLS]
        row["busy_s"] += span[BUSY]
        row["self_s"] += span[BUSY] - child_busy.get(span[SID], 0.0)
    return out


def compile_cache_hits(spans) -> tuple[int, int]:
    """(``SPQEngine.compile`` calls that never parsed, all compile calls)."""
    compile_ids = {s[SID] for s in spans if s[NAME] == "core.compile"}
    compiles = sum(s[CALLS] for s in spans if s[NAME] == "core.compile")
    parsed = sum(
        s[CALLS]
        for s in spans
        if s[NAME] == "spaql.parse" and s[PARENT] in compile_ids
    )
    return compiles - parsed, compiles


# --- cross-thread links -------------------------------------------------------------
#
# The broker hands work to a pool thread and the HTTP server to a handler
# thread; neither inherits the submitting thread's span stack.  A link
# function gives a wrapper entered on an empty stack its (parent, op_id).


def _submit_key(query, overrides) -> tuple:
    text = query.strip() if isinstance(query, str) else id(query)
    return (text, overrides.get("seed"))


def _before_submit(tracer, parent_sid, op_id, args, kwargs):
    """Queue a link entry for the ``execute`` this submission causes."""
    query = args[1] if len(args) > 1 else kwargs.get("query")
    entry = [_clock(), parent_sid, op_id, True]
    with tracer._lock:
        tracer._pending.setdefault(_submit_key(query, kwargs), collections.deque()).append(entry)
    return entry


def _after_submit(tracer, entry, future) -> None:
    """A dedup join shares a running future: it causes no ``execute``."""
    with tracer._lock:
        if id(future) in tracer._futures:
            entry[3] = False
        else:
            # Holding the future keeps its id from being reused.
            tracer._futures[id(future)] = future


def _link_execute(tracer, args, kwargs):
    """Pool thread: adopt the oldest live submission of the same request."""
    query = args[1] if len(args) > 1 else kwargs.get("query")
    now = _clock()
    with tracer._lock:
        queue = tracer._pending.get(_submit_key(query, kwargs))
        while queue:
            submitted, parent_sid, op_id, live = queue.popleft()
            if live:
                tracer.queue_waits.append(now - submitted)
                return parent_sid, op_id
    return None


def _link_http(tracer, args, kwargs):
    """Handler thread: the client sent its op id and root span id."""
    value = args[0].headers.get(OP_HEADER)
    if not value:
        return None
    op_id, _, root_sid = value.rpartition(":")
    return int(root_sid), op_id


_LINKS = {"core.execute": _link_execute, "service.http": _link_http}
_BEFORE = {"service.broker": _before_submit}
_AFTER = {"service.broker": _after_submit}
