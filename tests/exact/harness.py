"""One exactness harness: every exact mechanism, on and off, over one case table.

The paper promises one thing: a package feasible at confidence p and
within (1+ε) of the optimum.  Every exact optimisation behind that
answer must answer what the code without it does.  Here that is:

* :data:`CASES` — one table of evaluations (query, dataset, method,
  config, store or not, and a run on the same store before it: a repeat
  or a delta), each with the count expectations it pins per mechanism;
* :data:`MECHANISMS` — one table of mechanisms, each with the one
  fixture that flips it *from the test side*;
* :func:`records` — what an evaluation answered: the package, objective,
  ε, gap, message, validation report, every ``IterationRecord`` and every
  consumed rung's ``CSAIteration`` (timings zeroed);
* :func:`check` — on equals off for one (mechanism, case) pair (the
  ``proof`` row, which ends a ladder early, compares the rungs both
  runs solved);
* :data:`KEY_TABLES` — per memo kind, one changed input gives one miss.

Every run is cached by (case, mechanism), so a case's shipped run is
computed once whichever test asks for it first.  The shipped run has the
ladder lane off, so its counts are the calling thread's; the lane is the
one row whose fixture switches its mechanism *on*.  A new mechanism is
one row of :data:`MECHANISMS` plus one flip fixture.
"""

from __future__ import annotations

import collections
import dataclasses
import tempfile
import threading
from typing import Callable

import numpy as np
import pytest

import repro.core.csa as csa_module
import repro.core.naive as naive_module
import repro.core.saa as saa_module
import repro.core.summarysearch as summarysearch
import repro.solver.reduce as reduce_module
from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.core import lane
from repro.core.context import EvaluationContext
from repro.core.validator import Validator
from repro.datasets.portfolio import (
    PortfolioParams,
    build_portfolio,
    build_portfolio_store,
)
from repro.db.delta import RelationDelta
from repro.mcdb import GaussianNoiseVG, StochasticModel, UniformNoiseVG
from repro.mcdb.copula import GaussianCopulaVG
from repro.obs import epsilon_events
from repro.scale import refine_cache
from repro.scale.partition import PartitionIndex
from repro.service import ScenarioStore
from repro.silp.compile import compile_query
from repro.solver import STATUS_OPTIMAL
from repro.solver.model import MILPBuilder
from repro.workloads import get_query

DATASET_SEED = 42
CONFIG = SPQConfig(
    n_validation_scenarios=1_000, n_initial_scenarios=20, scenario_increment=20,
    max_scenarios=60, n_expectation_scenarios=400, n_probe_scenarios=16,
    epsilon=0.5, scale_pilot_scenarios=8,
)
#: ``tests/conftest.py``'s ``fast_config`` (the scale pilot aside): the
#: five items' cases.
FAST_CONFIG = CONFIG.replace(
    max_scenarios=80, solver_time_limit=10.0, time_limit=60.0, seed=123
)
UNTIMED = dict(solve_time=0.0, validate_time=0.0, summary_time=0.0)
#: The memo's three key kinds (``EvaluationContext.memo``).
MEMO_KINDS = ("solve", "validate", "round")


def key_kind(key) -> str:
    """Solve keys are bare model digests; the others name their kind,
    after the model fingerprint when the memo is a store's."""
    if isinstance(key, bytes):
        return "solve"
    return key[0] if key[0] in MEMO_KINDS else key[1]


class Memo:
    """An evaluation's memo, counted per key kind; it forgets the kind
    :attr:`forgets` names (the memo rows' flip)."""

    forgets: str | None = None
    _MISSING = object()

    def __init__(self, inner, counts: dict):
        self.inner, self.asks, self.hits = inner, counts["asks"], counts["hits"]

    def get(self, key, default=None):
        kind, value = key_kind(key), self.inner.get(key, self._MISSING)
        self.asks[kind] += 1
        if value is self._MISSING:
            return default
        self.hits[kind] += 1
        return value

    def __setitem__(self, key, value) -> None:
        if key_kind(key) != self.forgets:
            self.inner[key] = value


# --- datasets: register(engine, directory) -> relation, and the query ---------------


def workload(name, query, scale):
    spec = get_query(name, query)

    def register(engine, directory):
        relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
        engine.register(relation, model)
        return relation

    return register, spec.spaql


def portfolio_q1(n_stocks, on_disk=False, seed=7, delta=None):
    """portfolio/Q1 in memory or as a ColumnStore, optionally after a delta."""
    params = PortfolioParams(n_stocks=n_stocks, seed=seed)

    def register(engine, directory):
        if on_disk:
            relation, model = build_portfolio_store(params, directory, chunk_rows=32)
        else:
            relation, model = build_portfolio(params)
        if delta is not None:
            relation, _ = relation.apply_delta(delta)
            model = StochasticModel(
                relation, {a: model.vg(a).unbound_copy() for a in model.attribute_names}
            )
        engine.register(relation, model)
        return relation

    return register, get_query("portfolio", "Q1").spaql


def table(name, columns, query, sigma=None, value=None, delta=None):
    """A small relation, with Value ~ N(price, sigma) when ``sigma`` is
    given, or the VG ``value()`` builds, optionally after a delta."""
    relation = Relation(name, columns)
    if delta is not None:
        relation, _ = relation.apply_delta(delta)
    if sigma:
        value = lambda: GaussianNoiseVG("price", sigma)  # noqa: E731
    model = value and StochasticModel(relation, {"Value": value()})

    def register(engine, directory):
        engine.register(relation, model)
        return relation

    return register, query


ITEMS = dict(  # ``tests/conftest.py``'s five items
    price=[5.0, 8.0, 3.0, 6.0, 4.0], weight=[2.0, 1.0, 4.0, 3.0, 2.5],
    category=["a", "b", "a", "b", "a"],
)
CHANCE_QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 6 WITH PROBABILITY >= 0.8 MINIMIZE EXPECTED SUM(Value)"
)
#: Value ~ N(price, sd) with a per-row sd column.
SPREAD_ITEMS = dict(ITEMS, sd=[1.0] * 5)
SPREAD = lambda: GaussianCopulaVG("price", scale="sd")  # noqa: E731
_rng = np.random.default_rng(0)
INVENTORY = dict(
    cost=np.round(_rng.uniform(1.0, 20.0, 60), 2),
    value=np.round(_rng.uniform(0.5, 30.0, 60), 2),
)


# --- the case table -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Case:
    dataset: tuple
    method: str = "summarysearch"
    config: SPQConfig = dataclasses.field(default_factory=lambda: CONFIG)
    store: bool = False
    #: mechanism -> whether the case must engage it (absent: no claim).
    expect: dict = dataclasses.field(default_factory=dict)
    #: The rows the case is checked under (None: every row).
    rows: tuple | None = None
    #: Run first on the same store: the relation before a delta, or the
    #: case's own dataset (a repeat).  A flipped run starts from a fresh
    #: store, so it is the recomputed answer the store's must equal; a
    #: row that shares the store (the lane) runs both on one store.
    before: Callable | None = None
    #: For a repeat: the case it repeats, whose fresh-store runs it shares.
    repeats: str | None = None
    #: For a repeat: every solve and validation is served from the store.
    all_served: bool | None = None
    #: The answer must be feasible (None: no claim).
    feasible: bool | None = None
    #: Mechanisms flipped in every run of the case, shipped run included,
    #: so it covers what they would cut short.
    off: tuple = ()


#: A case whose CSA repeats itself serves solves and validations ...
REPEATS = {"solve-memo": True, "validate-memo": True}
#: ... and one whose CSA never does serves nothing.
NO_REPEATS = {"solve-memo": False, "validate-memo": False}
#: A ladder that branches, so the forced lane consumes a rung.
TAKES = {"lane": True}
SEED1, SEED2 = CONFIG.replace(seed=1), CONFIG.replace(seed=2)
DRIVER = CONFIG.replace(seed=5, scale_n_partitions=3)
PORTFOLIO_Q3, TPCH_Q8 = workload("portfolio", "Q3", 60), workload("tpch", "Q8", 100)
CORRELATED_Q2 = workload("portfolio_correlated", "Q2", 30)
PORTFOLIO_Q1_DISK = portfolio_q1(40, on_disk=True)

CASES: dict[str, Case] = {
    # Traced: the records add the ε trajectory.
    "portfolio-q3": Case(
        PORTFOLIO_Q3, config=SEED1.replace(trace_enabled=True),
        expect={**REPEATS, **TAKES},
    ),
    "portfolio-q3-store": Case(
        PORTFOLIO_Q3, config=SEED1, store=True, expect=TAKES, rows=("lane",)
    ),
    "correlated-q2-store": Case(
        CORRELATED_Q2, config=SEED1, store=True,
        expect={"validate-memo": True},
    ),
    "tpch-q3": Case(workload("tpch", "Q3", 120), config=SEED1, expect=REPEATS),
    "tpch-q1-probability-objective": Case(
        workload("tpch", "Q1", 120), config=SEED2, expect=NO_REPEATS
    ),
    # The member bound ends Q8 at its first rung; with it off, the ladder
    # climbs to M_max, which the lane and the memos are checked on.
    "tpch-q8-infeasible": Case(
        TPCH_Q8, config=SEED2, expect=TAKES, feasible=False, off=("proof",)
    ),
    "tpch-q8-infeasible-store": Case(
        TPCH_Q8, config=SEED2, store=True, expect=TAKES, feasible=False,
        off=("proof",),
    ),
    "tpch-q8-proof": Case(
        TPCH_Q8, config=SEED2, expect={"proof": True, "lane": False}, feasible=False
    ),
    "galaxy-q1": Case(workload("galaxy", "Q1", 120), config=SEED1, expect=NO_REPEATS),
    "naive-correlated-q2": Case(CORRELATED_Q2, "naive", SEED2, expect={"lane": False}),
    "naive-tpch-q3": Case(
        workload("tpch", "Q3", 120), "naive", SEED1,
        expect={**NO_REPEATS, "lane": False},
    ),
    "scale-driver-memory": Case(
        portfolio_q1(30), "sketchrefine", DRIVER, expect={**REPEATS, **TAKES}
    ),
    "scale-driver-memory-store": Case(
        portfolio_q1(30), "sketchrefine", DRIVER, store=True, expect=TAKES,
        rows=("lane",),
    ),
    "scale-driver-disk": Case(
        PORTFOLIO_Q1_DISK, "sketchrefine", DRIVER, expect=TAKES, rows=("lane",)
    ),
    "scale-driver-disk-store": Case(
        PORTFOLIO_Q1_DISK, "sketchrefine", DRIVER, store=True,
        expect={**REPEATS, **TAKES},
    ),
    # Core SketchRefine on a deterministic relation builds standalone models.
    "inventory-sketchrefine": Case(
        table("inventory", INVENTORY, "SELECT PACKAGE(*) FROM inventory SUCH THAT"
              " SUM(cost) <= 50 AND COUNT(*) <= 8 MAXIMIZE SUM(value)"),
        "sketchrefine", feasible=True,
        expect={**NO_REPEATS, "incremental": False, "lane": False},
    ),
    "items-chance": Case(
        table("items", ITEMS, CHANCE_QUERY, sigma=1.0), config=FAST_CONFIG,
        feasible=True, expect={"incremental": True, "lane": False},
    ),
    "items-chance-naive": Case(
        table("items", ITEMS, CHANCE_QUERY, sigma=1.0), "naive", FAST_CONFIG,
        expect={"incremental": True},
    ),
    # Large enough for the root-LP reduction (``reduce.MIN_COLUMNS``).
    "galaxy-q1-1200": Case(
        workload("galaxy", "Q1", 1200), config=SPQConfig(seed=11), feasible=True,
        expect={"reduction": True},
    ),
    # The default config on 54 decision columns, every model below the
    # reduction's size floor: the answer the solve-path pins were taken on.
    "portfolio-q3-90": Case(
        workload("portfolio", "Q3", 90), config=SPQConfig(seed=11),
        expect={"reduction": False}, rows=("reduction", "lane"),
    ),
    # The store's memo across a delta answers what a fresh store does (a
    # memo row's flipped run is that fresh store's answer).
    "portfolio-q1-after-delta": Case(
        portfolio_q1(
            40, delta=RelationDelta(updates={3: {"price": 18.0}}, deletes=[17])
        ),
        config=CONFIG.replace(seed=5), store=True, before=portfolio_q1(40)[0],
        feasible=True, rows=("solve-memo", "lane"),
        expect={"solve-memo": True, **TAKES},
    ),
    # An update-only delta that keeps every mean (item 1's spread grows
    # fourfold): only the model fingerprint keeps the store from serving
    # the validations and rounds that answered the package before it.
    "items-chance-after-update": Case(
        table("items", SPREAD_ITEMS, CHANCE_QUERY, value=SPREAD,
              delta=RelationDelta(updates={1: {"sd": 4.0}})),
        config=FAST_CONFIG, store=True, feasible=True,
        before=table("items", SPREAD_ITEMS, CHANCE_QUERY, value=SPREAD)[0],
        rows=tuple(f"{kind}-memo" for kind in MEMO_KINDS),
    ),
}

# The oracle's instances (``tests/exact/oracle.py``): eight tuples and at
# most three of them, so every package can be listed.  They are checked by
# the oracle column only; the five items' cases have both columns.
STOCK = dict(
    price=[5.0, 8.0, 3.0, 6.0, 4.0, 7.0, 2.0, 9.0],
    weight=[2.0, 1.0, 4.0, 3.0, 2.5, 1.5, 3.5, 2.0],
)
GAUSSIAN = lambda: GaussianNoiseVG("price", 1.5)  # noqa: E731
#: Value within 1 of price: a finite, nonnegative support.
UNIFORM = lambda: UniformNoiseVG("price", -1.0, 1.0)  # noqa: E731
ORACLE_SHAPES = {
    "floor": (GAUSSIAN, "COUNT(*) <= 3 AND SUM(Value) >= 9 WITH PROBABILITY"
              " >= 0.8 MINIMIZE EXPECTED SUM(Value)"),
    "cap": (GAUSSIAN, "COUNT(*) <= 3 AND SUM(weight) <= 5 AND SUM(Value) <= 14"
            " WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(Value)"),
    "unreachable": (GAUSSIAN, "COUNT(*) <= 3 AND SUM(Value) >= 40 WITH"
                    " PROBABILITY >= 0.9 MINIMIZE EXPECTED SUM(Value)"),
    # Every package holds a tuple and a tuple only adds Value, so none
    # meets the cap more often than the cheapest tuple, 3/4 of the time:
    # the member bound proves it (``core/approx.py::prove_no_package``).
    "member": (UNIFORM, "COUNT(*) BETWEEN 1 AND 3 AND SUM(Value) <= 2.5 WITH"
               " PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(Value)"),
    # Its twin under a floor, which pairs meet: a tuple's sign helps.
    "member-floor": (UNIFORM, "COUNT(*) BETWEEN 1 AND 3 AND SUM(Value) >= 9"
                     " WITH PROBABILITY >= 0.9 MINIMIZE EXPECTED SUM(Value)"),
}
for _shape, (_value, _such_that) in ORACLE_SHAPES.items():
    _stock = table(
        "stock", STOCK, f"SELECT PACKAGE(*) FROM stock SUCH THAT {_such_that}",
        value=_value,
    )
    for _method in ("summarysearch", "naive"):
        CASES[f"oracle-{_shape}-{_method}"] = Case(_stock, _method, FAST_CONFIG, rows=())
#: The cases small enough for the oracle.
ORACLE_CASES = ["items-chance", "items-chance-naive"] + [
    case_id for case_id in CASES if case_id.startswith("oracle-")
]


def repeat(case_id: str, all_served: bool) -> Case:
    """``case_id`` run twice on one store: the repeat replays its search."""
    case = CASES[case_id]
    return dataclasses.replace(
        case, before=case.dataset[0], repeats=case_id, all_served=all_served,
        rows=tuple(f"{kind}-memo" for kind in MEMO_KINDS) + ("lane",),
    )


CASES["correlated-q2-repeat"] = repeat("correlated-q2-store", all_served=True)
# The driver's sketch is a store-less evaluation of its own, so only the
# partition refines replay from the store.
CASES["scale-driver-disk-repeat"] = repeat("scale-driver-disk-store", all_served=False)


# --- one run ------------------------------------------------------------------------


@dataclasses.dataclass
class Run:
    records: dict
    counts: dict
    #: The traced run's document (spans, events, resources), or None.
    trace: dict | None = None
    #: The run before it on the same store, or None.
    before: "Run | None" = None


def records(result, consumed, trace=None) -> dict:
    """What an evaluation answered, round by round, timings zeroed.

    ``consumed``: the CSA-Solve results the ladders consumed, in ladder
    order.  A traced run adds its ε trajectory, less the memo flags
    (which thread asked a memo first is not part of the answer).
    """
    def asdict(report):
        return None if report is None else dataclasses.asdict(report)

    out = {
        "feasible": result.feasible,
        "multiplicities": (
            None if result.package is None else result.package.multiplicities.tolist()
        ),
        "objective": result.objective,
        "epsilon_upper": result.epsilon_upper,
        "gap": None if result.anytime is None else result.anytime.gap,
        "message": result.message,
        "declared_infeasible": result.stats.declared_infeasible,
        "verdict": result.verdict,
        "validation": asdict(result.validation),
        "records": [
            dataclasses.replace(r, **UNTIMED) for r in result.stats.iterations
        ],
        "rungs": [
            (
                None if r.x is None else r.x.tolist(), r.feasible, r.eps_ok,
                r.cycle_detected, asdict(r.report),
                [dataclasses.replace(i, **UNTIMED) for i in r.iterations],
            )
            for r in consumed
        ],
    }
    if trace is not None:
        out["trajectory"] = [
            {k: v for k, v in e.items()
             if k not in ("ts", "solve_memo", "validate_memo")}
            for e in epsilon_events(trace["events"])
        ]
    return out


def evaluate(case: Case, flip=None, store=None, register=None) -> Run:
    """One evaluation of ``case`` with the lane and the case's ``off``
    mechanisms off, then ``flip`` applied.

    ``store`` evaluates on that ScenarioStore (else on a fresh one if the
    case has a store); ``register`` replaces the case's dataset.  The
    counts say what each mechanism did: memo asks and hits per key kind,
    solves the reduction took, template clones, warm starts installed,
    ladders that reached a second rung, infeasibility proofs, and the
    query's lane rungs.
    """
    counts = {
        "asks": collections.Counter(), "hits": collections.Counter(),
        "reductions": 0, "clones": 0, "warm_starts": 0, "transitions": 0,
        "proofs": 0,
    }
    consumed = []

    def wrap(real, after):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            after(out, *args)
            return out
        return call

    def tally(name, hit=bool):
        def after(out, *args):
            counts[name] += bool(hit(out))
        return after

    def on_rung(outcome, *args):
        if threading.current_thread().name != lane.THREAD_NAME:
            consumed.append(outcome[0])
            counts["transitions"] += args[7] == 2  # the ladder's second rung

    def on_take(outcome, *args):
        if outcome is not None:
            consumed.append(outcome[0])

    def on_init(_, ctx, *args):
        ctx.memo = Memo(ctx.memo, counts)

    PartitionIndex.clear_memory()
    refine_cache.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lane, "ENABLED", False)
        for mechanism in case.off:
            MECHANISMS[mechanism].flip(patch)
        if flip is not None:
            flip(patch)
        for owner, name, after in [
            (EvaluationContext, "__init__", on_init),
            (MILPBuilder, "solve", tally("reductions", lambda r: "reduction" in r.meta)),
            (MILPBuilder, "clone", tally("clones", lambda out: True)),
            (csa_module, "apply_warm_start", tally("warm_starts")),
            (saa_module, "apply_warm_start", tally("warm_starts")),
            (summarysearch, "_solve_rung", on_rung),
            (summarysearch._Ahead, "take", on_take),
            (summarysearch, "prove_no_package", tally("proofs")),
            (naive_module, "prove_no_package", tally("proofs")),
        ]:
            patch.setattr(owner, name, wrap(getattr(owner, name), after))
        if store is None and case.store:
            store = ScenarioStore()
        engine = SPQEngine(config=case.config, store=store)
        with tempfile.TemporaryDirectory() as directory:
            relation = (register or case.dataset[0])(engine, directory)
            try:
                result = engine.execute(case.dataset[1], method=case.method)
            finally:
                if hasattr(relation, "close"):
                    relation.close()
    PartitionIndex.clear_memory()
    refine_cache.clear()
    usage = result.anytime.resources
    for kind in ("started", "consumed", "discarded"):
        counts[f"lane_{kind}"] = usage.get(f"lane_rungs_{kind}", 0)
    counts["cpu_s"] = usage.get("cpu_s", 0.0)
    return Run(records(result, consumed, engine.last_trace), counts, engine.last_trace)


_RUNS: dict = {}


def run(case_id: str, mechanism: str | None = None) -> Run:
    """``case_id`` as shipped (``mechanism`` None), or with one mechanism
    flipped; each computed once per session.  The shipped run, and a
    flipped run of a row that shares the store, run the case's before run
    first on the same store; any other flipped run starts afresh."""
    case = CASES[case_id]
    row = mechanism and MECHANISMS[mechanism]
    shared = row is None or row.shares_store
    if not shared and case.repeats is not None:
        return run(case.repeats, mechanism)
    key = (case_id, mechanism)
    if key not in _RUNS:
        flip = row and row.flip
        store = ScenarioStore() if case.store and shared else None
        before = shared and case.before and evaluate(case, flip, store, case.before)
        _RUNS[key] = evaluate(case, flip, store)
        _RUNS[key].before = before or None
    return _RUNS[key]


# --- the mechanism table ------------------------------------------------------------


def forget(kind: str):
    return lambda patch: patch.setattr(Memo, "forgets", kind)


def unreduced(patch) -> None:
    """Every model below the reduction's size floor."""
    patch.setattr(reduce_module, "MIN_COLUMNS", 10**9)


def cold_models(patch) -> None:
    """Every formulation builds its base model from scratch, unhinted."""
    patch.setattr(EvaluationContext, "base_milp", EvaluationContext.build_base_milp)
    for module in (csa_module, saa_module):
        patch.setattr(module, "apply_warm_start", lambda *args: False)


def unprovable(patch) -> None:
    """The member bound never proves a query infeasible."""
    for module in (summarysearch, naive_module):
        patch.setattr(module, "prove_no_package", lambda ctx: None)


def same_records(on: Run, flipped: Run) -> bool:
    return flipped.records == on.records


def same_first_rungs(on: Run, flipped: Run) -> bool:
    """A proof ends the ladder at the rung that asked for it: the run
    without it climbs on from the same rungs to the same feasibility."""
    n = len(on.records["records"])
    return on.records["feasible"] == flipped.records["feasible"] and all(
        flipped.records[key][:n] == on.records[key] for key in ("records", "rungs")
    )


def force_lane(patch) -> None:
    """The ladder lane on for every rung after a ladder's first transition,
    whatever the box's CPU count and each rung's solver share."""
    patch.setattr(lane, "ENABLED", True)
    patch.setattr(lane, "usable_cpus", lambda: 2)
    patch.setattr(summarysearch, "LANE_SOLVE_SHARE", 0.0)


@dataclasses.dataclass(frozen=True)
class Mechanism:
    #: The fixture that flips the mechanism from the test side.
    flip: Callable
    #: How much of it a shipped run used (0: the flip changes nothing).
    engaged: Callable[[dict], int]
    #: What a flipped run's counts must say.
    flipped: Callable[[dict], bool]
    #: The flipped run of a case with a before run replays that run on
    #: its own store too (else it starts from a fresh store).
    shares_store: bool = False
    #: What the flipped run must answer of the shipped one's answer.
    agrees: Callable[[Run, Run], bool] = same_records


def _memo_row(kind: str) -> Mechanism:
    hits = lambda counts: counts["hits"][kind]  # noqa: E731
    return Mechanism(forget(kind), hits, lambda counts: hits(counts) == 0)


MECHANISMS: dict[str, Mechanism] = {
    **{f"{kind}-memo": _memo_row(kind) for kind in MEMO_KINDS},
    "reduction": Mechanism(
        unreduced, lambda c: c["reductions"], lambda c: c["reductions"] == 0
    ),
    "incremental": Mechanism(
        cold_models,
        lambda c: c["clones"] + c["warm_starts"],
        lambda c: c["clones"] == c["warm_starts"] == 0,
    ),
    # The one row whose fixture switches its mechanism on: a lane rung
    # starts after a ladder's first transition, and every started rung
    # is consumed or discarded.  Its thread reads and writes a store's
    # memo while the caller replays from it, so a repeat or a delta runs
    # the lane on the shared store.
    "lane": Mechanism(
        force_lane,
        lambda c: c["transitions"],
        lambda c: c["lane_started"] == c["lane_consumed"] + c["lane_discarded"],
        shares_store=True,
    ),
    # Not exact in its counts: a proof ends the ladder early, so the
    # flipped run answers the same from more rungs.
    "proof": Mechanism(
        unprovable,
        lambda c: c["proofs"],
        lambda c: c["proofs"] == 0,
        agrees=same_first_rungs,
    ),
}

#: Every checked (mechanism, case) pair.
PAIRS = [
    (mechanism, case_id)
    for case_id, case in CASES.items()
    for mechanism in MECHANISMS
    if (case.rows is None or mechanism in case.rows) and mechanism not in case.off
]

# Older test names check some pairs (tests/core/test_memo_exact.py,
# test_ladder_lane.py, test_incremental_solves.py, and
# tests/solver/test_reduce_pins.py); the matrix (test_exact.py) checks
# the others, so each pair has one entry point.
MEMO_ROWS = tuple(f"{kind}-memo" for kind in MEMO_KINDS)
MEMO_CASES = (
    "portfolio-q3", "correlated-q2-store", "tpch-q3",
    "tpch-q1-probability-objective", "tpch-q8-infeasible-store", "galaxy-q1",
    "naive-correlated-q2", "naive-tpch-q3", "scale-driver-memory",
    "scale-driver-disk-store",
)
MEMO_LANE_CASES = (
    "portfolio-q3", "correlated-q2-store", "tpch-q3", "scale-driver-memory",
    "scale-driver-disk-store",
)
REPEAT_CASES = ("correlated-q2-repeat", "scale-driver-disk-repeat")
DELTA_CASE = "portfolio-q1-after-delta"
#: The ladder lane's old case names -> the private case and its store twin.
LADDER_CASES = {
    "portfolio-q3-quality-ladder": ("portfolio-q3", "portfolio-q3-store"),
    "tpch-q8-infeasible-ladder": ("tpch-q8-infeasible", "tpch-q8-infeasible-store"),
    "scale-driver-memory": ("scale-driver-memory", "scale-driver-memory-store"),
    "scale-driver-column-store": ("scale-driver-disk", "scale-driver-disk-store"),
}
NAMED = {
    *((row, case_id) for row in MEMO_ROWS for case_id in (
        *MEMO_CASES, *REPEAT_CASES, DELTA_CASE, "inventory-sketchrefine"
    )),
    *(("lane", case_id) for case_id in (
        *MEMO_LANE_CASES, *REPEAT_CASES, DELTA_CASE, "portfolio-q3-90",
        *sum(LADDER_CASES.values(), ()),
    )),
    ("incremental", "items-chance"), ("incremental", "items-chance-naive"),
}
MATRIX = [pair for pair in PAIRS if pair not in NAMED]


def shipped(case_id: str) -> Run:
    """The shipped run of ``case_id``, and what the case pins about it."""
    case, out = CASES[case_id], run(case_id)
    assert (out.counts["lane_started"], out.counts["lane_consumed"]) == (0, 0)
    if case.feasible is not None:
        assert out.records["feasible"] is case.feasible
    if case.all_served is not None:
        first = out.before
        assert first.records == out.records
        # The repeat asks the same questions (a replayed round is a solve
        # asked and served) and is served what the first run computed.
        for (asked, served), (again, served_again) in zip(
            _questions(first.counts), _questions(out.counts)
        ):
            assert again == asked and served_again > served
            if case.all_served:
                assert served_again == again
    return out


def _questions(counts) -> list:
    """(asked, served) solves and validations."""
    asks, hits = counts["asks"], counts["hits"]
    return [(asks["solve"] + hits["round"], hits["solve"] + hits["round"]),
            (asks["validate"], hits["validate"])]


def check_rows(rows, case_id: str) -> None:
    """:func:`check` for each of ``rows`` the case is checked under."""
    for mechanism in rows:
        if (mechanism, case_id) in PAIRS:
            check(mechanism, case_id)


def check(mechanism: str, case_id: str) -> None:
    """On equals off for one (mechanism, case) pair.

    A pair whose shipped run never used the mechanism is equal by
    construction (its flip changes nothing the run reaches), unless the
    case has a before run: its flipped run differs in the store too, so
    it is always compared.  The case's expectation says whether the
    shipped run must have used the mechanism.
    """
    case, row = CASES[case_id], MECHANISMS[mechanism]
    on = shipped(case_id)
    engaged = row.engaged(on.counts)
    expected = case.expect.get(mechanism)
    if mechanism == "round-memo":
        # A pre-fit round key never recurs in one query ((M, Z) is unique
        # per rung, histories only grow): only a repeat replays rounds.
        expected = case.repeats is not None
    if expected is not None:
        assert bool(engaged) is expected, (mechanism, engaged)
    if not engaged and case.before is None:
        return
    flipped = run(case_id, mechanism)
    assert row.agrees(on, flipped)
    assert row.flipped(flipped.counts)
    if flipped.before is not None:
        assert row.agrees(on.before, flipped.before)
        assert row.flipped(flipped.before.counts)
    if mechanism == "lane" and expected:
        assert flipped.counts["lane_consumed"] >= 1


def assert_same_arrays(a, b) -> None:
    """Two ``MILPBuilder.to_arrays()`` tuples hold the same model."""
    for got, want in zip(a, b):
        if hasattr(got, "toarray"):
            got, want = got.toarray(), want.toarray()
        np.testing.assert_array_equal(got, want)


# --- one key-sensitivity table per memo kind: one changed input, one miss -----------


def keyed_model(c=(3.0, 2.0, 4.0), weight=2.0, row_lb=-np.inf, row_ub=4.0,
                var_lb=0.0, var_ub=3.0, integer=True, column=1, memo=None):
    builder = MILPBuilder()
    builder.solve_memo = memo
    idx = builder.add_variables("x", 3, lb=var_lb, ub=var_ub, integer=integer)
    builder.add_constraint(idx, [1.0, weight, 1.0], lb=row_lb, ub=row_ub)
    builder.add_constraint([0, column], [1.0, 1.0], ub=3.0)
    builder.set_objective(idx, list(c), "maximize")
    return builder


def solve_miss(change: dict) -> None:
    """Everything HiGHS is given is in the solve key."""
    memo: dict = {}
    assert keyed_model(memo=memo).solve().status == STATUS_OPTIMAL and len(memo) == 1
    change = dict(change)
    mip_gap = change.pop("mip_gap", 1e-6)
    result = keyed_model(memo=memo, **change).solve(mip_gap=mip_gap)
    assert "memo" not in result.meta and len(memo) == 2
    np.testing.assert_array_equal(
        result.x, keyed_model(**change).solve(mip_gap=mip_gap).x
    )
    # ... while the unchanged model, from a new builder, is a hit.
    again = keyed_model(memo=memo).solve()
    assert again.meta["memo"] is True and len(memo) == 2
    np.testing.assert_array_equal(again.x, keyed_model().solve().x)


# Rows 0 and 1 are alike in every deterministic column, so the two WHERE
# clauses give identical base models over different optimization rows.
KEYED_QUERY = (
    "SELECT PACKAGE(*) FROM items WHERE {where} SUCH THAT COUNT(*) <= 3 AND"
    " SUM(weight) <= {cap} AND SUM(Value) >= {rhs} WITH PROBABILITY >= 0.8"
    " MINIMIZE EXPECTED SUM(Value)"
)
KEYED_ITEMS = Relation("items", dict(
    price=[5.0, 5.0, 3.0, 6.0, 4.0, 7.0], weight=[2.0, 2.0, 4.0, 3.0, 2.5, 1.0],
    a=[1.0, 0.0, 1.0, 1.0, 1.0, 1.0], b=[0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
))


def keyed_context(store=None, where="a >= 1", cap=9, rhs=9, **config):
    catalog = Catalog()
    catalog.register(KEYED_ITEMS, StochasticModel(
        KEYED_ITEMS, {"Value": GaussianNoiseVG("price", 2.0)}
    ))
    problem = compile_query(KEYED_QUERY.format(where=where, cap=cap, rhs=rhs), catalog)
    config = CONFIG.replace(**{
        "n_validation_scenarios": 500, "n_expectation_scenarios": 200, "seed": 3,
        **config,
    })
    return EvaluationContext(problem, config, store=store)


def round_key(ctx, M=20, Z=2, history=((0.0, -0.3), (0.5, -0.1)), x=(1, 0, 1, 0, 0)):
    return csa_module._round_key(ctx, M, Z, [history], np.asarray(x, dtype=np.int64))


def round_miss(change: tuple) -> None:
    """Every input a CSA round is built from is in the round key."""
    store = ScenarioStore()
    base = round_key(keyed_context(store))
    # The same inputs from a fresh context on the same store: a hit.
    assert round_key(keyed_context(store)) == base
    context_change, round_change = change
    changed = round_key(keyed_context(store, **context_change), **round_change)
    assert changed != base
    # One model: both answers sit under its fingerprint, and a delta
    # that supersedes it takes both along.
    assert changed[:2] == base[:2] == (base[0], "round")


def validate_miss(change: tuple) -> None:
    """Every input a satisfied count depends on is in the validation key."""
    store = ScenarioStore()

    def hits(x=(1, 0, 1, 0, 0), **config):
        ctx = keyed_context(store, **config)
        validator = Validator(ctx)
        validator.satisfied_count(np.asarray(x), ctx.chance_items()[0])
        return validator.memo_hits, len(store.memo)

    context_change, package = change
    assert hits() == (0, 1)
    assert hits(**package, **context_change) == (0, 2)
    assert hits() == (1, 2)


#: kind -> (the check, change id -> the one changed input).  The solve
#: and round tables are checked under their older test names
#: (test_memo_exact.py, test_round_memo.py).
KEY_TABLES = {
    "solve": (solve_miss, {
        "c": dict(c=(3.0, 2.5, 4.0)),
        "weight": dict(weight=1.0),  # A.data
        "column": dict(column=2),  # A.indices
        "row_lb": dict(row_lb=1.0),
        "row_ub": dict(row_ub=5.0),
        "var_lb": dict(var_lb=1.0),
        "var_ub": dict(var_ub=2.0),
        "integer": dict(integer=False),
        "mip_gap": dict(mip_gap=0.5),
    }),
    # (context change, package change)
    "validate": (validate_miss, {
        "x": (dict(), dict(x=(1, 0, 0, 1, 0))),
        "rhs": (dict(rhs=10), dict()),
        "seed": (dict(seed=4), dict()),
        "scenarios": (dict(n_validation_scenarios=400), dict()),
        "active_rows": (dict(where="b >= 1"), dict()),
    }),
    # (context change, round change)
    "round": (round_miss, {
        "M": (dict(), dict(M=40)),
        "Z": (dict(), dict(Z=4)),
        "seed": (dict(seed=4), dict()),
        "mip_gap": (dict(mip_gap=1e-3), dict()),
        "rhs": (dict(cap=10), dict()),
        "active_rows": (dict(where="b >= 1"), dict()),
        "x": (dict(), dict(x=(1, 0, 0, 1, 0))),
        "alpha": (dict(), dict(history=((0.0, -0.3), (0.6, -0.1)))),
        "surplus": (dict(), dict(history=((0.0, -0.3), (0.5, -0.2)))),
    }),
}


def assert_one_miss(kind: str, change: str) -> None:
    miss, changes = KEY_TABLES[kind]
    miss(changes[change])
