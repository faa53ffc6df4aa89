"""The four ledger workloads.

Each workload is a class with the same small surface — ``setup()``,
``cold_ops()``, ``steady_ops()``, ``verify()``, ``layer_stats()``,
``close()`` — and is driven by ``worker.py``.  A workload only *generates
inputs and calls the system's public API*; all timing lives in the
worker, all span recording in ``trace.py``.

What ``--seed`` does and does not change.  The driver gates on the
spread of every end-to-end metric across ten different seeds, and MILP
solve time is heavy-tailed in the instance: on this box two scenario
seeds of one galaxy query differ 2x, and two delta offsets on
``scale_live`` moved the steady wall by 50%.  So the seed never changes
*which* instances are solved — datasets, the op-seed pool and the delta
rows are fixed — it changes what can vary without resizing the work:
the order of the steady ops, which hot key each request hits and which
seed each deadline request carries, and the order of the quiet deltas.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time

import numpy as np

from repro import Catalog, SPQConfig, SPQEngine
from repro.workloads import get_query

import trace as ledger_trace

#: Seconds the op counts below were calibrated for on the reference box;
#: ``--seconds`` scales the counts linearly from here.
CALIBRATED_SECONDS = 25

#: Dataset synthesis seed (fixed: see the module docstring).
DATASET_SEED = 42

#: Scenario seeds ops draw from (``config.seed`` / ``overrides.seed``).
SEED_POOL = (11, 23, 37, 41, 53, 67, 79, 97)

#: Deterministic constraints per query family, re-evaluated by the
#: harness on every returned package: (min count, max count, max
#: multiplicity, price cap).
FAMILY_RULES = {
    "galaxy": (5, 10, 1, None),
    "tpch": (1, 10, 1, None),
    "portfolio": (None, None, None, 1000.0),
}


def scaled(count: int, seconds: float, floor: int = 1) -> int:
    """``count`` ops at the calibrated length, scaled to ``seconds``."""
    return max(floor, round(count * seconds / CALIBRATED_SECONDS))


class Op:
    """One benchmark operation: a pin key plus ``run(link)`` -> outcome.

    ``link`` is None on untraced runs and the tracer's ``<op>:<span>``
    token on traced ones (only the HTTP client forwards it).  An outcome is a dict with ``feasible``, ``objective``,
    ``multiplicities`` (``{str(key): count}`` or None) and workload
    extras; a raised exception is a failed op.
    """

    __slots__ = ("key", "family", "run", "pinned")

    def __init__(self, key: str, family: str, run, pinned: bool = True):
        self.key = key
        self.family = family
        self.run = run
        #: Deadline-truncated ops return whatever incumbent the clock
        #: allowed, so their verdict and objective are not pinned.
        self.pinned = pinned


def result_outcome(result) -> dict:
    """Outcome of an in-process :class:`repro.PackageResult`."""
    multiplicities = None
    if result.package is not None:
        multiplicities = {
            str(int(k)): int(v)
            for k, v in result.package.key_multiplicities().items()
        }
    return {
        "feasible": bool(result.feasible),
        "objective": None if result.objective is None else float(result.objective),
        "multiplicities": multiplicities,
    }


def constraint_violations(family: str, multiplicities: dict, prices) -> list[str]:
    """Deterministic constraints the returned package breaks (harness-side)."""
    lo, hi, repeat, cap = FAMILY_RULES[family]
    counts = list(multiplicities.values())
    problems = []
    if any(c < 0 for c in counts):
        problems.append("negative multiplicity")
    total = sum(counts)
    if lo is not None and not lo <= total <= hi:
        problems.append(f"COUNT(*)={total} outside [{lo}, {hi}]")
    if repeat is not None and counts and max(counts) > repeat:
        problems.append(f"multiplicity {max(counts)} > REPEAT bound {repeat}")
    if cap is not None:
        spend = sum(prices[int(k)] * c for k, c in multiplicities.items())
        if spend > cap + 1e-6:
            problems.append(f"SUM(price)={spend:.2f} > {cap}")
    return problems


class Workload:
    """Shared plumbing: datasets, pins, answer checks."""

    name = ""
    clients = 1
    deadline_ms = None
    #: Also run the cold phase in the set-up-only subprocesses, so
    #: ``cold_s`` is the fastest of 5 fresh processes.  For workloads
    #: whose cold phase is a single sub-second query (one noisy sample).
    repeat_cold = False

    def __init__(self, seed: int, seconds: float, tmp_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.tmp_dir = tmp_dir
        self.rng = random.Random(seed)
        #: table -> {int key: price} (the harness's own copy).
        self.prices: dict[str, dict] = {}
        self.epsilon = SPQConfig().epsilon
        # Client-side samples behind the service.http / service.qos /
        # scale.driver rows; only the workloads that have them fill them.
        self.http_overheads: list[float] = []
        self.http_statuses: list[int] = []
        self.deadline_samples: list[dict] = []
        self.repairs: list[dict] = []

    def reset_samples(self) -> None:
        """Forget the cold phase's samples: layer rows cover the steady phase."""
        for samples in (
            self.http_overheads, self.http_statuses, self.deadline_samples, self.repairs
        ):
            samples.clear()

    def dataset(self, workload: str, query: str, scale: int):
        spec = get_query(workload, query)
        relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
        if workload == "portfolio":
            self.prices[f"{workload}/{query}@{scale}"] = dict(
                zip(
                    (int(k) for k in relation.key_values()),
                    (float(p) for p in relation.column("price")),
                )
            )
        return spec, relation, model

    def prices_for(self, op: Op) -> dict:
        return self.prices.get(op.key.split("#")[0], {})

    def verify(self, op: Op, outcome: dict, pins: dict | None) -> list[str]:
        """Reasons this op counts as failed (empty list = correct).

        ``pins`` is None only while ``run.py --repin`` records new pins.
        """
        problems = []
        if outcome.get("multiplicities") is not None:
            problems += constraint_violations(
                op.family, outcome["multiplicities"], self.prices_for(op)
            )
        if not op.pinned or pins is None:
            return problems
        pin = pins.get(op.key)
        if pin is None:
            return problems + [f"no pin for {op.key} (run.py --repin)"]
        if bool(outcome["feasible"]) != bool(pin["feasible"]):
            problems.append(
                f"feasible={outcome['feasible']} but pinned {pin['feasible']}"
            )
        elif pin["feasible"]:
            got, want = outcome["objective"], pin["objective"]
            if got is None or abs(got - want) > pin["epsilon"] * max(abs(want), 1e-12):
                problems.append(
                    f"objective {got} outside (1±{pin['epsilon']})·{want}"
                )
        return problems

    def pin_of(self, op: Op, outcome: dict) -> dict:
        return {
            "feasible": bool(outcome["feasible"]),
            "objective": outcome["objective"],
            "epsilon": self.epsilon,
        }

    def layer_stats(self) -> dict:
        """Cumulative public counters, read before and after the run."""
        return {}

    def describe(self) -> str:
        return ""

    def close(self) -> None:
        pass


# --- adhoc_solve / adhoc_validate -------------------------------------------------


class AdhocWorkload(Workload):
    """Closed loop, 1 client: fresh engine per op, no store, no caches."""

    #: (workload, query, scale, config overrides)
    cases: tuple = ()
    #: Pool seeds per case at the calibrated length.
    seeds_per_case = 6
    #: Index of the case run once as the process's first query.
    cold_case = 0
    repeat_cold = True

    def setup(self) -> None:
        self.data = {
            (w, q, n): self.dataset(w, q, n) for w, q, n, _ in self.cases
        }

    def _op(self, case, seed: int) -> Op:
        workload, query, scale, overrides = case
        spec, relation, model = self.data[(workload, query, scale)]

        def run(link):
            engine = SPQEngine()
            engine.register(relation, model)
            return result_outcome(
                engine.execute(
                    spec.spaql, method="summarysearch", seed=seed, **overrides
                )
            )

        return Op(f"{workload}/{query}@{scale}#{seed}", workload, run)

    def cold_ops(self) -> list[Op]:
        # The process's first query: first HiGHS call, first numpy paths.
        return [self._op(self.cases[self.cold_case], SEED_POOL[-1])]

    def steady_ops(self) -> list[Op]:
        n_seeds = min(len(SEED_POOL), scaled(self.seeds_per_case, self.seconds))
        ops = [
            self._op(case, seed)
            for seed in SEED_POOL[:n_seeds]
            for case in self.cases
        ]
        self.rng.shuffle(ops)
        return ops

    def describe(self) -> str:
        return ", ".join(f"{w}/{q} N={n}" for w, q, n, _ in self.cases)


class AdhocSolve(AdhocWorkload):
    name = "adhoc_solve"
    cold_case = 3  # the cheapest, because the cold phase is repeated 5x
    cases = (
        ("galaxy", "Q1", 1200, {}),
        ("galaxy", "Q5", 800, {}),
        ("tpch", "Q1", 1500, {}),
        ("tpch", "Q8", 600, {}),
        ("portfolio", "Q3", 90, {}),
    )


def _validation(n_validation: int, n_expectation: int = 2_000) -> dict:
    return {
        "n_validation_scenarios": n_validation,
        "n_expectation_scenarios": n_expectation,
    }


class AdhocValidate(AdhocWorkload):
    name = "adhoc_validate"
    seeds_per_case = 5
    # Galaxy runs the paper's M-hat = 10^6; TPC-H validates two items per
    # round and GBM paths cost ~30x a Gaussian draw, so those are cut to
    # keep 25 ops inside the run.
    cases = (
        ("galaxy", "Q1", 300, _validation(1_000_000, 20_000)),
        ("galaxy", "Q5", 300, _validation(1_000_000, 20_000)),
        ("tpch", "Q1", 300, _validation(300_000)),
        ("tpch", "Q3", 300, _validation(300_000)),
        ("portfolio", "Q1", 60, _validation(40_000)),
    )


# --- serve_hot --------------------------------------------------------------------------


class ServeHot(Workload):
    """Thread-backend broker behind real loopback HTTP; working set fits."""

    name = "serve_hot"
    clients = 2
    hot_queries = (
        ("galaxy", "Q1", 1000),
        ("tpch", "Q1", 1000),
        ("portfolio", "Q1", 60),
    )
    hot_seeds = SEED_POOL[:4]
    #: Passes over the 12 hot keys in the steady phase (calibrated length).
    plain_passes = 3
    deadline_every = 6
    deadline_ms = 300

    def setup(self) -> None:
        from repro.service import QueryBroker, ScenarioStore, SPQService

        self.catalog = Catalog()
        self.specs = {}
        for workload, query, scale in self.hot_queries:
            spec, relation, model = self.dataset(workload, query, scale)
            self.catalog.register(relation, model)
            self.specs[(workload, query, scale)] = spec
        self.store = ScenarioStore()
        self.broker = QueryBroker(
            self.catalog,
            config=SPQConfig(),
            store=self.store,
            pool_size=2,
            backend="thread",
        )
        self.service = SPQService(self.broker, port=0).start_background()
        self.host, self.port = self.service.address

    def _post(self, body: dict, link: str | None) -> tuple[int, dict, float]:
        headers = {"Content-Type": "application/json"}
        if link is not None:
            headers[ledger_trace.OP_HEADER] = link
        started = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request("POST", "/query", json.dumps(body), headers)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        return response.status, payload, time.perf_counter() - started

    def _op(self, hot, seed: int, deadline: bool) -> Op:
        workload, query, scale = hot
        spec = self.specs[hot]
        body = {
            "query": spec.spaql,
            "method": "summarysearch",
            "overrides": {"seed": seed},
        }
        if deadline:
            body["deadline_ms"] = self.deadline_ms

        def run(link):
            status, payload, latency = self._post(body, link)
            self.http_statuses.append(status)
            if status // 100 != 2:
                raise RuntimeError(f"HTTP {status}: {payload}")
            self.http_overheads.append(latency - payload["wall_time_s"])
            if deadline:
                anytime = payload.get("anytime") or {}
                self.deadline_samples.append(
                    {
                        "met": bool(payload["deadline_met"]),
                        "elapsed_ms": anytime.get("elapsed_ms"),
                        "truncated": bool(anytime.get("stages_truncated")),
                        "feasible": bool(payload["feasible"]),
                    }
                )
            package = payload.get("package")
            return {
                "feasible": bool(payload["feasible"]),
                "objective": payload["objective"],
                "multiplicities": (
                    None
                    if package is None
                    else {k: int(v) for k, v in package["multiplicities"].items()}
                ),
            }

        suffix = f"!{self.deadline_ms}ms" if deadline else ""
        return Op(
            f"{workload}/{query}@{scale}#{seed}{suffix}",
            workload,
            run,
            pinned=not deadline,
        )

    def cold_ops(self) -> list[Op]:
        # One pass over the hot set against an empty store: every
        # realization is a fill.
        return [
            self._op(hot, seed, False)
            for seed in self.hot_seeds
            for hot in self.hot_queries
        ]

    def steady_ops(self) -> list[Op]:
        # A balanced multiset (every hot key equally often), shuffled,
        # with a deadline-carrying galaxy/Q1 as every 6th request.
        hot_keys = [(hot, seed) for seed in self.hot_seeds for hot in self.hot_queries]
        plain = hot_keys * scaled(self.plain_passes, self.seconds)
        self.rng.shuffle(plain)
        deadline_seeds = list(self.hot_seeds)
        self.rng.shuffle(deadline_seeds)
        ops = []
        for i, (hot, seed) in enumerate(plain, start=1):
            ops.append(self._op(hot, seed, False))
            if i % (self.deadline_every - 1) == 0:
                seed = deadline_seeds[len(ops) % len(deadline_seeds)]
                ops.append(self._op(self.hot_queries[0], seed, True))
        return ops

    def layer_stats(self) -> dict:
        status = self.broker.status()
        return {
            "store": self.store.stats().as_dict(),
            "broker": {
                "submitted": status["submitted"],
                "rejected": status["rejected"],
                "deduplicated": status["deduplicated"],
            },
        }

    def describe(self) -> str:
        hot = ", ".join(f"{w}/{q} N={n}" for w, q, n in self.hot_queries)
        return (
            f"{hot} x {len(self.hot_seeds)} seeds; every"
            f" {self.deadline_every}th request galaxy/Q1 with"
            f" deadline_ms={self.deadline_ms}"
        )

    def close(self) -> None:
        self.service.shutdown()
        self.broker.close()
        self.store.close()


# --- scale_live -------------------------------------------------------------------------


class ScaleLive(Workload):
    """Out-of-core SketchRefine with deltas between queries."""

    name = "scale_live"
    n_stocks = 2000
    chunk_rows = 256
    resident_budget = 200_000
    delta_rows = 50
    n_quiet = 3
    n_hot = 3
    table = "stock_investments"

    def setup(self) -> None:
        from repro.datasets.portfolio import PortfolioParams, build_portfolio_store
        from repro.service import ScenarioStore

        # benchmarks/bench_delta.py's solve config, with 16 partitions.
        self.config = SPQConfig(
            n_validation_scenarios=2_000,
            n_initial_scenarios=20,
            scenario_increment=20,
            max_scenarios=60,
            n_expectation_scenarios=500,
            epsilon=0.5,
            solver_time_limit=15.0,
            time_limit=300.0,
            seed=17,
            scale_n_partitions=16,
            scale_pilot_scenarios=16,
        )
        self.epsilon = self.config.epsilon
        self.spec = get_query("portfolio", "Q1")
        self.column_store, model = build_portfolio_store(
            PortfolioParams(n_stocks=self.n_stocks, seed=DATASET_SEED),
            os.path.join(self.tmp_dir, "portfolio"),
            chunk_rows=self.chunk_rows,
            resident_budget=self.resident_budget,
        )
        self.catalog = Catalog()
        self.catalog.register(self.column_store, model)
        self.store = ScenarioStore()
        self.engine = SPQEngine(self.catalog, config=self.config, store=self.store)
        self.ids = np.asarray(self.column_store.column("id")).copy()
        self.price = np.asarray(self.column_store.column("price"), dtype=float).copy()
        self.last_meta: dict = {}

    def prices_for(self, op: Op) -> dict:
        return dict(zip((int(k) for k in self.ids), self.price.tolist()))

    def _query(self, link=None) -> dict:
        result = self.engine.execute(self.spec.spaql, method="sketchrefine")
        self.last_meta = result.meta
        if result.meta.get("delta_repair"):
            self.repairs.append(result.meta["delta_repair"])
        return result_outcome(result)

    def _quiet_rows(self) -> np.ndarray:
        """Rows of the unrefined partition farthest from any refined one.

        Same choice as ``benchmarks/bench_delta.py::_localized_delta``:
        dirty rows re-draw their pilots and rejoin the nearest centroid,
        so only a distant partition's rows stay out of the refined set.
        """
        from repro.scale.partition import PartitionIndex, partition_index_key

        problem = self.engine.compile(self.spec.spaql)
        k = max(1, min(self.config.scale_n_partitions, problem.n_vars))
        labels, pilot = PartitionIndex(problem.relation).get(
            partition_index_key(problem, self.config, k)
        )
        refined = self.last_meta["refined_partitions"]
        groups = range(int(labels.max()) + 1)
        mean = [pilot.mean[labels == g].mean() for g in groups]
        std = [pilot.std[labels == g].mean() for g in groups]

        def distance(g):
            return min(
                (mean[g] - mean[r]) ** 2 + (std[g] - std[r]) ** 2 for r in refined
            )

        target = max((g for g in groups if g not in refined), key=distance)
        return np.nonzero(labels == target)[0]

    def _delta_then_query(self, rows_of) -> dict:
        from repro.db.delta import RelationDelta

        rows = rows_of()
        new_price = np.round(self.price[rows] * 1.02, 2)
        delta = RelationDelta(
            updates={
                int(self.ids[r]): {"price": float(p)} for r, p in zip(rows, new_price)
            }
        )
        self.catalog.apply_delta(self.table, delta)
        self.price[rows] = new_price
        return self._query()

    def cold_ops(self) -> list[Op]:
        # Pilot + index build + sketch + refine, every cache empty.
        return [Op("cold", "portfolio", self._query)]

    def steady_ops(self) -> list[Op]:
        n = self.delta_rows
        quiet_windows = list(range(self.n_quiet))
        self.rng.shuffle(quiet_windows)
        quiet = {}

        def quiet_rows(window):
            if "rows" not in quiet:
                quiet["rows"] = self._quiet_rows()
            return quiet["rows"][window * n : (window + 1) * n]

        ops = [Op("repeat", "portfolio", self._query)]
        for window in quiet_windows:
            ops.append(
                Op(
                    f"quiet{window}",
                    "portfolio",
                    lambda link, w=window: self._delta_then_query(lambda: quiet_rows(w)),
                )
            )
        # Position-contiguous slabs: labels follow pilot behaviour, not
        # position, so a slab touches most partitions, refined included.
        for i in range(scaled(self.n_hot, self.seconds)):
            start = 500 + 700 * i
            ops.append(
                Op(
                    f"hot{i}",
                    "portfolio",
                    lambda link, s=start: self._delta_then_query(
                        lambda: np.arange(s, s + n) % len(self.ids)
                    ),
                )
            )
        return ops

    def layer_stats(self) -> dict:
        from repro.scale.metrics import scale_metrics

        return {
            "store": self.store.stats().as_dict(),
            "scale": scale_metrics.snapshot(),
        }

    def describe(self) -> str:
        return (
            f"portfolio/Q1 sketchrefine, {2 * self.n_stocks} tuples in"
            f" {self.chunk_rows}-row chunks, resident budget"
            f" {self.resident_budget} B, 16 partitions, {self.delta_rows}-row deltas"
        )

    def close(self) -> None:
        self.column_store.close()
        self.store.close()


WORKLOADS = {
    cls.name: cls for cls in (AdhocSolve, AdhocValidate, ServeHot, ScaleLive)
}
