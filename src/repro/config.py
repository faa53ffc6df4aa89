"""Runtime configuration for stochastic package query evaluation.

The paper's algorithms expose a number of knobs (Algorithm 1 and 2
headers): the number of out-of-sample validation scenarios ``M_hat``, the
initial number of optimization scenarios ``M0`` and its increment ``m``,
the summary-count increment ``z``, and the user approximation bound
``epsilon``.  :class:`SPQConfig` bundles these together with
implementation knobs (seeds, limits, serving and scale settings) so
that an entire evaluation is reproducible from one object.

The paper's defaults (``M_hat = 1e6``/``1e7``, four-hour time limits) are
impractical for a test suite; the library defaults are scaled down but
every experiment script accepts paper-scale values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import EvaluationError

#: Seeding streams; keep values stable, they feed RNG key derivation.
STREAM_OPTIMIZATION = 0
STREAM_VALIDATION = 1
STREAM_EXPECTATION = 2
STREAM_DATASET = 3
STREAM_PROBE = 4
STREAM_PARTITION = 5


@dataclass
class SPQConfig:
    """All knobs controlling one stochastic package query evaluation.

    Attributes mirror the symbols used in the paper where applicable:

    * ``n_validation_scenarios`` — ``M̂``, out-of-sample validation size.
    * ``n_initial_scenarios`` — ``M``, initial optimization scenarios.
    * ``scenario_increment`` — ``m``, added to ``M`` on validation failure.
    * ``summary_increment`` — ``z``, added to ``Z`` when a feasible but
      insufficiently accurate solution is found (Algorithm 2, line 9).
    * ``epsilon`` — user approximation error bound (``ε ≥ ε_min``).
    * ``max_scenarios`` — cap on ``M`` before declaring failure (the paper
      grows ``M`` up to 1000 before declaring TPC-H Q8 infeasible).
    """

    # --- Monte Carlo sizes -------------------------------------------------
    n_validation_scenarios: int = 10_000
    n_initial_scenarios: int = 100
    scenario_increment: int = 100
    max_scenarios: int = 1_000

    # --- SummarySearch -----------------------------------------------------
    initial_summaries: int = 1
    summary_increment: int = 1
    epsilon: float = 0.10
    #: Maximum number of quality-refinement rounds (Z-growth steps taken
    #: after a feasible solution exists, Algorithm 2 line 9) before the
    #: best feasible solution is accepted.  ``None`` reproduces the
    #: paper's unbounded behaviour (grow Z all the way to M).
    max_quality_rounds: int | None = 8

    # --- expectation estimation (Section 3.2) ------------------------------
    #: Number of Monte Carlo scenarios averaged to estimate E[t_i.A] when
    #: the VG function has no closed-form mean.
    n_expectation_scenarios: int = 2_000

    # --- bounds probing (Appendix B, assumption A1) -------------------------
    #: Scenarios sampled to estimate empirical value bounds (s̲, s̄) when
    #: the VG support is unbounded.
    n_probe_scenarios: int = 64

    # --- scale-driver refine pool -------------------------------------------
    #: Worker processes for the scale driver's refine step (1 = refine
    #: partitions in-process).  Refines are order-independent, so the
    #: package is bit-identical for any worker count.  Nothing else
    #: reads it: scenarios are always realized in the query's process.
    n_workers: int = 1

    # --- stochastic model construction ---------------------------------------
    #: VG-registry overrides ``("Attr=kind:param=value,...", ...)`` applied
    #: wherever a catalog is assembled from this config — the CLI's
    #: ``--table``/``--workload`` registration and
    #: ``QuerySpec.build_dataset`` both route through
    #: :func:`repro.mcdb.apply_vg_overrides`.  Each entry replaces (or
    #: adds) one stochastic attribute with a VG built by name from the
    #: registry (see :func:`repro.mcdb.vg_names`), e.g.
    #: ``"Gain=gaussian_copula:base_column=exp_gain,rho=0.6,group_column=sector"``.
    vg_overrides: tuple = ()

    # --- serving (repro.service) --------------------------------------------
    #: Byte budget for resident scenario matrices in the shared
    #: ScenarioStore (None = unlimited).  Under pressure the store spills
    #: LRU entries to np.memmap files (or evicts, see
    #: ``scenario_store_spill``) without changing query results.
    scenario_store_budget: int | None = None
    #: Whether the store spills over-budget entries to disk-backed
    #: memmaps (True) or evicts them outright (False).
    scenario_store_spill: bool = True
    #: Engine sessions (worker threads) in the QueryBroker's pool.
    service_pool_size: int = 4
    #: Admission-control ceiling on queued+running broker queries;
    #: ``None`` defaults to ``4 * service_pool_size``.
    service_max_pending: int | None = None

    # --- out-of-core scale tier (repro.scale) --------------------------------
    #: Partition count for the stochastic SketchRefine driver (method
    #: ``"sketchrefine"``): active tuples are quantile-cut into this many
    #: groups of similar pilot behaviour, one sketch representative each.
    #: Clamped to the number of active tuples.
    scale_n_partitions: int = 16
    #: Pilot scenarios realized (stream ``STREAM_PARTITION``, cached in
    #: the shared scenario store) to estimate per-tuple mean/variance for
    #: partitioning and the sketch representatives' parameters.
    scale_pilot_scenarios: int = 16
    #: Byte budget for a ColumnStore's resident chunk cache (None =
    #: unbounded).  Applies to stores opened through this config (the
    #: CLI's ``--table DIR --scale-budget``); peak usage is surfaced as
    #: the ``repro_scale_resident_peak_bytes`` gauge.  A
    #: ``summarysearch`` query whose scenario footprint exceeds its
    #: store's budget routes to the scale driver (``docs/scaling.md``).
    scale_resident_budget: int | None = None

    # --- observability (repro.obs) ------------------------------------------
    #: Record trace spans for every evaluation (parse/compile/solve/
    #: validate stages, plus broker/worker spans when serving).  The
    #: disabled path reduces every instrumentation point to a shared
    #: no-op object; enabled overhead is bounded by the warm-query
    #: benchmark (<2%, ``benchmarks/bench_service.py``).
    trace_enabled: bool = True
    #: Completed traces kept in the broker's in-memory ring for
    #: ``GET /trace/<id>`` (oldest evicted beyond this).
    trace_ring_size: int = 256
    #: Broker queries slower than this are appended to the slow-query
    #: JSONL log; ``None`` uses the log's default (1s) when a log path
    #: is set.
    slow_query_threshold_s: float | None = None
    #: Path of the slow-query JSONL log; ``None`` disables it.
    slow_query_log: str | None = None
    #: Rotate the slow-query log (copy-truncate to ``<path>.1``) once an
    #: append would push it past this many bytes; ``None`` never rotates.
    slow_query_log_max_bytes: int | None = None

    # --- solving -----------------------------------------------------------
    solver_time_limit: float = 60.0
    mip_gap: float = 1e-6

    # --- reproducibility ---------------------------------------------------
    seed: int = 42

    # --- evaluation budget ---------------------------------------------------
    time_limit: float = 3600.0
    #: Per-query latency budget in milliseconds (QoS tier).  ``None``
    #: leaves only ``time_limit`` in force.  When set, evaluation runs
    #: *anytime*: on expiry the best validated incumbent found so far is
    #: returned with a relative optimality gap (``PackageResult.anytime``)
    #: instead of raising a timeout.  The serving layer rejects
    #: already-expired work at admission and orders the broker queue
    #: earliest-deadline-first (see ``docs/qos.md``).
    deadline_ms: float | None = None

    def effective_time_limit(self) -> float:
        """The per-evaluation wall budget in seconds.

        The tighter of the batch ``time_limit`` and the per-query
        ``deadline_ms``; evaluators build their :class:`Deadline` from
        this so a QoS deadline and the paper's run budget share one
        enforcement path.
        """
        if self.deadline_ms is None:
            return self.time_limit
        return min(self.time_limit, self.deadline_ms / 1000.0)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`EvaluationError` if any knob is out of range."""
        if self.n_validation_scenarios < 1:
            raise EvaluationError("n_validation_scenarios must be >= 1")
        if self.n_initial_scenarios < 1:
            raise EvaluationError("n_initial_scenarios must be >= 1")
        if self.scenario_increment < 1:
            raise EvaluationError("scenario_increment must be >= 1")
        if self.max_scenarios < self.n_initial_scenarios:
            raise EvaluationError("max_scenarios must be >= n_initial_scenarios")
        if self.initial_summaries < 1:
            raise EvaluationError("initial_summaries must be >= 1")
        if self.summary_increment < 1:
            raise EvaluationError("summary_increment must be >= 1")
        if self.epsilon < 0:
            raise EvaluationError("epsilon must be nonnegative")
        if self.time_limit <= 0:
            raise EvaluationError("time_limit must be positive")
        if self.deadline_ms is not None:
            if isinstance(self.deadline_ms, bool) or not isinstance(
                self.deadline_ms, (int, float)
            ):
                raise EvaluationError("deadline_ms must be a number or None")
            if not math.isfinite(self.deadline_ms):
                raise EvaluationError("deadline_ms must be finite")
            if self.deadline_ms <= 0:
                raise EvaluationError("deadline_ms must be positive or None")
        if self.n_workers < 1:
            raise EvaluationError("n_workers must be >= 1")
        if isinstance(self.vg_overrides, str):
            raise EvaluationError(
                "vg_overrides must be a sequence of specs, not a bare string"
            )
        for spec in self.vg_overrides:
            # Fail fast on malformed specs/unknown families; construction
            # is relation-free so this is safe at validation time.
            from .mcdb.stochastic import parse_attribute_vg

            parse_attribute_vg(spec)
        if self.scenario_store_budget is not None and self.scenario_store_budget < 1:
            raise EvaluationError("scenario_store_budget must be positive or None")
        if self.service_pool_size < 1:
            raise EvaluationError("service_pool_size must be >= 1")
        if self.service_max_pending is not None and self.service_max_pending < 1:
            raise EvaluationError("service_max_pending must be positive or None")
        if self.scale_n_partitions < 1:
            raise EvaluationError("scale_n_partitions must be >= 1")
        if self.scale_pilot_scenarios < 2:
            raise EvaluationError(
                "scale_pilot_scenarios must be >= 2 (variance needs two draws)"
            )
        if self.scale_resident_budget is not None and self.scale_resident_budget < 1:
            raise EvaluationError("scale_resident_budget must be positive or None")
        if self.trace_ring_size < 1:
            raise EvaluationError("trace_ring_size must be >= 1")
        if self.slow_query_threshold_s is not None and self.slow_query_threshold_s < 0:
            raise EvaluationError("slow_query_threshold_s must be >= 0 or None")
        if self.slow_query_log_max_bytes is not None and (
            self.slow_query_log_max_bytes < 1
        ):
            raise EvaluationError(
                "slow_query_log_max_bytes must be >= 1 or None"
            )

    def replace(self, **changes) -> "SPQConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


#: A conservative default configuration used across tests and examples.
DEFAULT_CONFIG = SPQConfig()


def paper_scale_config() -> SPQConfig:
    """Configuration matching the paper's experimental setup (Section 6).

    Only use this for long-running experiments: validation uses one
    million scenarios and the time limit is four hours.
    """
    return SPQConfig(
        n_validation_scenarios=1_000_000,
        n_initial_scenarios=100,
        scenario_increment=100,
        max_scenarios=1_000,
        time_limit=4 * 3600.0,
        solver_time_limit=4 * 3600.0,
    )
