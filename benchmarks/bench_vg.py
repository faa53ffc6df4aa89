"""VG-family realization benchmarks (the correlated-scenario cost model).

The acceptance bar for the correlated subsystem: drawing sector-copula
scenarios must cost no more than ~2x independent Gaussian noise at equal
size, because the one-factor representation ``z = sqrt(rho)*g_sector +
sqrt(1-rho)*eps`` adds exactly one shared shock per block on top of the
one idiosyncratic shock per row.  Tuple-wise mode additionally benefits
from block-keyed RNG streams: one sector block amortizes an entire
column group, whereas independent noise pays one RNG per row.

The Cholesky (estimated-correlation) and mixture paths are recorded for
reference; they trade a constant factor for expressiveness.

GBM (the Portfolio workload) has its own bar: a SketchRefine partition
splits a stock's horizons apart, and realizing such a mixed-horizon
partition must cost per row within 5x of the full relation, whose
stocks all share one horizon grid.  A per-block Python loop on the
partition measures in the hundreds.
"""

import time

import numpy as np

from repro.config import STREAM_OPTIMIZATION
from repro.datasets import CorrelatedPortfolioParams, build_correlated_portfolio
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.mcdb import GaussianNoiseVG, ScenarioGenerator, StochasticModel
from repro.mcdb.scenarios import MODE_SCENARIO_WISE
from repro.utils.rngkeys import make_generator

N_STOCKS = 4_000
M = 64
ROUNDS = 3
#: Acceptance bar, with headroom over the ~1.0-1.3x typically measured.
MAX_RATIO = 2.0
#: Per-row cost of a 250-row mixed-horizon GBM partition over the full
#: relation's (fixed per-scenario overhead puts it near 2x).
GBM_PARTITION_ROWS = 250
GBM_MAX_PER_ROW_RATIO = 5.0


def _best_of(fn, rounds: int = ROUNDS) -> float:
    fn()  # warm-up (binding, allocator, RNG key caches)
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _universe(model_kind: str, **params):
    relation, model = build_correlated_portfolio(
        CorrelatedPortfolioParams(
            n_stocks=N_STOCKS, model=model_kind, seed=17, **params
        )
    )
    return relation, model


def test_copula_realization_within_2x_of_independent_gaussian(benchmark):
    """Sector copula (rho=0.6) vs independent Gaussian, same marginals.

    Both models share the exact base/scale columns, so the measured gap
    is purely the correlation machinery.  Scenario-wise mode (the
    engine's default) is the fair comparison: both draw one vectorized
    scenario per RNG key.
    """
    relation, copula_model = _universe("copula", rho=0.6)
    independent = StochasticModel(
        relation, {"G_ind": GaussianNoiseVG("exp_gain", relation.column("gain_sd"))}
    )
    copula_gen = ScenarioGenerator(
        copula_model, 17, STREAM_OPTIMIZATION, mode=MODE_SCENARIO_WISE
    )
    indep_gen = ScenarioGenerator(
        independent, 17, STREAM_OPTIMIZATION, mode=MODE_SCENARIO_WISE
    )

    indep_best = _best_of(lambda: indep_gen.matrix("G_ind", M))
    copula_times = []

    def measured():
        started = time.perf_counter()
        matrix = copula_gen.matrix("Gain", M)
        copula_times.append(time.perf_counter() - started)
        return matrix

    matrix = benchmark.pedantic(measured, rounds=ROUNDS, iterations=1)
    ratio = min(copula_times) / indep_best
    benchmark.extra_info["n_rows"] = relation.n_rows
    benchmark.extra_info["n_scenarios"] = M
    benchmark.extra_info["independent_best_s"] = indep_best
    benchmark.extra_info["copula_best_s"] = min(copula_times)
    benchmark.extra_info["ratio"] = ratio
    assert ratio <= MAX_RATIO, (
        f"copula realization is {ratio:.2f}x independent Gaussian"
        f" (bar: {MAX_RATIO}x)"
    )
    # Correctness spot-check: same-sector rows co-move, cross-sector
    # rows do not (rules out benchmarking a silently-broken fast path).
    sectors = relation.column("sector")
    same = np.corrcoef(matrix[0], matrix[8])[0, 1]  # both SEC00
    cross = np.corrcoef(matrix[0], matrix[1])[0, 1]  # SEC00 vs SEC01
    assert same > 0.3 and abs(cross) < 0.2
    assert sectors[0] == sectors[8] and sectors[0] != sectors[1]


def test_estimated_correlation_copula_realization(benchmark):
    """Cholesky path (correlation estimated from history columns).

    No hard bar — the per-block matmul is the price of arbitrary
    correlation structure — but the time is recorded so regressions in
    the factorization caching are visible.
    """
    _, model = _universe("copula-historical", rho=0.6, history_days=60)
    generator = ScenarioGenerator(
        model, 17, STREAM_OPTIMIZATION, mode=MODE_SCENARIO_WISE
    )
    benchmark.pedantic(
        lambda: generator.matrix("Gain", M), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["n_rows"] = N_STOCKS
    benchmark.extra_info["n_scenarios"] = M


def test_regime_mixture_realization(benchmark):
    """Calm/crisis mixture of two sector copulas (the regime workload)."""
    _, model = _universe("regime", rho=0.6)
    generator = ScenarioGenerator(
        model, 17, STREAM_OPTIMIZATION, mode=MODE_SCENARIO_WISE
    )
    benchmark.pedantic(
        lambda: generator.matrix("Gain", M), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["n_rows"] = N_STOCKS
    benchmark.extra_info["n_scenarios"] = M


def test_gbm_mixed_horizon_partition_per_row_within_5x_of_full(benchmark):
    """Scenario-wise GBM draws on a SketchRefine-like partition.

    The 2 000-stock portfolio has a 1-day and a 2-day tuple per stock; a
    random 250-row subset keeps only one of them for most stocks, so its
    blocks do not share one horizon grid.  Both sides draw ``M``
    scenarios from one generator through ``sample_all``.
    """
    relation, model = build_portfolio(PortfolioParams(n_stocks=2000, seed=42))
    rows = np.random.default_rng(11).choice(
        relation.n_rows, GBM_PARTITION_ROWS, replace=False
    )
    full_vg = model.vg("Gain")
    part_vg = full_vg.unbound_copy().bind(relation.take(np.sort(rows)))
    grids = {tuple(np.unique(part_vg._horizon[b])) for b in part_vg.blocks}
    assert len(grids) > 1  # the partition really mixes horizon grids

    def draw(vg):
        rng = make_generator(17, 0)
        return [vg.sample_all(rng) for _ in range(M)]

    full_best = _best_of(lambda: draw(full_vg))
    part_times = []

    def measured():
        started = time.perf_counter()
        draw(part_vg)
        part_times.append(time.perf_counter() - started)

    benchmark.pedantic(measured, rounds=ROUNDS, iterations=1)
    ratio = (min(part_times) / GBM_PARTITION_ROWS) / (
        full_best / relation.n_rows
    )
    benchmark.extra_info["n_rows"] = relation.n_rows
    benchmark.extra_info["partition_rows"] = GBM_PARTITION_ROWS
    benchmark.extra_info["n_scenarios"] = M
    benchmark.extra_info["full_best_s"] = full_best
    benchmark.extra_info["partition_best_s"] = min(part_times)
    benchmark.extra_info["per_row_ratio"] = ratio
    assert ratio <= GBM_MAX_PER_ROW_RATIO, (
        f"mixed-horizon GBM partition costs {ratio:.1f}x the full"
        f" relation per row (bar: {GBM_MAX_PER_ROW_RATIO}x)"
    )
