"""Scale smoke: a tiny out-of-core run proving the tier's two invariants.

1. **Budget** — evaluating a query against an on-disk relation keeps the
   ColumnStore's resident chunk-cache bytes under the configured budget
   (the whole point of the tier: the data never has to fit in RAM).
2. **Bit-for-bit parity** — the stochastic SketchRefine driver returns
   the *same* package (tuple keys, multiplicities, objective) whether
   the relation lives in memory or on disk.

Run from the repo root (CI runs it with ``REPRO_SMOKE=1``)::

    PYTHONPATH=src python scripts/scale_smoke.py

Exits non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
N_STOCKS = 1_000 if SMOKE else 5_000
CHUNK_ROWS = 256
RESIDENT_BUDGET = 64 * 1024  # deliberately tiny: forces chunk eviction


def main() -> int:
    from repro import Catalog, SPQConfig
    from repro.datasets.portfolio import (
        PortfolioParams,
        build_portfolio,
        build_portfolio_store,
    )
    from repro.scale.driver import scale_sketch_refine_evaluate
    from repro.scale.partition import PartitionIndex
    from repro.silp.compile import compile_query
    from repro.workloads import get_query

    spec = get_query("portfolio", "Q1")
    params = PortfolioParams(n_stocks=N_STOCKS, seed=17)
    config = SPQConfig(
        seed=1234,
        n_validation_scenarios=1_000,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.5,
        scale_n_partitions=6,
        scale_pilot_scenarios=8,
    )

    def evaluate(relation, model):
        PartitionIndex.clear_memory()
        catalog = Catalog()
        catalog.register(relation, model)
        problem = compile_query(spec.spaql, catalog)
        return scale_sketch_refine_evaluate(problem, config)

    relation, model = build_portfolio(params)
    reference = evaluate(relation, model)
    if not reference.succeeded:
        print(f"FAIL: in-memory reference run infeasible: {reference.message}")
        return 1

    failures = []
    expected = (
        reference.package.key_multiplicities(),
        reference.objective,
    )
    with tempfile.TemporaryDirectory(prefix="scale-smoke-") as tmp:
        store, store_model = build_portfolio_store(
            params,
            os.path.join(tmp, "portfolio"),
            chunk_rows=CHUNK_ROWS,
            resident_budget=RESIDENT_BUDGET,
        )
        result = evaluate(store, store_model)
        if not result.succeeded:
            failures.append(f"disk: infeasible ({result.message})")
        else:
            got = (result.package.key_multiplicities(), result.objective)
            if got != expected:
                failures.append(
                    "disk: package differs from in-memory reference"
                    f" ({got} != {expected})"
                )
        peak = store.peak_resident_bytes
        if peak > RESIDENT_BUDGET:
            failures.append(
                f"resident bytes exceeded budget: peak {peak} >"
                f" {RESIDENT_BUDGET}"
            )
        store.close()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"scale smoke OK: {relation.n_rows} tuples, peak resident"
        f" {peak} B <= budget {RESIDENT_BUDGET} B, disk == memory bit-for-bit"
        f" (objective {reference.objective:.6g},"
        f" {reference.package.total_count} tuples in package)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
