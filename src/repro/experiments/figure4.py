"""Figure 4: end-to-end time to reach 100% feasibility rate.

For every query of the selected workloads, both algorithms run
``--runs`` times with i.i.d. optimization seeds.  Reported per
(query, method): the final feasibility rate, the average cumulative
response time (with 95% confidence half-width), the average number of
optimize/validate iterations, and the final scenario count ``M``.

Paper shapes to expect: SummarySearch reaches 100% feasibility on every
feasible query; Naïve only on a minority, and where both succeed
SummarySearch is typically faster by orders of magnitude.  TPC-H Q8 is
declared infeasible by both: at the first rung, with verdict
``proved_infeasible``, when the member bound
(``core/approx.py::prove_no_package``) proves that no package can reach
its probability, and otherwise once M reaches ``M_max``, as the paper's
algorithms always do.
"""

from __future__ import annotations

import argparse

from ..utils.textable import TextTable
from ..workloads import WORKLOADS
from .report import (
    add_common_arguments,
    default_scale,
    experiment_config,
    format_store_stats,
)
from .runner import confidence_95, feasibility_rate, mean_time, run_seeds

METHODS = ("summarysearch", "naive")


def run_figure4(
    workloads: list[str],
    config,
    n_runs: int,
    scale: int | None,
    data_seed: int,
    queries: list[str] | None = None,
    store_totals: dict | None = None,
) -> TextTable:
    """Run the Figure 4 protocol and return its report table.

    Each (query, method) pair gets its *own* scenario store, scoped to
    its ``run_seeds`` call: sharing across methods would let whichever
    method runs second skip realization and bias the timing comparison
    against the paper's cold-per-method protocol, and a figure-wide
    store would hold every matrix until the figure finishes.  Pass a
    dict as ``store_totals`` to accumulate the per-call store counters
    for the report footer.
    """
    table = TextTable(
        [
            "query",
            "method",
            "feasibility rate",
            "avg time (s)",
            "ci95 (s)",
            "avg iters",
            "final M",
        ]
    )
    for workload_name in workloads:
        for spec in WORKLOADS[workload_name]:
            if queries and spec.name.lower() not in queries:
                continue
            workload_scale = default_scale(workload_name, scale)
            for method in METHODS:
                method_config = config.replace(
                    initial_summaries=spec.default_summaries
                )
                outcomes = run_seeds(
                    spec,
                    method,
                    method_config,
                    n_runs,
                    scale=workload_scale,
                    data_seed=data_seed,
                )
                if store_totals is not None and outcomes:
                    final = outcomes[-1].store_stats or {}
                    for counter, value in final.items():
                        store_totals[counter] = (
                            store_totals.get(counter, 0) + value
                        )
                times = [o.total_time for o in outcomes]
                table.add_row(
                    [
                        spec.qualified_name,
                        method,
                        feasibility_rate(outcomes),
                        mean_time(outcomes),
                        confidence_95(times),
                        sum(o.n_iterations for o in outcomes) / len(outcomes),
                        max(o.final_n_scenarios for o in outcomes),
                    ]
                )
    return table


def main(argv=None) -> None:
    """CLI wrapper (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_common_arguments(parser)
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workloads to run (default: all three)",
    )
    parser.add_argument(
        "--query",
        action="append",
        help="restrict to specific queries (e.g. --query q1 --query q5)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or sorted(WORKLOADS)
    queries = [q.lower() for q in args.query] if args.query else None
    config = experiment_config(args)
    print("Figure 4: time to reach feasibility, Naive vs SummarySearch")
    store_totals: dict = {}
    table = run_figure4(
        workloads, config, args.runs, args.scale, args.data_seed, queries,
        store_totals=store_totals,
    )
    print(table.render())
    print(format_store_stats(store_totals or None))


if __name__ == "__main__":
    main()
