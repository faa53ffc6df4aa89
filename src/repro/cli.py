"""Command-line interface: run sPaQL against CSV data, or serve queries.

Three subcommands::

    python -m repro run --table trades.csv \\
        --stochastic "Gain=gbm(price,drift,volatility,sell_in_days,stock)" \\
        --query "SELECT PACKAGE(*) FROM trades SUCH THAT ..." \\
        --method summarysearch --seed 7 --output package.csv

    python -m repro serve --workload portfolio:Q1 --scale 200 --port 8080

    python -m repro trace package.trace.json

``trace`` renders a saved trace document — a ``GET /trace/<id>`` body,
a ``POST /query`` response with ``"trace": true``, or a
``repro run --trace-out`` file — as an offset-scaled waterfall plus a
top-N self-time table.

The legacy invocation (no subcommand, straight ``--table ...``) keeps
working and means ``run``.

Exit codes are distinct per failure stage: 0 success, 1 infeasible,
2 parse/compile/spec errors, 3 solve/evaluation errors, 4 I/O errors.

Stochastic attributes are declared with a small spec language
``Name=kind(arg, ...)``, where each argument is a column name or a
numeric literal:

* ``gaussian(base, sigma)``
* ``pareto(base, scale, shape)``
* ``uniform(base, low, high)``
* ``exponential(base, rate)``
* ``student_t(base, dof[, scale])``
* ``gbm(price, drift, volatility, horizon, group)``

Any registered VG family whose parameters are expressible as text —
including the correlated ``gaussian_copula`` and
``empirical_bootstrap`` — is reachable through the keyword-style
``--vg`` flag instead::

    --vg "Gain=gaussian_copula:base_column=exp_gain,scale=gain_sd,rho=0.6,group_column=sector"

(``mixture`` composes VGFunction *instances* and is therefore
API/workload-level only.)  ``--vg`` applies to the last registered data
source; ``--workload`` datasets register after ``--table`` files.  See
``docs/writing_a_vg.md`` for the registry and authoring guide.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__
from .config import SPQConfig
from .core.engine import SPQEngine
from .db.catalog import Catalog
from .db.csvio import read_csv, write_csv
from .errors import (
    CompileError,
    EvaluationError,
    ParseError,
    SchemaError,
    SolverError,
    SPQError,
    TimeLimitExceeded,
    VGFunctionError,
)
from .mcdb.distributions import (
    ExponentialNoiseVG,
    GaussianNoiseVG,
    ParetoNoiseVG,
    StudentTNoiseVG,
    UniformNoiseVG,
)
from .mcdb.gbm import GeometricBrownianMotionVG
from .mcdb.stochastic import StochasticModel

#: Process exit codes, one per pipeline stage (``repro run --help``).
EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_IO = 4

_SUBCOMMANDS = ("run", "serve", "trace")


def exit_code_for(error: BaseException) -> int:
    """Map an exception to the CLI's stage-specific exit code."""
    if isinstance(error, (SolverError, EvaluationError, TimeLimitExceeded)):
        return EXIT_SOLVE
    if isinstance(
        error, (ParseError, CompileError, SchemaError, VGFunctionError, SPQError)
    ):
        return EXIT_PARSE
    if isinstance(error, OSError):
        return EXIT_IO
    return EXIT_SOLVE


def _numeric_or_column(token: str, relation):
    token = token.strip()
    if relation.has_column(token):
        return token if token else None
    try:
        return float(token)
    except ValueError:
        raise SPQError(
            f"VG argument {token!r} is neither a column of"
            f" {relation.name!r} nor a number"
        ) from None


def _column_values(arg, relation):
    """Resolve a parsed argument to per-row values (or a scalar)."""
    if isinstance(arg, str):
        return relation.column(arg)
    return arg


def parse_vg_spec(spec: str, relation):
    """Parse one ``Name=kind(arg, ...)`` stochastic-attribute spec."""
    if "=" not in spec:
        raise SPQError(f"bad stochastic spec {spec!r}: expected Name=kind(...)")
    name, _, call = spec.partition("=")
    name = name.strip()
    call = call.strip()
    if not call.endswith(")") or "(" not in call:
        raise SPQError(f"bad stochastic spec {spec!r}: expected kind(arg, ...)")
    kind, _, arg_text = call[:-1].partition("(")
    kind = kind.strip().lower()
    args = [a for a in (t.strip() for t in arg_text.split(",")) if a]
    if kind == "gbm":
        if len(args) != 5:
            raise SPQError("gbm takes (price, drift, volatility, horizon, group)")
        return name, GeometricBrownianMotionVG(*args)
    parsed = [_numeric_or_column(a, relation) for a in args]
    resolved = [_column_values(a, relation) for a in parsed[1:]]
    base = parsed[0]
    if not isinstance(base, str):
        raise SPQError(f"{kind} needs a base column as its first argument")
    factories = {
        "gaussian": (GaussianNoiseVG, 1, 1),
        "pareto": (ParetoNoiseVG, 2, 2),
        "uniform": (UniformNoiseVG, 2, 2),
        "exponential": (ExponentialNoiseVG, 1, 1),
        "student_t": (StudentTNoiseVG, 1, 2),
    }
    if kind not in factories:
        raise SPQError(
            f"unknown VG kind {kind!r}; expected one of"
            f" {sorted(factories) + ['gbm']}"
        )
    factory, min_args, max_args = factories[kind]
    if not min_args <= len(resolved) <= max_args:
        raise SPQError(
            f"{kind} takes {min_args}..{max_args} arguments after the base column"
        )
    return name, factory(base, *resolved)


def parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``"512M"``)."""
    text = text.strip()
    scale = 1
    suffixes = {"k": 1024, "m": 1024**2, "g": 1024**3}
    if text and text[-1].lower() in suffixes:
        scale = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(float(text) * scale)
    except ValueError:
        raise SPQError(f"bad byte count {text!r}: expected e.g. 1048576 or 512M")
    if value < 1:
        raise SPQError("byte count must be positive")
    return value


# --- argument wiring -------------------------------------------------------


def _vg_epilog() -> str:
    """Shared ``--help`` epilog: the ``--vg`` spec language + exit codes."""
    from .mcdb import vg_names

    return (
        "stochastic attribute declaration:\n"
        "  --stochastic 'Name=kind(arg,...)' — positional spec for the noise\n"
        "      families (gaussian, pareto, uniform, exponential, student_t,\n"
        "      gbm); arguments are column names or numeric literals.\n"
        "  --vg 'Attr=kind:param=value,...' — keyword spec for any registered\n"
        f"      VG family ({', '.join(vg_names())}).\n"
        "      Values parse as int, float, true/false, none; '+' joins list\n"
        "      values; anything else is a column name resolved at bind time.\n"
        "      ('mixture' composes VG instances and is API/workload-level\n"
        "      only — its components cannot be written as text.)\n"
        "      Example:\n"
        "      --vg 'Gain=gaussian_copula:base_column=exp_gain,scale=gain_sd,"
        "rho=0.6,group_column=sector'\n"
        "      --vg replaces/extends the model of the last registered data\n"
        "      source; --workload datasets register after --table files.\n"
        "\n"
        "exit codes:\n"
        "  0  success (a validated package was found)\n"
        "  1  query proven infeasible within the scenario budget\n"
        "  2  parse/compile/spec error (bad sPaQL, bad --stochastic/--vg)\n"
        "  3  solve/evaluation error or time limit exceeded\n"
        "  4  I/O error (missing or unreadable files)\n"
        "\n"
        "  --deadline-ms interacts with these anytime-style (docs/qos.md):\n"
        "  a deadline that expires mid-solve still exits 0 when a validated\n"
        "  incumbent exists — the summary then reports 'deadline missed' and\n"
        "  the relative optimality gap; only a deadline with no incumbent at\n"
        "  all exits 1.\n"
    )


def _add_data_arguments(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--table", action="append", required=required,
                        default=[], metavar="PATH[:NAME]",
                        help="CSV file — or on-disk column-store directory"
                             " written by Relation.to_disk /"
                             " read_csv_to_store — to register (optionally"
                             " as NAME)")
    parser.add_argument("--stochastic", action="append", default=[],
                        metavar="SPEC",
                        help="stochastic attribute, e.g. Value=gaussian(price,2.0);"
                             " applies to the most recent --table")
    parser.add_argument("--vg", action="append", default=[], metavar="SPEC",
                        help="registry-style stochastic attribute,"
                             " e.g. Gain=gaussian_copula:base_column=exp_gain,"
                             "rho=0.6,group_column=sector (see epilog);"
                             " applies to the last --table/--workload")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME:QUERY",
                        help="register a built-in workload dataset, e.g."
                             " portfolio:Q1 or portfolio_correlated:Q2"
                             " (repeatable)")
    parser.add_argument("--scale", type=int, default=None,
                        help="workload dataset scale (rows/stocks)")
    parser.add_argument("--data-seed", type=int, default=42,
                        help="seed for workload dataset construction")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--validation-scenarios", type=int, default=10_000)
    parser.add_argument("--initial-scenarios", type=int, default=100)
    parser.add_argument("--max-scenarios", type=int, default=1_000)
    parser.add_argument("--time-limit", type=float, default=600.0)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-query latency budget in milliseconds:"
                             " on expiry the best validated incumbent is"
                             " returned with its relative optimality gap"
                             " (anytime; see docs/qos.md). Exit code stays"
                             " 0 when an incumbent exists.")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the scale driver's"
                             " partition refines (results are identical"
                             " for any count)")
    parser.add_argument("--partitions", type=int, default=None, metavar="K",
                        help="partition count for the sketchrefine method"
                             " (default: config)")
    parser.add_argument("--scale-budget", default=None, metavar="BYTES",
                        help="resident chunk-cache byte budget for on-disk"
                             " column stores registered via --table, e.g."
                             " 256M (default: unbounded)")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evaluate and serve stochastic package queries over CSV data.",
        epilog="exit codes: 0 ok, 1 infeasible, 2 parse error, 3 solve error,"
               " 4 I/O error",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser(
        "run", help="evaluate one sPaQL query and print the package",
        epilog=_vg_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_data_arguments(run, required=False)
    query_group = run.add_mutually_exclusive_group()
    query_group.add_argument("--query", help="sPaQL text")
    query_group.add_argument("--query-file", help="file containing sPaQL text")
    run.add_argument("--method", default="summarysearch",
                     choices=["summarysearch", "naive", "deterministic",
                              "sketchrefine"])
    _add_config_arguments(run)
    run.add_argument("--apply-delta", metavar="FILE", action="append",
                     default=[],
                     help="apply a relation delta before evaluating: FILE is"
                          ' a JSON document {"table": "<name>", "delta":'
                          ' {"inserts": [...], "updates": [[key, {col:'
                          ' value}], ...], "deletes": [...]}} (repeatable;'
                          " applied in order — see docs/live_data.md)")
    run.add_argument("--output", help="write the package relation as CSV")
    run.add_argument("--profile-stages", action="store_true", dest="self_times",
                     help="print the run's per-stage self times (the"
                          " 'repro trace' top table) at the end")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write the evaluation's span tree as JSON"
                          " (render it with 'repro trace PATH')")
    run.set_defaults(handler=cmd_run)

    serve = subparsers.add_parser(
        "serve", help="serve package queries over HTTP (POST /query)",
        epilog=_vg_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_data_arguments(serve, required=False)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = ephemeral, printed on start)")
    serve.add_argument("--pool-size", type=int, default=None,
                       help="concurrent engine sessions (default: config)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="admission-control ceiling on queued+running"
                            " queries (default: 4x pool size)")
    serve.add_argument("--store-budget", default=None, metavar="BYTES",
                       help="scenario-store resident byte budget, e.g. 512M"
                            " (default: unlimited)")
    serve.add_argument("--no-spill", action="store_true",
                       help="evict over-budget scenario matrices instead of"
                            " spilling them to disk memmaps")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable query tracing (GET /trace returns 404;"
                            " per-stage histograms stay empty)")
    serve.add_argument("--slow-query-log", metavar="PATH",
                       help="append a JSONL record (trace id + per-stage"
                            " breakdown) for each query slower than"
                            " --slow-query-threshold")
    serve.add_argument("--slow-query-threshold", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-time threshold for --slow-query-log"
                            " (default: 1.0)")
    serve.add_argument("--slow-query-log-max-bytes", default=None,
                       metavar="BYTES",
                       help="rotate the slow-query log to <path>.1 once an"
                            " append would push it past this size, e.g. 16M"
                            " (default: never rotate)")
    _add_config_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        help="render a saved trace JSON as a waterfall and self-time table",
        description="Render a trace document — a GET /trace/<id> body, a"
                    " POST /query response saved with \"trace\": true, or a"
                    " 'repro run --trace-out' file — as an offset-scaled"
                    " waterfall plus a ranked per-stage self-time table.",
    )
    trace.add_argument("file",
                       help="trace JSON file ('-' reads standard input)")
    trace.add_argument("--width", type=int, default=48, metavar="COLS",
                       help="waterfall bar width in columns (default: 48)")
    trace.add_argument("--top", type=int, default=10, metavar="N",
                       help="rows in the self-time table (default: 10;"
                            " 0 = all)")
    trace.add_argument("--max-spans", type=int, default=60, metavar="N",
                       help="waterfall row budget before truncation"
                            " (default: 60)")
    trace.add_argument("--convergence", action="store_true",
                       help="render the trace's convergence event streams"
                            " (root-LP reductions, CSA epsilon trajectory,"
                            " refine outcomes) instead of the waterfall")
    trace.set_defaults(handler=cmd_trace)
    return parser


# --- shared construction ---------------------------------------------------


def _build_catalog(args, config: SPQConfig | None = None) -> Catalog:
    """Register --table/--stochastic/--workload sources, applying --vg.

    ``config.vg_overrides`` (populated from ``--vg``) replace or add
    stochastic attributes on the *last registered* data source.
    Registration order is tables first, then workloads (argparse
    collects the two flags separately), so with both kinds present the
    overrides land on the final ``--workload`` entry.
    """
    # --stochastic specs bind to the last --table before them; with a
    # single table (the common case) order does not matter.
    entries: list[tuple] = []
    relations = []
    for entry in args.table:
        path, _, name = entry.partition(":")
        if os.path.isdir(path):
            # An on-disk column store (repro.scale): opened lazily with
            # the configured resident chunk-cache budget, never loaded
            # wholesale.  A directory without a manifest raises
            # FileNotFoundError — the I/O exit code, like a missing CSV.
            from .scale.columnar import ColumnStore

            relation = ColumnStore(
                path,
                resident_budget=getattr(config, "scale_resident_budget", None),
            )
            if name:
                relation.name = name
        else:
            relation = read_csv(path, name=name or None)
        relations.append(relation)
    if relations:
        target = relations[-1]
        vgs = dict(parse_vg_spec(spec, target) for spec in args.stochastic)
        model = StochasticModel(target, vgs) if vgs else None
        for relation in relations[:-1]:
            entries.append((relation, None))
        entries.append((target, model))
    elif args.stochastic:
        raise SPQError("--stochastic requires a preceding --table")
    for entry in getattr(args, "workload", []):
        workload, _, query = entry.partition(":")
        if not query:
            raise SPQError(
                f"bad --workload {entry!r}: expected NAME:QUERY, e.g."
                " portfolio:Q1"
            )
        from .workloads import get_query

        spec = get_query(workload, query)
        relation, model = spec.build_dataset(
            getattr(args, "scale", None), seed=getattr(args, "data_seed", 42)
        )
        entries.append((relation, model))
    if not entries:
        raise SPQError("at least one --table or --workload is required")
    overrides = tuple(getattr(config, "vg_overrides", ()) or ())
    if overrides:
        from .mcdb import apply_vg_overrides

        relation, model = entries[-1]
        entries[-1] = (relation, apply_vg_overrides(relation, model, overrides))
    catalog = Catalog()
    for relation, model in entries:
        catalog.register(relation, model)
    return catalog


def _workload_specs(args):
    """The QuerySpec objects named by ``--workload`` (order-stable).

    Only called after :func:`_build_catalog` has validated the entries,
    so the malformed-entry skip below is unreachable in practice — it
    just keeps this helper total.
    """
    from .workloads import get_query

    specs = []
    for entry in getattr(args, "workload", []):
        workload, _, query = entry.partition(":")
        if query:
            specs.append(get_query(workload, query))
    return specs


def _build_config(args, **extra) -> SPQConfig:
    scale_kwargs = {}
    if getattr(args, "partitions", None) is not None:
        scale_kwargs["scale_n_partitions"] = args.partitions
    if getattr(args, "scale_budget", None):
        scale_kwargs["scale_resident_budget"] = parse_bytes(args.scale_budget)
    return SPQConfig(
        seed=args.seed,
        epsilon=args.epsilon,
        n_validation_scenarios=args.validation_scenarios,
        n_initial_scenarios=args.initial_scenarios,
        max_scenarios=max(args.max_scenarios, args.initial_scenarios),
        time_limit=args.time_limit,
        deadline_ms=getattr(args, "deadline_ms", None),
        n_workers=max(args.workers, 1),
        vg_overrides=tuple(getattr(args, "vg", []) or ()),
        **scale_kwargs,
        **extra,
    )


# --- subcommands -----------------------------------------------------------


def _apply_delta_file(catalog: Catalog, path: str) -> dict:
    """Apply one ``--apply-delta`` JSON document to the catalog."""
    from .db.delta import RelationDelta

    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or not isinstance(
        document.get("table"), str
    ):
        raise SPQError(
            f"--apply-delta {path}: expected a JSON object with"
            ' "table" and "delta" members'
        )
    delta = RelationDelta.from_payload(document.get("delta") or {})
    return catalog.apply_delta(document["table"], delta)


def cmd_run(args) -> int:
    """``repro run``: evaluate one query and print the package."""
    from .service.store import ScenarioStore

    config = _build_config(args)
    catalog = _build_catalog(args, config)
    query = args.query
    if query is None and args.query_file is not None:
        with open(args.query_file) as handle:
            query = handle.read()
    if query is None:
        # A single --workload carries its own sPaQL text (Table 3).
        specs = _workload_specs(args)
        if len(specs) != 1:
            raise SPQError(
                "give --query/--query-file, or exactly one --workload"
                " whose built-in query text should run"
            )
        query = specs[0].spaql
        print(f"query ({specs[0].qualified_name}):\n{query}\n")
    for path in args.apply_delta:
        summary = _apply_delta_file(catalog, path)
        print(
            f"delta applied to {summary['table']!r}:"
            f" {summary['dirty_rows']} dirty row(s),"
            f" {summary['n_rows']} rows,"
            f" catalog version {summary['catalog_version']}"
        )
    # Single-query runs share realizations within the evaluation (e.g.
    # across SAA/CSA iterations) through the same store the serving
    # layer uses; closed on exit so spill files never leak.
    with ScenarioStore(
        budget_bytes=config.scenario_store_budget,
        spill=config.scenario_store_spill,
    ) as store:
        engine = SPQEngine(catalog=catalog, config=config, store=store)
        result = engine.execute(query, method=args.method)

        print(result.summary())
        if result.package is not None and not result.package.is_empty:
            package_relation = result.package.to_relation()
            print(package_relation.to_text(limit=20))
            if args.output:
                write_csv(package_relation, args.output)
                print(f"package written to {args.output}")
        if args.trace_out:
            if engine.last_trace is None:
                raise SPQError(
                    "--trace-out: no trace was recorded"
                    " (is tracing disabled in the config?)"
                )
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(engine.last_trace, handle, indent=2, default=str)
                handle.write("\n")
            print(f"trace written to {args.trace_out}"
                  f" (render: repro trace {args.trace_out})")
    if args.self_times:
        from .obs import aggregate_self_times, format_top_table

        print("\nper-stage self time:")
        print(format_top_table(aggregate_self_times(engine.last_trace["root"])))
    return EXIT_OK if result.succeeded else EXIT_INFEASIBLE


def cmd_serve(args) -> int:
    """``repro serve``: run the HTTP serving layer until interrupted."""
    from .service import QueryBroker, SPQService

    budget = parse_bytes(args.store_budget) if args.store_budget else None
    config = _build_config(
        args,
        scenario_store_budget=budget,
        scenario_store_spill=not args.no_spill,
        **(
            {"service_pool_size": args.pool_size}
            if args.pool_size is not None
            else {}
        ),
        **(
            {"service_max_pending": args.max_pending}
            if args.max_pending is not None
            else {}
        ),
        **({"trace_enabled": False} if args.no_trace else {}),
        **(
            {"slow_query_log": args.slow_query_log}
            if args.slow_query_log
            else {}
        ),
        **(
            {"slow_query_threshold_s": args.slow_query_threshold}
            if args.slow_query_threshold is not None
            else {}
        ),
        **(
            {"slow_query_log_max_bytes": parse_bytes(args.slow_query_log_max_bytes)}
            if args.slow_query_log_max_bytes
            else {}
        ),
    )
    catalog = _build_catalog(args, config)
    broker = QueryBroker(catalog, config=config)
    service = SPQService(
        broker, host=args.host, port=args.port, verbose=args.verbose,
        own_broker=True,
    )
    host, port = service.address
    print(f"repro serve: listening on http://{host}:{port}"
          f" (backend={broker.backend}, pool={broker.pool_size},"
          f" tables={sorted(catalog)})",
          flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return EXIT_OK


def cmd_trace(args) -> int:
    """``repro trace``: render a saved trace JSON document."""
    from .obs import (
        aggregate_self_times,
        format_top_table,
        format_waterfall,
        trace_document,
    )

    if args.file == "-":
        raw = sys.stdin.read()
        source = "<stdin>"
    else:
        # A missing/unreadable file raises OSError → EXIT_IO in main().
        with open(args.file, encoding="utf-8") as handle:
            raw = handle.read()
        source = args.file
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as error:
        # JSONDecodeError is a ValueError, not an OSError: wrap it so the
        # exit-code contract reports a parse failure, not a solve one.
        raise SPQError(f"{source}: not valid JSON: {error}") from error
    if getattr(args, "convergence", False):
        from .obs import format_convergence

        print(format_convergence(doc))
        return EXIT_OK
    try:
        trace_id, root = trace_document(doc)
    except ValueError as error:
        raise SPQError(f"{source}: {error}") from error
    if trace_id:
        print(f"trace {trace_id}")
    print(format_waterfall(root, width=max(args.width, 8),
                           max_spans=max(args.max_spans, 1)))
    print()
    top = args.top if args.top > 0 else None
    print(format_top_table(aggregate_self_times(root), top=top))
    return EXIT_OK


def main(argv=None) -> int:
    """CLI entry point; returns a stage-specific process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy invocation: `python -m repro --table ...` means `run`.
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in (
        "-h", "--help", "--version",
    ):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return EXIT_PARSE
    try:
        return args.handler(args)
    except SPQError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        # The exit-code contract holds even for unexpected failures: keep
        # the traceback for debuggability, but exit with the solve-stage
        # code instead of the interpreter's generic 1, which a caller
        # would misread as "query proven infeasible".
        traceback.print_exc()
        return EXIT_SOLVE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
