"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main, parse_vg_spec
from repro.db.relation import Relation
from repro.errors import SPQError
from repro.mcdb.distributions import GaussianNoiseVG, ParetoNoiseVG
from repro.mcdb.gbm import GeometricBrownianMotionVG


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "items.csv"
    path.write_text(
        "price,weight\n5.0,2\n8.0,1\n3.0,4\n6.0,3\n4.0,2\n"
    )
    return path


@pytest.fixture
def relation():
    return Relation("items", {"price": [5.0, 8.0], "sigma": [0.5, 1.0]})


def test_parse_gaussian_spec_scalar(relation):
    name, vg = parse_vg_spec("Value=gaussian(price, 2.0)", relation)
    assert name == "Value"
    assert isinstance(vg, GaussianNoiseVG)


def test_parse_gaussian_spec_column_arg(relation):
    _, vg = parse_vg_spec("Value=gaussian(price, sigma)", relation)
    vg.bind(relation)
    assert np.allclose(vg._sigma, [0.5, 1.0])


def test_parse_pareto_and_gbm(relation):
    _, vg = parse_vg_spec("V=pareto(price, 1.0, 1.5)", relation)
    assert isinstance(vg, ParetoNoiseVG)
    _, vg = parse_vg_spec("G=gbm(price,drift,vol,horizon,stock)", relation)
    assert isinstance(vg, GeometricBrownianMotionVG)


@pytest.mark.parametrize(
    "spec",
    [
        "no_equals(price)",
        "V=gaussian price",
        "V=mystery(price, 1)",
        "V=gaussian(price, 1, 2, 3)",
        "V=gaussian(3.0, 1.0)",  # base must be a column
        "V=gaussian(price, bogus_col)",
    ],
)
def test_bad_specs_rejected(relation, spec):
    with pytest.raises(SPQError):
        parse_vg_spec(spec, relation)


def test_cli_end_to_end(csv_path, tmp_path, capsys):
    out_path = tmp_path / "package.csv"
    code = main(
        [
            "--table", str(csv_path),
            "--stochastic", "Value=gaussian(price, 1.0)",
            "--query",
            "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
            " SUM(Value) >= 5 WITH PROBABILITY >= 0.8"
            " MINIMIZE EXPECTED SUM(Value)",
            "--validation-scenarios", "1000",
            "--initial-scenarios", "20",
            "--max-scenarios", "60",
            "--epsilon", "0.8",
            "--output", str(out_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "feasible=True" in captured.out
    assert out_path.exists()
    assert "price" in out_path.read_text()


def test_cli_deterministic_query(csv_path, capsys):
    code = main(
        [
            "--table", str(csv_path),
            "--query",
            "SELECT PACKAGE(*) FROM items SUCH THAT SUM(price) <= 9"
            " MAXIMIZE SUM(price)",
        ]
    )
    assert code == 0
    assert "deterministic" in capsys.readouterr().out


def test_cli_query_file(csv_path, tmp_path, capsys):
    query_file = tmp_path / "q.spaql"
    query_file.write_text(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1 MAXIMIZE SUM(price)"
    )
    code = main(["--table", str(csv_path), "--query-file", str(query_file)])
    assert code == 0


def test_cli_table_alias(csv_path, capsys):
    code = main(
        [
            "--table", f"{csv_path}:inventory",
            "--query",
            "SELECT PACKAGE(*) FROM inventory SUCH THAT COUNT(*) <= 1"
            " MAXIMIZE SUM(price)",
        ]
    )
    assert code == 0


def test_cli_bad_spec_is_reported(csv_path, capsys):
    code = main(
        [
            "--table", str(csv_path),
            "--stochastic", "V=mystery(price)",
            "--query", "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_infeasible_returns_one(csv_path, capsys):
    code = main(
        [
            "--table", str(csv_path),
            "--query",
            "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1 AND"
            " SUM(price) >= 100 MINIMIZE SUM(price)",
        ]
    )
    assert code == 1


# --- subcommands, version, exit codes ---------------------------------------


def test_cli_explicit_run_subcommand(csv_path, capsys):
    code = main(
        [
            "run",
            "--table", str(csv_path),
            "--query",
            "SELECT PACKAGE(*) FROM items SUCH THAT SUM(price) <= 9"
            " MAXIMIZE SUM(price)",
        ]
    )
    assert code == 0
    assert "deterministic" in capsys.readouterr().out


def test_cli_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_cli_no_arguments_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out


def test_cli_parse_error_exit_code(csv_path, capsys):
    code = main(
        ["--table", str(csv_path), "--query", "SELEC PACKAGE nonsense"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_solve_error_exit_code(csv_path, capsys):
    # Invalid evaluation parameters surface as EvaluationError -> 3.
    code = main(
        [
            "--table", str(csv_path),
            "--query",
            "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1"
            " MAXIMIZE SUM(price)",
            "--initial-scenarios", "0",
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_io_error_exit_code(csv_path, tmp_path, capsys):
    code = main(
        [
            "--table", str(csv_path),
            "--query-file", str(tmp_path / "does_not_exist.spaql"),
        ]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_cli_missing_table_file_is_io_error(capsys):
    code = main(
        [
            "--table", "no_such_table.csv",
            "--query", "SELECT PACKAGE(*) FROM x SUCH THAT COUNT(*) <= 1",
        ]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_parse_bytes():
    from repro.cli import parse_bytes

    assert parse_bytes("1048576") == 1 << 20
    assert parse_bytes("512k") == 512 * 1024
    assert parse_bytes("2M") == 2 << 20
    assert parse_bytes("1G") == 1 << 30
    with pytest.raises(SPQError):
        parse_bytes("lots")
    with pytest.raises(SPQError):
        parse_bytes("-1M")


def test_serve_parser_accepts_service_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--workload", "portfolio:Q1",
            "--scale", "50",
            "--port", "0",
            "--pool-size", "2",
            "--store-budget", "4M",
            "--no-spill",
        ]
    )
    assert args.command == "serve"
    assert args.workload == ["portfolio:Q1"]
    assert args.pool_size == 2
    assert args.store_budget == "4M"


def test_serve_catalog_from_workload():
    from repro.cli import _build_catalog, build_parser

    args = build_parser().parse_args(
        ["serve", "--workload", "portfolio:Q1", "--scale", "12"]
    )
    catalog = _build_catalog(args)
    assert "stock_investments" in catalog
    assert catalog.model("stock_investments") is not None


def test_serve_requires_a_data_source():
    from repro.cli import _build_catalog, build_parser

    args = build_parser().parse_args(["serve"])
    with pytest.raises(SPQError):
        _build_catalog(args)


# --- the --vg registry flag and correlated workloads -------------------------


@pytest.fixture
def sector_csv_path(tmp_path):
    path = tmp_path / "stocks.csv"
    path.write_text(
        "sector,price,exp_gain,gain_sd\n"
        "a,10.0,0.5,0.4\na,12.0,0.6,0.5\nb,9.0,0.4,0.3\n"
        "b,11.0,0.5,0.4\na,8.0,0.3,0.3\nb,10.0,0.4,0.4\n"
    )
    return path


VAR_QUERY = (
    "SELECT PACKAGE(*) FROM stocks SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Gain) >= -1 WITH PROBABILITY >= 0.8"
    " MAXIMIZE EXPECTED SUM(Gain)"
)


def test_cli_vg_flag_builds_registry_model(sector_csv_path, capsys):
    code = main(
        [
            "run",
            "--table", str(sector_csv_path),
            "--vg", "Gain=gaussian_copula:base_column=exp_gain,"
                    "scale=gain_sd,rho=0.7,group_column=sector",
            "--query", VAR_QUERY,
            "--validation-scenarios", "800",
            "--initial-scenarios", "20",
            "--max-scenarios", "60",
            "--epsilon", "0.8",
        ]
    )
    assert code == 0
    assert "feasible=True" in capsys.readouterr().out


def test_cli_vg_flag_unknown_family_is_parse_error(sector_csv_path, capsys):
    code = main(
        [
            "run",
            "--table", str(sector_csv_path),
            "--vg", "Gain=mystery:base_column=exp_gain",
            "--query", VAR_QUERY,
        ]
    )
    assert code == 2
    assert "unknown VG family" in capsys.readouterr().err


def test_cli_run_workload_uses_builtin_query(capsys):
    code = main(
        [
            "run",
            "--workload", "portfolio_correlated:Q2",
            "--scale", "30",
            "--validation-scenarios", "800",
            "--initial-scenarios", "20",
            "--max-scenarios", "60",
            "--epsilon", "0.8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "portfolio_correlated/Q2" in out
    assert "feasible=True" in out


def test_cli_run_workload_with_vg_override(capsys):
    code = main(
        [
            "run",
            "--workload", "portfolio_correlated:Q1",
            "--scale", "30",
            "--vg", "Gain=gaussian_copula:base_column=exp_gain,"
                    "scale=gain_sd,rho=0.9,group_column=sector",
            "--validation-scenarios", "800",
            "--initial-scenarios", "20",
            "--max-scenarios", "60",
            "--epsilon", "0.8",
        ]
    )
    assert code == 0
    assert "feasible=True" in capsys.readouterr().out


def test_cli_run_without_query_or_workload_is_parse_error(csv_path, capsys):
    # A valid table but no --query/--query-file and no single --workload
    # to borrow the query from: the missing-query branch, exit 2.
    code = main(["run", "--table", str(csv_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--query" in err and "--workload" in err


def test_cli_unexpected_error_maps_to_solve_exit_code(csv_path, capsys):
    """Exceptions outside the SPQError taxonomy must not leak the
    interpreter's exit code 1 (which the contract reserves for
    'infeasible'); they map to the solve-stage code 3."""
    # A list where a scalar/column is expected crashes at bind time with
    # a raw ValueError deep inside numpy — representative of unexpected
    # failures.
    code = main(
        [
            "run",
            "--table", str(csv_path),
            "--vg", "V=gaussian_copula:base_column=price,scale=a+b",
            "--query", "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1",
        ]
    )
    assert code == 3
    assert "Traceback" in capsys.readouterr().err


def test_cli_help_epilog_documents_vg_and_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--vg" in out
    assert "gaussian_copula" in out
    assert "exit codes:" in out
    for line in ("0  success", "1  query proven infeasible",
                 "2  parse/compile/spec error", "3  solve/evaluation error",
                 "4  I/O error"):
        assert line in out


# --- out-of-core tier (repro.scale) --------------------------------------------


def test_cli_scale_flags_wire_into_config():
    from repro.cli import _build_config, build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["run", "--table", "x.csv", "--query", "q",
         "--partitions", "12", "--scale-budget", "64M"]
    )
    config = _build_config(args)
    assert config.scale_n_partitions == 12
    assert config.scale_resident_budget == 64 * 1024 * 1024


def test_cli_scale_flags_default_off():
    from repro.cli import _build_config, build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--table", "x.csv", "--query", "q"])
    config = _build_config(args)
    assert config.scale_resident_budget is None


@pytest.mark.parametrize(
    "budget, method",
    [(["--scale-budget", "1K"], "sketchrefine"), ([], "summarysearch")],
    ids=["budget-1K", "unbudgeted"],
)
def test_cli_scale_budget_routes_oversized_summarysearch(
    tmp_path, capsys, budget, method
):
    """5 rows × 60 scenarios × 8 B = 2 400 B of scenarios outgrow a 1K
    store budget, so summarysearch routes to the driver; an unbudgeted
    store keeps it."""
    from repro.db.csvio import read_csv_to_store

    csv = tmp_path / "items.csv"
    csv.write_text("price,weight\n5.0,2\n8.0,1\n3.0,4\n6.0,3\n4.0,2\n")
    read_csv_to_store(csv, tmp_path / "items-store", chunk_rows=2).close()
    code = main([
        "run",
        "--table", str(tmp_path / "items-store") + ":items",
        "--stochastic", "Value=gaussian(price, 1.0)",
        "--query", STOCH_QUERY,
        "--method", "summarysearch",
        *FAST_FLAGS,
        *budget,
    ])
    assert code == 0
    assert f"[{method}]" in capsys.readouterr().out


def test_cli_method_accepts_sketchrefine(csv_path, capsys):
    code = main([
        "run",
        "--table", str(csv_path),
        "--query", "SELECT PACKAGE(*) FROM items SUCH THAT SUM(price) <= 12"
                   " MINIMIZE SUM(weight)",
        "--method", "sketchrefine",
    ])
    assert code == 0
    assert "sketchrefine" in capsys.readouterr().out


def test_cli_registers_column_store_directory(tmp_path, capsys):
    from repro.db.csvio import read_csv_to_store

    csv = tmp_path / "items.csv"
    csv.write_text("price,weight\n5.0,2\n8.0,1\n3.0,4\n6.0,3\n4.0,2\n")
    store = read_csv_to_store(csv, tmp_path / "items-store", chunk_rows=2)
    store.close()
    code = main([
        "run",
        "--table", str(tmp_path / "items-store") + ":items",
        "--query", "SELECT PACKAGE(*) FROM items WHERE price <= 6 SUCH THAT"
                   " SUM(price) <= 12 MINIMIZE SUM(weight)",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "package" in out


def test_cli_store_directory_without_manifest_is_io_error(tmp_path, capsys):
    (tmp_path / "not-a-store").mkdir()
    code = main([
        "run",
        "--table", str(tmp_path / "not-a-store"),
        "--query", "SELECT PACKAGE(*) FROM x SUCH THAT COUNT(*) <= 1"
                   " MINIMIZE SUM(a)",
    ])
    assert code == 4


# --- observability: repro trace, --trace-out, --profile-stages ---------------


STOCH_QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 5 WITH PROBABILITY >= 0.8"
    " MINIMIZE EXPECTED SUM(Value)"
)

FAST_FLAGS = [
    "--validation-scenarios", "500",
    "--initial-scenarios", "20",
    "--max-scenarios", "60",
    "--epsilon", "0.8",
]


def _run_traced(csv_path, tmp_path, *extra):
    return main([
        "run",
        "--table", str(csv_path),
        "--stochastic", "Value=gaussian(price, 1.0)",
        "--query", STOCH_QUERY,
        *FAST_FLAGS,
        *extra,
    ])


def test_cli_trace_out_writes_span_tree(csv_path, tmp_path, capsys):
    trace_path = tmp_path / "run.trace.json"
    code = _run_traced(csv_path, tmp_path, "--trace-out", str(trace_path))
    captured = capsys.readouterr()
    assert code == 0
    assert f"trace written to {trace_path}" in captured.out
    import json

    doc = json.loads(trace_path.read_text())
    assert doc["root"]["name"] == "execute"
    names = {doc["root"]["name"]}
    stack = list(doc["root"]["children"])
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node["children"])
    assert {"compile", "parse", "solve", "validate"} <= names


def test_cli_profile_stages_prints_flat_profile(csv_path, tmp_path, capsys):
    code = _run_traced(csv_path, tmp_path, "--profile-stages")
    captured = capsys.readouterr()
    assert code == 0
    assert "per-stage self time:" in captured.out
    assert "solve" in captured.out


def test_cli_trace_renders_waterfall_and_table(csv_path, tmp_path, capsys):
    trace_path = tmp_path / "run.trace.json"
    assert _run_traced(csv_path, tmp_path, "--trace-out", str(trace_path)) == 0
    capsys.readouterr()

    code = main(["trace", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "execute" in captured.out
    assert "ms" in captured.out          # the waterfall
    assert "self(s)" in captured.out     # the top table


def test_cli_trace_missing_file_is_io_error(capsys):
    code = main(["trace", "/no/such/trace.json"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_cli_trace_bad_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["trace", str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_trace_non_trace_document_is_parse_error(tmp_path, capsys):
    not_a_trace = tmp_path / "other.json"
    not_a_trace.write_text('{"unrelated": true}')
    code = main(["trace", str(not_a_trace)])
    assert code == 2
    assert "not a trace document" in capsys.readouterr().err


def test_serve_parser_accepts_observability_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "serve", "--workload", "portfolio:Q1",
        "--no-trace",
        "--slow-query-log", "slow.jsonl",
        "--slow-query-threshold", "2.5",
    ])
    assert args.no_trace is True
    assert args.slow_query_log == "slow.jsonl"
    assert args.slow_query_threshold == 2.5
