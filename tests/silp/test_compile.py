"""sPaQL → SILP compilation."""

import numpy as np
import pytest

from repro.errors import CompileError
from repro.silp.compile import compile_query
from repro.silp.model import ChanceConstraint, MeanConstraint


def test_basic_compilation(chance_problem):
    assert chance_problem.n_vars == 5
    assert len(chance_problem.mean_constraints) == 1
    assert len(chance_problem.chance_constraints) == 1
    assert chance_problem.objective is not None


def test_where_restricts_active_rows(items_catalog):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items WHERE price <= 5"
        " SUCH THAT COUNT(*) <= 2",
        items_catalog,
    )
    assert problem.active_rows.tolist() == [0, 2, 4]
    assert problem.n_vars == 3


def test_where_filtering_everything_rejected(items_catalog):
    with pytest.raises(CompileError, match="filtered out"):
        compile_query(
            "SELECT PACKAGE(*) FROM items WHERE price > 1000"
            " SUCH THAT COUNT(*) <= 2",
            items_catalog,
        )


def test_where_on_stochastic_attribute_rejected(items_catalog):
    with pytest.raises(CompileError, match="WHERE"):
        compile_query(
            "SELECT PACKAGE(*) FROM items WHERE Value > 0"
            " SUCH THAT COUNT(*) <= 2",
            items_catalog,
        )


def test_unknown_table(items_catalog):
    with pytest.raises(Exception, match="unknown table"):
        compile_query("SELECT PACKAGE(*) FROM missing", items_catalog)


def test_unknown_attribute_in_constraint(items_catalog):
    with pytest.raises(CompileError, match="unknown attribute"):
        compile_query(
            "SELECT PACKAGE(*) FROM items SUCH THAT SUM(bogus) <= 1",
            items_catalog,
        )


def test_unknown_attribute_in_objective(items_catalog):
    with pytest.raises(CompileError, match="unknown attribute"):
        compile_query(
            "SELECT PACKAGE(*) FROM items MINIMIZE SUM(bogus)", items_catalog
        )


def test_repeat_carried_through(items_catalog):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items REPEAT 3 SUCH THAT COUNT(*) <= 10",
        items_catalog,
    )
    assert problem.repeat == 3


def test_accepts_preparsed_ast(items_catalog):
    from repro.spaql.parser import parse_query

    ast = parse_query("SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 1")
    problem = compile_query(ast, items_catalog)
    assert problem.n_vars == 5


def test_is_stochastic_expr(chance_problem):
    from repro.db.expressions import Attr

    assert chance_problem.is_stochastic_expr(Attr("Value"))
    assert not chance_problem.is_stochastic_expr(Attr("price"))


def test_scenario_identity_independent_of_where(items_catalog, fast_config):
    """WHERE must not change scenario realizations for surviving tuples:
    active rows index into the unfiltered relation."""
    from repro.core.context import EvaluationContext

    unfiltered = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 2 AND"
        " SUM(Value) >= 1 WITH PROBABILITY >= 0.5",
        items_catalog,
    )
    filtered = compile_query(
        "SELECT PACKAGE(*) FROM items WHERE price >= 5 SUCH THAT COUNT(*) <= 2"
        " AND SUM(Value) >= 1 WITH PROBABILITY >= 0.5",
        items_catalog,
    )
    ctx_all = EvaluationContext(unfiltered, fast_config)
    ctx_filtered = EvaluationContext(filtered, fast_config)
    expr = unfiltered.chance_constraints[0].expr
    matrix_all = ctx_all.optimization_matrix(expr, 4)
    matrix_filtered = ctx_filtered.optimization_matrix(
        filtered.chance_constraints[0].expr, 4
    )
    assert np.allclose(matrix_filtered, matrix_all[filtered.active_rows, :])
