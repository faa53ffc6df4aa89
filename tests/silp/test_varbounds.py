"""Variable and package-size bound derivation."""

import numpy as np
import pytest

from repro.db.expressions import Attr, Const
from repro.errors import UnboundedError
from repro.silp.compile import compile_query
from repro.silp.model import MeanConstraint, StochasticPackageProblem
from repro.silp.varbounds import derive_variable_bounds, package_size_bounds


def _problem(items_relation, constraints, repeat=None):
    return StochasticPackageProblem(
        relation=items_relation,
        model=None,
        active_rows=np.arange(items_relation.n_rows),
        objective=None,
        constraints=constraints,
        repeat=repeat,
    )


def _coeffs(relation):
    def fn(expr):
        from repro.db.expressions import evaluate

        values = evaluate(expr, relation.columns_mapping())
        return np.broadcast_to(np.asarray(values, dtype=float), (relation.n_rows,))

    return fn


def test_count_constraint_bounds_all_variables(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Const(1), "<=", 4.0)])
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    assert ub.tolist() == [4] * 5


def test_budget_constraint_bounds_per_variable(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Attr("price"), "<=", 12.0)])
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    # prices are [5, 8, 3, 6, 4] -> floor(12/price)
    assert ub.tolist() == [2, 1, 4, 2, 3]


def test_repeat_limit_applies(items_relation):
    problem = _problem(
        items_relation, [MeanConstraint(Attr("price"), "<=", 100.0)], repeat=1
    )
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    # REPEAT 1 means at most 2 copies (Section 2.1's translation).
    assert ub.tolist() == [2] * 5


def test_tightest_bound_wins(items_relation):
    problem = _problem(
        items_relation,
        [
            MeanConstraint(Attr("price"), "<=", 12.0),
            MeanConstraint(Const(1), "<=", 2.0),
        ],
    )
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    assert ub.tolist() == [2, 1, 2, 2, 2]


def test_ge_constraints_do_not_bound(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Attr("price"), ">=", 1.0)])
    with pytest.raises(UnboundedError):
        derive_variable_bounds(problem, _coeffs(items_relation))


def test_mixed_sign_coefficients_skipped(items_relation):
    from repro.db.expressions import BinOp

    signed = BinOp("-", Attr("price"), Const(6))  # some negative coefficients
    problem = _problem(
        items_relation,
        [MeanConstraint(signed, "<=", 10.0), MeanConstraint(Const(1), "<=", 3.0)],
    )
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    assert ub.tolist() == [3] * 5  # only the count constraint applies


def test_negative_rhs_with_nonnegative_coeffs_gives_zero(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Attr("price"), "<=", -5.0)])
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    assert ub.tolist() == [0] * 5


def test_package_size_bounds_from_count(items_relation):
    problem = _problem(
        items_relation,
        [
            MeanConstraint(Const(1), ">=", 2.0),
            MeanConstraint(Const(1), "<=", 7.0),
        ],
    )
    low, high = package_size_bounds(problem, _coeffs(items_relation))
    assert (low, high) == (2.0, 7.0)


def test_package_size_bounds_from_budget(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Attr("price"), "<=", 12.0)])
    low, high = package_size_bounds(problem, _coeffs(items_relation))
    assert low == 0.0
    assert high == 4.0  # floor(12 / min price 3)


def test_package_size_lower_from_ge_budget(items_relation):
    problem = _problem(
        items_relation,
        [
            MeanConstraint(Attr("price"), ">=", 20.0),
            MeanConstraint(Const(1), "<=", 10.0),
        ],
    )
    low, high = package_size_bounds(problem, _coeffs(items_relation))
    assert low == 3.0  # ceil(20 / max price 8)
    assert high == 10.0


def test_package_size_falls_back_to_variable_bounds(items_relation):
    problem = _problem(items_relation, [MeanConstraint(Attr("price"), "<=", 12.0)])
    ub = derive_variable_bounds(problem, _coeffs(items_relation))
    low, high = package_size_bounds(
        _problem(items_relation, []), _coeffs(items_relation), ub
    )
    assert high == float(ub.sum())


def test_bounds_never_cut_off_feasible_solutions(items_catalog, fast_config):
    """Any feasible integer solution of the compiled constraints respects
    the derived per-variable bounds (exhaustive check on a small box)."""
    from repro.core.context import EvaluationContext
    import itertools

    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT SUM(price) <= 14 AND COUNT(*) <= 3",
        items_catalog,
    )
    ctx = EvaluationContext(problem, fast_config)
    prices = items_catalog.relation("items").column("price")
    for x in itertools.product(range(5), repeat=5):
        feasible = (
            np.dot(prices, x) <= 14 and sum(x) <= 3
        )
        if feasible:
            assert np.all(np.asarray(x) <= ctx.variable_ub)
