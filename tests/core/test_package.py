"""Package result objects."""

import numpy as np
import pytest

from repro.core.package import Package, PackageResult


def test_package_structure(chance_problem):
    package = Package(chance_problem, np.array([2, 0, 1, 0, 0]))
    assert package.total_count == 3
    assert package.n_distinct == 2
    assert not package.is_empty
    assert package.nonzero_positions().tolist() == [0, 2]
    assert package.key_multiplicities() == {0: 2, 2: 1}


def test_package_rejects_bad_multiplicities(chance_problem):
    with pytest.raises(ValueError):
        Package(chance_problem, np.array([1, 2, 3]))  # wrong length
    with pytest.raises(ValueError):
        Package(chance_problem, np.array([1, -1, 0, 0, 0]))
    with pytest.raises(ValueError):
        Package(chance_problem, np.array([0.5, 0, 0, 0, 0]))


def test_package_accepts_near_integral_floats(chance_problem):
    package = Package(chance_problem, np.array([1.0 + 1e-9, 0, 0, 0, 0]))
    assert package.multiplicities.tolist() == [1, 0, 0, 0, 0]


def test_to_relation_repeats_rows(chance_problem):
    package = Package(chance_problem, np.array([2, 0, 1, 0, 0]))
    relation = package.to_relation()
    assert relation.n_rows == 3
    assert relation.column("price").tolist() == [5.0, 5.0, 3.0]
    # Fresh positional key (the original ids repeat).
    assert relation.key == "__package_row"
    assert relation.column("id").tolist() == [0, 0, 2]


def test_empty_package_to_relation(chance_problem):
    relation = Package(chance_problem, np.zeros(5)).to_relation()
    assert relation.n_rows == 0


def test_deterministic_total(chance_problem):
    package = Package(chance_problem, np.array([1, 1, 0, 0, 0]))
    assert package.deterministic_total("price") == pytest.approx(13.0)


def test_active_row_indirection(items_catalog, fast_config):
    """Multiplicities index active rows; key mapping must go through the
    WHERE-filtered positions."""
    from repro.silp.compile import compile_query

    problem = compile_query(
        "SELECT PACKAGE(*) FROM items WHERE price >= 5 SUCH THAT COUNT(*) <= 2",
        items_catalog,
    )
    # Active rows are positions [0, 1, 3].
    package = Package(problem, np.array([0, 1, 1]))
    assert package.key_multiplicities() == {1: 1, 3: 1}


def test_result_summary_text(chance_problem):
    package = Package(chance_problem, np.array([1, 0, 0, 0, 0]))
    result = PackageResult(
        package=package, feasible=True, objective=5.0, method="naive",
        epsilon_upper=0.2,
    )
    text = result.summary()
    assert "naive" in text and "feasible=True" in text
    assert "1.2" in text  # 1 + eps
    assert result.succeeded


def test_result_failure_summary():
    result = PackageResult(
        package=None, feasible=False, objective=None, method="naive",
        message="boom",
    )
    assert "boom" in result.summary()
    assert not result.succeeded
