"""The oracle column: each small case's answer agrees with the oracle.

The harness's on-equals-off rows make every flipped run of these cases
answer what the shipped run does, so the verdict below holds for both.
The member bound (``core/approx.py::prove_no_package``) is also checked
on its own, against the oracle and the oracle's Clopper–Pearson bound.
"""

from __future__ import annotations

import pytest

from exact.harness import CASES, ORACLE_CASES, ORACLE_SHAPES, shipped
from exact.oracle import Oracle, upper
from repro import SPQEngine
from repro.core.approx import PROOF_DELTA, PROOF_LOOKS, prove_no_package
from repro.core.context import EvaluationContext
from repro.core.validator import inner_holds


@pytest.mark.parametrize("case_id", ORACLE_CASES)
def test_the_answer_agrees_with_the_oracle(case_id):
    case = CASES[case_id]
    engine = SPQEngine(config=case.config)
    case.dataset[0](engine, None)
    oracle = Oracle(engine.compile(case.dataset[1]), case.config.seed)
    oracle.check(shipped(case_id).records, case.config.n_validation_scenarios)


def context(shape: str, count: str | None = None):
    """The oracle shape's compiled problem and a fresh evaluation context;
    ``count`` replaces its COUNT clause."""
    case = CASES[f"oracle-{shape}-summarysearch"]
    engine = SPQEngine(config=case.config)
    case.dataset[0](engine, None)
    query = case.dataset[1]
    if count is not None:
        query = query.replace("COUNT(*) BETWEEN 1 AND 3", count)
    problem = engine.compile(query)
    return problem, EvaluationContext(problem, case.config)


@pytest.mark.parametrize(
    "shape, count",
    [(shape, None) for shape in ORACLE_SHAPES] + [("member", "COUNT(*) <= 3")],
)
def test_the_bound_proves_only_what_the_oracle_refutes(shape, count):
    """A proof leaves no package the fresh stream shows feasible.  Only
    ``member`` is proved: its floor twin has a helping sign, the empty
    package meets the cap once COUNT allows it, and the Gaussian shapes
    have no finite support."""
    problem, ctx = context(shape, count)
    proof = prove_no_package(ctx)
    if proof is not None:
        sure = Oracle(problem, ctx.config.seed).feasible_by(lambda p: p)
        assert not sure.any()
    assert (proof is not None) is (shape == "member" and count is None)


def test_the_bound_is_taken_at_its_split_level():
    """The proof's bound is the oracle's Clopper–Pearson upper bound on
    the best tuple's count, at δ over tuples, constraints and looks."""
    problem, ctx = context("member")
    proof = prove_no_package(ctx)
    (constraint,) = problem.chance_constraints
    n = proof["scenarios"]
    alone = inner_holds(
        ctx.probe_matrix(constraint.expr, n), constraint.inner_op, constraint.rhs
    )
    level = PROOF_DELTA / (problem.n_vars * len(PROOF_LOOKS))
    assert proof["delta"] == PROOF_DELTA
    assert proof["bound"] == pytest.approx(
        float(upper(alone.sum(axis=1).max(), n, level)), rel=1e-9
    )


def test_the_bound_draws_on_the_probe_stream_only(monkeypatch):
    problem, ctx = context("member")

    def optimization_matrix(*args):
        raise AssertionError("the member bound drew optimisation scenarios")

    monkeypatch.setattr(ctx, "optimization_matrix", optimization_matrix)
    monkeypatch.setattr(ctx, "opt_cache", None)
    assert prove_no_package(ctx) is not None
