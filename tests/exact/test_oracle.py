"""The oracle column: each small case's answer agrees with the oracle.

The harness's on-equals-off rows make every flipped run of these cases
answer what the shipped run does, so the verdict below holds for both.
"""

from __future__ import annotations

import pytest

from exact.harness import CASES, ORACLE_CASES, shipped
from exact.oracle import Oracle
from repro import SPQEngine


@pytest.mark.parametrize("case_id", ORACLE_CASES)
def test_the_answer_agrees_with_the_oracle(case_id):
    case = CASES[case_id]
    engine = SPQEngine(config=case.config)
    case.dataset[0](engine, None)
    oracle = Oracle(engine.compile(case.dataset[1]), case.config.seed)
    oracle.check(shipped(case_id).records, case.config.n_validation_scenarios)
