"""The exactness harness's two tables, checked: on equals off, one miss per input.

Older test names (``tests/core/test_memo_exact.py``, ``test_ladder_lane.py``,
``test_round_memo.py`` and others) check some rows of the same tables
(``harness.NAMED``); these tests check every other row.  The runs behind
a row are computed once, whichever test asks first.
"""

from __future__ import annotations

import pytest

from exact.harness import KEY_TABLES, MATRIX, assert_one_miss, check


@pytest.mark.parametrize(
    "mechanism, case", MATRIX, ids=[f"{m}-{c}" for m, c in MATRIX]
)
def test_on_equals_off(mechanism, case):
    check(mechanism, case)


@pytest.mark.parametrize(
    "kind, change",
    [(kind, change) for kind in ("validate", "alpha") for change in KEY_TABLES[kind][1]],
    ids=lambda value: value,
)
def test_one_changed_input_is_one_miss(kind, change):
    assert_one_miss(kind, change)
