"""VG-function framework: binding, blocks, shape checking."""

import numpy as np
import pytest

from repro.db.relation import Relation
from repro.errors import VGFunctionError
from repro.mcdb.vg import VGFunction, grouped_blocks
from repro.utils.rngkeys import make_generator


class ConstantVG(VGFunction):
    """Trivial VG returning a fixed value; used to probe the base class."""

    def __init__(self, value: float = 1.0):
        super().__init__()
        self.value = value

    def _sample_block(self, block_index, rng, size):
        rows = self.blocks[block_index]
        return np.full((len(rows), size), self.value)


class BadShapeVG(ConstantVG):
    def _sample_block(self, block_index, rng, size):
        return np.zeros((1, 1))


class OverlappingBlocksVG(ConstantVG):
    def _build_blocks(self, relation):
        return [np.array([0, 1]), np.array([1, 2])]


class IncompleteBlocksVG(ConstantVG):
    def _build_blocks(self, relation):
        return [np.array([0])]


@pytest.fixture
def relation():
    return Relation("t", {"v": [1.0, 2.0, 3.0]})


def test_unbound_usage_rejected(relation):
    vg = ConstantVG()
    with pytest.raises(VGFunctionError):
        _ = vg.n_rows
    with pytest.raises(VGFunctionError):
        vg.sample_all(make_generator(0, 0))


def test_default_blocks_are_singletons(relation):
    vg = ConstantVG().bind(relation)
    assert vg.n_blocks == 3
    assert all(len(b) == 1 for b in vg.blocks)
    assert vg.block_of_rows(np.array([2, 0])).tolist() == [2, 0]


def test_sample_all_default_loops_blocks(relation):
    vg = ConstantVG(7.0).bind(relation)
    out = vg.sample_all(make_generator(0, 0))
    assert out.tolist() == [7.0, 7.0, 7.0]


def test_sample_block_shape_checked(relation):
    vg = BadShapeVG().bind(relation)
    with pytest.raises(VGFunctionError, match="shape"):
        vg.sample_block(0, make_generator(0, 0), 4)


def test_overlapping_blocks_rejected(relation):
    with pytest.raises(VGFunctionError, match="disjoint"):
        OverlappingBlocksVG().bind(relation)


def test_incomplete_blocks_rejected(relation):
    with pytest.raises(VGFunctionError, match="cover"):
        IncompleteBlocksVG().bind(relation)


def test_default_support_is_unbounded(relation):
    vg = ConstantVG().bind(relation)
    lo, hi = vg.support()
    assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))
    assert vg.mean() is None


def test_grouped_blocks_by_value():
    blocks = grouped_blocks(np.array(["x", "y", "x", "z", "y"], dtype=object))
    assert [b.tolist() for b in blocks] == [[0, 2], [1, 4], [3]]
    assert grouped_blocks(np.array([], dtype=object)) == []


def test_grouped_blocks_preserve_first_occurrence_order():
    blocks = grouped_blocks(np.array([5, 3, 5]))
    assert blocks[0].tolist() == [0, 2]
    assert blocks[1].tolist() == [1]
