"""RNG key derivation: determinism, independence, stream separation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rngkeys import (
    KeyedGenerator,
    derive_key,
    make_generator,
    spawn_dataset_rng,
)

parts = st.integers(min_value=0, max_value=2**31 - 1)


def test_same_components_same_key():
    assert np.array_equal(derive_key(1, 2, 3, 4), derive_key(1, 2, 3, 4))


def test_key_shape_and_dtype():
    key = derive_key(7, 0)
    assert key.shape == (2,)
    assert key.dtype == np.uint64


@given(a=parts, b=parts)
def test_distinct_parts_distinct_keys(a, b):
    if a == b:
        return
    assert not np.array_equal(derive_key(0, 0, a), derive_key(0, 0, b))


def test_part_position_matters():
    # (1, 2) vs (2, 1) must not collide: the payload is positional.
    assert not np.array_equal(derive_key(0, 0, 1, 2), derive_key(0, 0, 2, 1))


def test_seed_and_stream_both_matter():
    base = derive_key(5, 0, 9)
    assert not np.array_equal(base, derive_key(6, 0, 9))
    assert not np.array_equal(base, derive_key(5, 1, 9))


def test_generator_reproducible():
    a = make_generator(3, 1, 42).normal(size=8)
    b = make_generator(3, 1, 42).normal(size=8)
    assert np.array_equal(a, b)


def test_generators_independent_streams():
    a = make_generator(3, 1, 42).normal(size=1000)
    b = make_generator(3, 1, 43).normal(size=1000)
    # Streams from distinct keys should be essentially uncorrelated.
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.15


def test_dataset_rng_label_separation():
    a = spawn_dataset_rng(42, "galaxy").normal(size=4)
    b = spawn_dataset_rng(42, "portfolio").normal(size=4)
    assert not np.array_equal(a, b)


def test_dataset_rng_reproducible():
    a = spawn_dataset_rng(42, "galaxy").normal(size=4)
    b = spawn_dataset_rng(42, "galaxy").normal(size=4)
    assert np.array_equal(a, b)


def test_negative_like_parts_normalized():
    # Components pass through int(); floats equal to ints are accepted.
    assert np.array_equal(derive_key(1, 2, 3.0), derive_key(1, 2, 3))


#: Partial draws that leave the Philox mid-block: a buffered 64-bit
#: word, a half-used word (``has_uint32``), or both.
_PARTIAL_DRAWS = {
    "none": lambda rng: None,
    "one_double": lambda rng: rng.random(),
    "one_int32": lambda rng: rng.integers(0, 5, dtype=np.int32),
    "int32_then_doubles": lambda rng: (
        rng.integers(0, 5, dtype=np.int32), rng.random(3)
    ),
}


def _draws(rng):
    return np.concatenate(
        [
            rng.random(5),
            rng.normal(size=7),
            rng.integers(0, 1000, size=9, dtype=np.int32).astype(float),
            rng.pareto(1.0, size=4),
        ]
    )


@pytest.mark.parametrize("partial", sorted(_PARTIAL_DRAWS))
@pytest.mark.parametrize("index", [0, 1, 7, 4095, 2**40])
def test_keyed_generator_draws_what_a_fresh_generator_draws(index, partial):
    keyed = KeyedGenerator(11, 2, 3, 1)
    _PARTIAL_DRAWS[partial](keyed.at(index + 1))
    rng, fresh = keyed.at(index), make_generator(11, 2, 3, 1, index)
    assert _flat_state(rng) == _flat_state(fresh)
    assert np.array_equal(_draws(rng), _draws(fresh))


def _flat_state(rng) -> dict:
    state = rng.bit_generator.state
    flat = {k: v for k, v in state.items() if k not in ("state", "buffer")}
    flat["buffer"] = state["buffer"].tolist()
    flat.update({k: v.tolist() for k, v in state["state"].items()})
    return flat


def test_keyed_generators_sharing_one_philox_interleave():
    first = KeyedGenerator(5, 0, 0, 0)
    second = KeyedGenerator(5, 0, 0, 1, rng=first.rng)
    assert second.rng is first.rng
    for j in range(4):
        first.at(j).integers(0, 3, dtype=np.int32)
        assert np.array_equal(
            second.at(j).normal(size=3), make_generator(5, 0, 0, 1, j).normal(size=3)
        )
        assert np.array_equal(
            first.at(j).random(2), make_generator(5, 0, 0, 0, j).random(2)
        )
