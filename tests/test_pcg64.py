"""The pure-Python generator against numpy's own: `numpy.random.default_rng(seed)` is the
oracle for every method `synth` calls, and `np.sum` for the pairwise sum.

Each draw is followed by a 32-bit and a 64-bit draw on both generators, so a carried
32-bit half that one of them kept and the other did not shows up as a mismatch.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdrift._pcg64 import Generator, NumpyGenerator, pairwise_sum

# seeds of one to five 32-bit words: 0 + k, 2^32 + k, 2^64 + k and 2^128 + k
seeds = st.sampled_from([0, 2**32, 2**64, 2**128]).flatmap(
    lambda base: st.integers(base, base + 2**20))
oracle = settings(max_examples=30, deadline=None)


def pair(seed):
    return Generator(seed), np.random.default_rng(seed)


def assert_same_follow_up(mine, numpy_rng):
    assert mine.integers(0, 1000, 3) == numpy_rng.integers(0, 1000, 3).tolist()
    assert mine.random() == numpy_rng.random()
    assert mine.integers(0, 7, 1) == numpy_rng.integers(0, 7, 1).tolist()


def weights():
    """Normalized probabilities, some entries possibly zero."""
    raw = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1,
                   max_size=12).filter(lambda ws: sum(ws) > 0)
    return raw.map(lambda ws: [w / math.fsum(ws) for w in ws])


@oracle
@given(seed=seeds)
def test_seeding_matches_pcg64(seed):
    state = np.random.PCG64(seed).state
    mine = Generator(seed)
    assert (mine._state, mine._inc) == (state["state"]["state"], state["state"]["inc"])
    assert mine._half is None and state["has_uint32"] == 0


@oracle
@given(seed=seeds, size=st.integers(0, 50))
def test_random(seed, size):
    mine, numpy_rng = pair(seed)
    assert mine.random() == numpy_rng.random()
    assert mine.random(size) == numpy_rng.random(size).tolist()
    assert_same_follow_up(mine, numpy_rng)


@oracle
@given(seed=seeds, low=st.integers(-10, 10),
       span=st.one_of(st.integers(1, 300), st.integers(1, 2**32)), size=st.integers(0, 40))
def test_integers(seed, low, span, size):
    mine, numpy_rng = pair(seed)
    assert mine.integers(low, low + span, size) == \
        numpy_rng.integers(low, low + span, size).tolist()
    assert_same_follow_up(mine, numpy_rng)


@pytest.mark.parametrize("length", [0, 1, 2] + [2**k + d for k in range(2, 11) for d in (-1, 1)])
def test_shuffle_matches_numpy_on_object_arrays(length):
    for seed in (length, 2**64 + length):
        mine, numpy_rng = pair(seed)
        items = [f"w{i}" for i in range(length)]
        array = np.array(items, dtype=object)
        mine.shuffle(items)
        numpy_rng.shuffle(array)
        assert items == array.tolist()
        assert_same_follow_up(mine, numpy_rng)


@oracle
@given(seed=seeds, p=weights(), size=st.integers(0, 200))
def test_choice(seed, p, size):
    mine, numpy_rng = pair(seed)
    assert mine.choice(len(p), size, p) == numpy_rng.choice(len(p), size, p=p).tolist()
    assert_same_follow_up(mine, numpy_rng)


def numpy_sum(values) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow, as in Python
        return float(np.sum(np.array(values, dtype=float)))


def test_pairwise_sum_at_every_length_to_300():
    # 8 and 128 are where numpy's blocking changes; above 128 it splits in two
    draw = random.Random(15)
    for length in range(301):
        values = [draw.uniform(-1.0, 1.0) * 10.0 ** draw.randint(-8, 8) for _ in range(length)]
        assert pairwise_sum(values).hex() == numpy_sum(values).hex(), length


@oracle
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
def test_pairwise_sum(values):
    assert pairwise_sum(values).hex() == numpy_sum(values).hex()


@oracle
@given(seed=seeds, size=st.integers(0, 30), p=weights())
def test_numpy_generator_answers_in_lists(seed, size, p):
    mine, theirs = Generator(seed), NumpyGenerator(seed)
    items, their_items = list(range(size)), list(range(size))
    assert mine.choice(len(p), size, p) == theirs.choice(len(p), size, p)
    mine.shuffle(items)
    theirs.shuffle(their_items)
    assert items == their_items
    assert mine.integers(0, 9, size) == theirs.integers(0, 9, size)
    assert mine.random(size) == theirs.random(size)
    assert mine.random() == theirs.random()
