"""Deterministic stream behavior and parity with the compiled kernels."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hgsparse import RandomStream, mix_seed, substream_seed
from hgsparse._kernels import _randbelow, _shuffle_prefix
from hgsparse._rng import (counter_words, randbelow_array, splitmix64,
                           splitmix64_array, state_buffer)

_GAMMA = 0x9E3779B97F4A7C15


def test_same_seed_same_sequence():
    a = RandomStream(123)
    b = RandomStream(123)
    assert [a.randbelow(10) for _ in range(50)] == [b.randbelow(10) for _ in range(50)]


def test_different_seeds_diverge():
    a = [RandomStream(1).randbelow(1 << 30) for _ in range(4)]
    b = [RandomStream(2).randbelow(1 << 30) for _ in range(4)]
    assert a != b


def test_randbelow_small_bounds_consume_nothing():
    rng = RandomStream(7)
    before = rng.state
    assert rng.randbelow(1) == 0
    assert rng.randbelow(0) == 0
    assert rng.state == before
    # bound > 1 must advance the state
    rng.randbelow(2)
    assert rng.state != before


def test_seed_validation():
    with pytest.raises(ValueError):
        mix_seed(-1)
    with pytest.raises(ValueError):
        mix_seed(1 << 64)
    assert mix_seed(0) != 0


def test_substreams_are_distinct():
    seeds = {substream_seed(42, tag) for tag in range(8)}
    assert len(seeds) == 8
    assert substream_seed(42, 1) != 42


@given(seed=st.integers(0, 2**64 - 1), bound=st.integers(1, 2**62),
       draws=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_randbelow_in_range(seed, bound, draws):
    rng = RandomStream(seed)
    for _ in range(draws):
        assert 0 <= rng.randbelow(bound) < bound


@given(seed=st.integers(0, 2**64 - 1),
       bounds=st.lists(st.integers(1, 2**62), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_kernel_parity(seed, bounds):
    """The njit kernel and the Python stream must walk the same state path."""
    rng = RandomStream(seed)
    state = state_buffer(seed)
    for bound in bounds:
        assert rng.randbelow(bound) == int(_randbelow(state, bound))
        assert rng.state == int(state[0])


def test_kernel_parity_across_sign_boundary():
    # Regression guard: long runs cross the 2**63 state boundary many times,
    # which once diverged when kernels took the state as a scalar.
    rng = RandomStream(9)
    state = state_buffer(9)
    low = high = 0
    for i in range(4000):
        bound = (i % 97) + 2
        assert rng.randbelow(bound) == int(_randbelow(state, bound))
        if rng.state < 2**63:
            low += 1
        else:
            high += 1
    assert low > 0 and high > 0
    assert rng.state == int(state[0])


def test_shuffle_prefix_consumption_contract():
    """shuffle_prefix(items, c) consumes exactly one randbelow per position."""
    items = list(range(8))
    rng = RandomStream(55)
    rng.shuffle_prefix(items, 3)

    replay = RandomStream(55)
    manual = list(range(8))
    for i in range(3):
        j = i + replay.randbelow(len(manual) - i)
        manual[i], manual[j] = manual[j], manual[i]
    assert items == manual
    assert rng.state == replay.state


def test_shuffle_prefix_kernel_parity():
    items = list(range(11))
    rng = RandomStream(3)
    rng.shuffle_prefix(items, 6)
    arr = np.arange(11, dtype=np.int64)
    state = state_buffer(3)
    _shuffle_prefix(arr, 11, 6, state)
    assert list(arr) == items
    assert rng.state == int(state[0])


def test_shuffle_prefix_full_pool_is_permutation():
    items = list(range(9))
    RandomStream(12).shuffle_prefix(items, 9)
    assert sorted(items) == list(range(9))
    with pytest.raises(ValueError):
        RandomStream(0).shuffle_prefix([1, 2], 3)


def test_randbelow_roughly_uniform():
    rng = RandomStream(2024)
    counts = np.bincount([rng.randbelow(4) for _ in range(8000)], minlength=4)
    assert counts.min() > 1800 and counts.max() < 2200


# ---- counter-keyed stream ----


@given(values=st.lists(st.integers(0, 2**64 - 1), max_size=20))
@settings(max_examples=100, deadline=None)
def test_splitmix64_array_matches_scalar(values):
    values = [0, 2**63, 2**64 - 1] + values
    assert splitmix64_array(values).tolist() == [splitmix64(v) for v in values]


@given(seed=st.integers(0, 2**64 - 1), tag=st.integers(0, 2**64 - 1),
       counters=st.lists(st.integers(0, 2**40), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_counter_words_are_splitmix_outputs(seed, tag, counters):
    base = substream_seed(seed, tag)
    want = [splitmix64((base + c * _GAMMA) % 2**64) for c in counters]
    assert counter_words(seed, tag, counters).tolist() == want


def test_counter_words_never_collide():
    words = counter_words(5, 1, np.arange(100_000))
    assert np.unique(words).size == words.size


def test_randbelow_array_small_bounds_give_zero():
    keys = counter_words(3, 0, np.arange(6))
    assert randbelow_array(keys, [1, 0, -4, 1, 0, 1]).tolist() == [0] * 6


@given(seed=st.integers(0, 2**64 - 1),
       bounds=st.lists(st.integers(1, 2**62), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_randbelow_array_in_range_without_overflow_warnings(seed, bounds):
    bounds = [2, 3, 5, 6, 7] * 20 + bounds  # small bounds hit the edge often
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = counter_words(seed, 0, np.arange(len(bounds)))
        draws = randbelow_array(keys, bounds)
        splitmix64_array([2**64 - 1, 2**63])
    assert draws.dtype == np.int64
    assert all(0 <= d < b for d, b in zip(draws.tolist(), bounds))


def test_randbelow_array_takes_first_word_below_bound():
    # bound 5 masks with 7; about 3 keys in 8 reject their first word
    keys = counter_words(11, 0, np.arange(64))
    want = []
    for key in keys.tolist():
        words = (splitmix64((key + r * _GAMMA) % 2**64) & 7 for r in range(64))
        want.append(next(w for w in words if w < 5))
    assert randbelow_array(keys, 5).tolist() == want


def test_randbelow_array_roughly_uniform():
    draws = randbelow_array(counter_words(2024, 0, np.arange(8000)), 6)
    counts = np.bincount(draws, minlength=6)
    assert counts.min() > 1200 and counts.max() < 1480
