"""Deterministic behavior of the counter-keyed stream, the only one in use."""

import ast
import itertools
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import hgsparse
from hgsparse import (EdgeTypeSpec, GenSpec, GenSpecError, SparsifyParams, generate,
                      sparsify)
from hgsparse._rng import (counter_words, randbelow_array, splitmix64, splitmix64_array,
                           substream_seed)

_GAMMA = 0x9E3779B97F4A7C15


def test_same_seed_same_sequence():
    # a word depends on its counter alone, however the counters are batched
    whole = counter_words(123, 2, np.arange(50))
    assert np.array_equal(whole, np.concatenate(
        [counter_words(123, 2, np.arange(lo, lo + 10)) for lo in range(0, 50, 10)]))
    assert np.array_equal(whole[[7, 3]], counter_words(123, 2, [7, 3]))


def test_different_seeds_diverge():
    a = counter_words(1, 2, np.arange(4))
    b = counter_words(2, 2, np.arange(4))
    assert not (a == b).any()


def test_substreams_are_distinct():
    seeds = {substream_seed(42, tag) for tag in range(8)}
    assert len(seeds) == 8
    assert substream_seed(42, 1) != 42


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


def _reference_randbelow(key: int, bound: int) -> int:
    """Lemire's multiply-shift draw in Python integers: the high word of
    ``w * bound`` from the first word whose low word is not below the
    threshold, the words read at ``key + r * gamma``."""
    threshold = (2**64 - bound) % bound
    for r in itertools.count():
        product = splitmix64((key + r * _GAMMA) % 2**64) * bound
        if product % 2**64 >= threshold:
            return product >> 64


# a carry between the 32-bit halves at 2**32 +- 1; a third of the first
# words reject just above 2**64 / 3; the largest bounds use every bit
DRAW_BOUNDS = (2, 5, 2**32 - 1, 2**32, 2**32 + 1, 2**64 // 3 + 1, 2**63 - 2, 2**63 - 1)


def test_randbelow_array_matches_multiply_shift_reference():
    keys = counter_words(11, 0, np.arange(64 * len(DRAW_BOUNDS)))
    bounds = np.repeat(DRAW_BOUNDS, 64)
    want = [_reference_randbelow(k, b) for k, b in zip(keys.tolist(), bounds.tolist())]
    assert randbelow_array(keys, bounds).tolist() == want
    # the redraw path runs: first words rejected at 2**64 // 3 + 1
    bound = 2**64 // 3 + 1
    rejected = sum((splitmix64(k) * bound) % 2**64 < (2**64 - bound) % bound
                   for k in keys[:64].tolist())
    assert 10 <= rejected <= 40


@given(seed=st.integers(0, 2**64 - 1),
       bounds=st.lists(st.one_of(st.integers(2, 2**63 - 1), st.sampled_from(DRAW_BOUNDS)),
                       min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_randbelow_array_matches_reference_on_any_bound(seed, bounds):
    keys = counter_words(seed, 0, np.arange(len(bounds)))
    want = [_reference_randbelow(k, b) for k, b in zip(keys.tolist(), bounds)]
    assert randbelow_array(keys, bounds).tolist() == want


def test_randbelow_array_roughly_uniform():
    draws = randbelow_array(counter_words(2024, 0, np.arange(8000)), 6)
    counts = np.bincount(draws, minlength=6)
    assert counts.min() > 1200 and counts.max() < 1480


def _no_word(values):
    raise AssertionError("word drawn")


def test_randbelow_small_bounds_consume_nothing():
    keys = counter_words(7, 0, np.arange(4))
    with mock.patch.object(hgsparse._rng, "splitmix64_array", _no_word):
        assert randbelow_array(keys, [1, 0, -3, 1]).tolist() == [0] * 4
        # bound > 1 must draw a word
        with pytest.raises(AssertionError, match="word drawn"):
            randbelow_array(keys, [1, 2, 0, 1])
    # a small bound leaves the other keys' draws as they were
    mixed = randbelow_array(keys, [1, 9, 0, 9])
    assert mixed[[1, 3]].tolist() == randbelow_array(keys[[1, 3]], 9).tolist()


def test_seed_validation():
    # seeds enter the stream through SparsifyParams, GenSpec and split_edges,
    # on [0, 2**64); test_evalproxy tries split_edges and evaluate
    types = (EdgeTypeSpec(0, 0, 6),)
    for bad in (-1, 1 << 64, 1.5):
        with pytest.raises(ValueError, match="seed must be in"):
            SparsifyParams(k=1, seed=bad)
        with pytest.raises(GenSpecError, match="seed must be in"):
            GenSpec((5,), types, seed=bad)
    for seed in (0, 2**64 - 1):
        g = generate(GenSpec((5,), types, seed=seed))
        assert sparsify(g, SparsifyParams(k=1, seed=seed)).kept >= 1
    assert substream_seed(0, 0) != 0


@given(seed=st.integers(0, 2**64 - 1), bound=st.integers(1, 2**62),
       draws=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_randbelow_in_range(seed, bound, draws):
    got = randbelow_array(counter_words(seed, 0, np.arange(draws)), bound)
    assert ((0 <= got) & (got < bound)).all()


def test_randbelow_roughly_uniform():
    draws = randbelow_array(counter_words(2024, 0, np.arange(8000)), 4)
    counts = np.bincount(draws, minlength=4)
    assert counts.min() > 1800 and counts.max() < 2200


def _random_sources(tree: ast.AST) -> list[int]:
    """Lines that import ``random`` or name ``numpy.random``, however spelt."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] == "random" or name.startswith("np.random")
               or name.startswith("numpy.random") for name in names):
            lines.append(node.lineno)
    return lines


def test_one_random_stream():
    # every random choice in the package reads hgsparse._rng's stream
    assert _random_sources(ast.parse(
        "import random\nfrom numpy import random\nnp.random.default_rng(0)\n")) == [1, 2, 3]
    package = Path(hgsparse.__file__).parent
    offenders = {path.name: lines for path in sorted(package.glob("*.py"))
                 if (lines := _random_sources(ast.parse(path.read_text(encoding="utf-8"))))}
    assert offenders == {}
