"""The counter-keyed 64-bit random stream behind every random choice.

The word at counter ``c`` of stream ``(seed, tag)`` is output ``c`` of a
SplitMix64 generator seeded at ``substream_seed(seed, tag)`` (Steele, Lea
& Flood, OOPSLA 2014).  No word depends on another, so numpy computes
them in batches (Salmon et al., SC 2011); counter to word is a bijection,
so distinct counters of one stream never share a word.

Streams stay independent only while their keys stay distinct (Salmon et
al., SC 2011), so every tag is named once, here, and no two uses share
one:

=====================  ======  ==========================================
name                   tag     stream
=====================  ======  ==========================================
``SPLIT_TAG``          0       eval's holdout split
``NEGATIVE_TAG``       1       eval's negatives
``SWEEP_TAG``          2       the sparsify sweep's priority words
``GEN_SRC_TAG``        3 + 2i  the generator's sources of edge type i
``GEN_DST_TAG``        4 + 2i  the generator's destinations of edge type i
=====================  ======  ==========================================

Every draw is word ``c`` of stream ``(seed, TAG)`` for the seed its
caller passed: each stream keys its tag once, in :func:`counter_words`,
and no caller derives a seed of its own first.  So :func:`hgsparse.evaluate`
draws its split, negatives and sweep from its one seed, as ``hgsparse
eval --seed`` does, and its sweep is the one ``hgsparse sparsify`` runs
under that seed.  A seed is an int in [0, 2**64), and
:func:`check_seed` is the one test of that.
"""

from __future__ import annotations

import numpy as np

SPLIT_TAG, NEGATIVE_TAG, SWEEP_TAG = 0, 1, 2
GEN_SRC_TAG, GEN_DST_TAG = 3, 4  # edge type i adds 2i to each

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One splitmix64 step: advance by the golden gamma and finalize."""
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


_GAMMA_U64 = np.uint64(_SPLITMIX_GAMMA)


def splitmix64_array(values) -> np.ndarray:
    """:func:`splitmix64` of every element, as a new 1-d ``uint64`` array."""
    return _mix(np.array(values, dtype=np.uint64, ndmin=1))


def _mix(value: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every element of a ``uint64`` array, in place."""
    # only arrays meet the uint64 constants: numpy wraps array arithmetic
    # silently but warns on overflow of scalar uint64 arithmetic
    value += _GAMMA_U64
    value ^= value >> np.uint64(30)
    value *= np.uint64(0xBF58476D1CE4E5B9)
    value ^= value >> np.uint64(27)
    value *= np.uint64(0x94D049BB133111EB)
    value ^= value >> np.uint64(31)
    return value


def counter_words(seed: int, tag: int, counters) -> np.ndarray:
    """Word of the counter-keyed ``(seed, tag)`` stream at each counter.

    Word ``c`` is ``splitmix64(substream_seed(seed, tag) + c * gamma)``.
    """
    value = np.array(counters, dtype=np.uint64, ndmin=1)
    value *= _GAMMA_U64
    value += np.uint64(substream_seed(seed, tag))
    return _mix(value)


_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def randbelow_array(keys, bounds) -> np.ndarray:
    """Uniform int64 in ``[0, bound)`` per key, exact by multiply-shift.

    Key ``k`` reads the words ``w = splitmix64(k + r * gamma)``, r = 0, 1,
    ..., and takes the high 64 bits of the 128-bit ``w * bound`` from the
    first word whose low 64 bits are not below ``(2**64 - bound) % bound``
    (Lemire, ACM TOMACS 2019).  Each value then has exactly
    ``2**64 // bound`` accepted words, and a word rejects with probability
    under ``bound / 2**64``.  The product is built from 32-bit halves, so
    it is exact for every bound below ``2**63``.  A bound <= 1 gives 0
    and reads no word.
    """
    keys = np.array(keys, dtype=np.uint64, ndmin=1)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=np.int64), keys.shape)
    out = np.zeros(keys.shape, dtype=np.int64)
    todo = np.flatnonzero(bounds > 1)
    bound = bounds[todo].astype(np.uint64)
    key = keys[todo]
    while todo.size:
        word = splitmix64_array(key)
        b_lo, b_hi = bound & _LOW32, bound >> _32
        w_lo, w_hi = word & _LOW32, word >> _32
        cross = w_lo * b_hi
        mid = (w_lo * b_lo) >> _32
        mid += cross & _LOW32
        mid += w_hi * b_lo
        high = w_hi * b_hi
        high += cross >> _32
        high += mid >> _32
        out[todo] = high  # a rejected entry is overwritten by a later round
        word *= bound  # the low 64 bits of the product
        # the threshold is below bound, so a low word >= bound accepts at once
        near = np.flatnonzero(word < bound)
        b = bound[near]
        redraw = near[word[near] < (np.uint64(0) - b) % b]
        todo, bound, key = todo[redraw], bound[redraw], key[redraw] + _GAMMA_U64
    return out


def check_seed(seed, error=ValueError) -> None:
    """Raise ``error`` unless ``seed`` is an int in [0, 2**64), a stream's seed."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise error(f"seed must be in [0, 2**64), got {seed!r}")


def substream_seed(seed: int, tag: int) -> int:
    """Derive an independent seed for a labelled substream of ``seed``."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (tag & _MASK64))
