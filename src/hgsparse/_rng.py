"""The counter-keyed 64-bit random stream behind every random choice.

The word at counter ``c`` of stream ``(seed, tag)`` is output ``c`` of a
SplitMix64 generator seeded at ``substream_seed(seed, tag)`` (Steele, Lea
& Flood, OOPSLA 2014).  No word depends on another, so numpy computes
them in batches (Salmon et al., SC 2011); counter to word is a bijection,
so distinct counters of one stream never share a word.  Each use keys
its own tags.
"""

from __future__ import annotations

import numpy as np

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


def randbelow_array(keys, bounds) -> np.ndarray:
    """Uniform int64 in ``[0, bound)`` per key, exact by mask-and-reject.

    Key ``k`` takes the first of ``splitmix64(k + r * gamma)``, r = 0, 1, ...,
    whose masked value is below its bound; each round re-hashes only the
    entries rejected so far.  A bound <= 1 gives 0.
    """
    keys = np.array(keys, dtype=np.uint64, ndmin=1)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=np.int64), keys.shape)
    out = np.zeros(keys.shape, dtype=np.int64)
    todo = np.flatnonzero(bounds > 1)
    bound = bounds[todo].astype(np.uint64)
    mask = bound - np.uint64(1)
    for shift in (1, 2, 4, 8, 16, 32):
        mask |= mask >> np.uint64(shift)
    word = keys[todo]
    while todo.size:
        draw = splitmix64_array(word) & mask
        hit = draw < bound
        out[todo[hit]] = draw[hit]
        miss = ~hit
        todo, bound, mask = todo[miss], bound[miss], mask[miss]
        word = word[miss] + _GAMMA_U64
    return out


def substream_seed(seed: int, tag: int) -> int:
    """Derive an independent seed for a labelled substream of ``seed``."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (tag & _MASK64))
