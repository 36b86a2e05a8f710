"""Deterministic 64-bit random streams used by every sampling routine.

The sweep draws from a sequential stream: xorshift64 (shifts 13/7/17)
seeded through a splitmix64 scramble, with bounded draws done by
mask-and-reject so each value below the bound is equally likely.  The
compiled kernels implement the exact same update over ``uint64`` scalars,
so a stream state can cross the numba boundary in either direction and
stay reproducible.  :class:`RandomStream` is the pure ``int`` reference.

Eval's split and negatives draw from a counter-keyed stream: the word at
counter ``c`` of stream ``(seed, tag)`` is output ``c`` of a SplitMix64
generator seeded at ``substream_seed(seed, tag)`` (Steele, Lea & Flood,
OOPSLA 2014).  No word depends on another, so numpy computes them in
batches (Salmon et al., SC 2011); counter to word is a bijection, so
distinct counters of one stream never share a word.

Stream-consumption rules of the sequential stream (shared with the
kernels, relied on by the equivalence tests):

* ``randbelow(1)`` and ``randbelow(0)`` return 0 without advancing.
* A shuffle of ``count`` positions consumes exactly ``count`` bounded
  draws, one per position, even when a draw happens to be a self-swap.
* Sampling everything from a pool (``count >= len(pool)``) consumes
  nothing.
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
    # only arrays meet the uint64 constants: numpy wraps array arithmetic
    # silently but warns on overflow of scalar uint64 arithmetic
    value = np.array(values, dtype=np.uint64, ndmin=1) + _GAMMA_U64
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
    base = np.uint64(substream_seed(seed, tag))
    return splitmix64_array(np.array(counters, dtype=np.uint64, ndmin=1) * _GAMMA_U64 + base)


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


def mix_seed(seed: int) -> int:
    """Map a user seed to a nonzero xorshift64 state."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    state = splitmix64(seed)
    # xorshift64 has a single fixed point at zero; steer away from it.
    return state if state != 0 else _SPLITMIX_GAMMA


def substream_seed(seed: int, tag: int) -> int:
    """Derive an independent seed for a labelled substream of ``seed``."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (tag & _MASK64))


def state_buffer(seed: int) -> np.ndarray:
    """Seeded stream state in the one-element uint64 form the kernels take."""
    return np.array([mix_seed(seed)], dtype=np.uint64)


def _next(state: int) -> int:
    state ^= (state << 13) & _MASK64
    state ^= state >> 7
    state ^= (state << 17) & _MASK64
    return state


class RandomStream:
    """Tiny stateful wrapper over the xorshift64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0):
        self._state = mix_seed(seed)

    @property
    def state(self) -> int:
        return self._state

    def randbelow(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``; 0 consumes no state when bound <= 1."""
        if bound <= 1:
            return 0
        mask = bound - 1
        mask |= mask >> 1
        mask |= mask >> 2
        mask |= mask >> 4
        mask |= mask >> 8
        mask |= mask >> 16
        mask |= mask >> 32
        state = self._state
        while True:
            state = _next(state)
            draw = state & mask
            if draw < bound:
                self._state = state
                return draw

    def shuffle_prefix(self, items: list, count: int) -> None:
        """Fisher-Yates the first ``count`` slots of ``items`` in place."""
        n = len(items)
        if count > n:
            raise ValueError(f"cannot shuffle {count} slots of a {n}-item list")
        for i in range(count):
            j = i + self.randbelow(n - i)
            items[i], items[j] = items[j], items[i]
