"""Compiled inner loops: PRNG, sparsifier sweeps, negative sampling.

Every function here is numba-compiled unless the ``HGSPARSE_NO_NUMBA``
flag is set (see :mod:`hgsparse._accel`), and is written against numpy
arrays only, so the pure-Python path runs the identical source.

The PRNG is xorshift64.  The stream state lives in a one-element
``uint64`` array (see ``_rng.state_buffer``) rather than a scalar: a
scalar state crossing the Python/numba boundary would re-dispatch as
``int64`` whenever its value drops below 2**63, silently switching the
right-shifts to sign-extending ones.  Inside the kernels only shift/
xor/and/compare ops touch the state, which also keeps the pure path
free of numpy overflow warnings and bit-identical to the compiled path.
:class:`hgsparse._rng.RandomStream` is the pure-``int`` reference
implementation of the same stream; the two are cross-checked in tests.

Stream-consumption contract (must match ``_rng``):

* ``_randbelow(state, bound)`` with ``bound <= 1`` returns 0 and does
  not advance the state.
* ``_shuffle_prefix`` issues exactly one ``_randbelow`` per shuffled
  position.
* Take-all shortcuts in the sweeps (need >= pool) consume nothing.
"""

from __future__ import annotations

import numpy as np

from ._accel import jitkernel

_S13 = np.uint64(13)
_S7 = np.uint64(7)
_S17 = np.uint64(17)
_F1 = np.uint64(1)
_F2 = np.uint64(2)
_F4 = np.uint64(4)
_F8 = np.uint64(8)
_F16 = np.uint64(16)
_F32 = np.uint64(32)

# rejection attempts per negative draw before switching to an exact scan
_NEG_ATTEMPT_CAP = 64


# ---- random stream ----


@jitkernel
def _randbelow(state, bound):
    """Uniform int64 in [0, bound) by mask-and-reject; bound <= 1 is free."""
    if bound <= 1:
        return np.int64(0)
    ub = np.uint64(bound)
    mask = np.uint64(bound - 1)
    mask |= mask >> _F1
    mask |= mask >> _F2
    mask |= mask >> _F4
    mask |= mask >> _F8
    mask |= mask >> _F16
    mask |= mask >> _F32
    s = state[0]
    while True:
        s ^= s << _S13
        s ^= s >> _S7
        s ^= s << _S17
        draw = s & mask
        if draw < ub:
            state[0] = s
            return np.int64(draw)


@jitkernel
def _shuffle_prefix(arr, size, count, state):
    """Fisher-Yates the first count slots of arr[:size] in place."""
    for i in range(count):
        j = _randbelow(state, size - i)
        jj = i + j
        tmp = arr[i]
        arr[i] = arr[jj]
        arr[jj] = tmp


# ---- sparsifier sweeps ----
#
# Bucket layout per direction (see graph module): `order` lists edge ids
# grouped by (node, etype) with ascending id inside each bucket;
# `bkt_ptr` bounds bucket b at order[bkt_ptr[b]:bkt_ptr[b+1]]; a node's
# buckets are the range node_bkt_ptr[u]:node_bkt_ptr[u+1].


@jitkernel
def _per_type_node_dir(order, bkt_ptr, b_lo, b_hi, k, selected, scratch, state):
    for b in range(b_lo, b_hi):
        lo = bkt_ptr[b]
        hi = bkt_ptr[b + 1]
        if hi - lo < k:
            for p in range(lo, hi):
                selected[order[p]] = True
            continue
        have = np.int64(0)
        free = np.int64(0)
        for p in range(lo, hi):
            e = order[p]
            if selected[e]:
                have += 1
            else:
                scratch[free] = e
                free += 1
        need = k - have
        if need <= 0:
            continue
        if need >= free:
            for p in range(free):
                selected[scratch[p]] = True
        else:
            # scratch[:free] is ascending (bucket order) - canonical pool
            _shuffle_prefix(scratch, free, need, state)
            for p in range(need):
                selected[scratch[p]] = True


@jitkernel
def _all_types_node_dir(order, bkt_ptr, b_lo, b_hi, k, selected, scratch, state):
    if b_lo == b_hi:
        return
    # phase 1: one uniform pick per bucket that has no selected edge yet
    for b in range(b_lo, b_hi):
        lo = bkt_ptr[b]
        hi = bkt_ptr[b + 1]
        covered = False
        for p in range(lo, hi):
            if selected[order[p]]:
                covered = True
                break
        if not covered:
            j = _randbelow(state, hi - lo)
            selected[order[lo + j]] = True
    # phase 2: top up to k across all this node-direction's edges
    lo = bkt_ptr[b_lo]
    hi = bkt_ptr[b_hi]
    have = np.int64(0)
    free = np.int64(0)
    for p in range(lo, hi):
        e = order[p]
        if selected[e]:
            have += 1
        else:
            scratch[free] = e
            free += 1
    need = k - have
    if need <= 0:
        return
    if need >= free:
        for p in range(free):
            selected[scratch[p]] = True
        return
    # pool spans several buckets; restore canonical ascending-id order
    scratch[:free].sort()
    _shuffle_prefix(scratch, free, need, state)
    for p in range(need):
        selected[scratch[p]] = True


@jitkernel
def _sweep(per_type, vertex_order,
           out_order, out_bkt_ptr, out_node_bkt_ptr,
           in_order, in_bkt_ptr, in_node_bkt_ptr,
           k, selected, scratch, state):
    for vi in range(vertex_order.shape[0]):
        u = vertex_order[vi]
        if per_type:
            _per_type_node_dir(
                out_order, out_bkt_ptr, out_node_bkt_ptr[u],
                out_node_bkt_ptr[u + 1], k, selected, scratch, state)
            _per_type_node_dir(
                in_order, in_bkt_ptr, in_node_bkt_ptr[u],
                in_node_bkt_ptr[u + 1], k, selected, scratch, state)
        else:
            _all_types_node_dir(
                out_order, out_bkt_ptr, out_node_bkt_ptr[u],
                out_node_bkt_ptr[u + 1], k, selected, scratch, state)
            _all_types_node_dir(
                in_order, in_bkt_ptr, in_node_bkt_ptr[u],
                in_node_bkt_ptr[u + 1], k, selected, scratch, state)


# ---- canonical edge-table lookups ----


@jitkernel
def _bisect_left(arr, lo, hi, val):
    while lo < hi:
        mid = (lo + hi) // 2
        if arr[mid] < val:
            lo = mid + 1
        else:
            hi = mid
    return lo


@jitkernel
def _bisect_right(arr, lo, hi, val):
    while lo < hi:
        mid = (lo + hi) // 2
        if arr[mid] <= val:
            lo = mid + 1
        else:
            hi = mid
    return lo


@jitkernel
def _edge_exists(src, dst, etype, s, d, t):
    """Membership of (s, d, t) in a table sorted by (src, dst, etype)."""
    lo = _bisect_left(src, 0, src.shape[0], s)
    hi = _bisect_right(src, lo, src.shape[0], s)
    if lo == hi:
        return False
    lo = _bisect_left(dst, lo, hi, d)
    hi = _bisect_right(dst, lo, hi, d)
    if lo == hi:
        return False
    lo = _bisect_left(etype, lo, hi, t)
    return lo < hi and etype[lo] == t


# ---- negative sampling ----


@jitkernel
def _sample_negatives(src, dst, etype, pos_src, pos_dst_type_slot, pos_etype,
                      pop_ptr, pop_nodes, per_pos, out, valid_scratch, state):
    """Typed destination corruption for each positive edge.

    For positive i, draws per_pos destinations uniformly from the node
    population pop_nodes[pop_ptr[slot]:pop_ptr[slot+1]] (slot = the dst's
    node-type), rejecting candidates w with (u, w, t) already an edge.
    Falls back to an exact scan of the population when rejection keeps
    missing, so dense neighborhoods stay uniform over the valid set.
    Returns the index of the first positive with zero valid candidates,
    or -1 if all succeeded.
    """
    for i in range(pos_src.shape[0]):
        u = pos_src[i]
        t = pos_etype[i]
        plo = pop_ptr[pos_dst_type_slot[i]]
        phi = pop_ptr[pos_dst_type_slot[i] + 1]
        psize = phi - plo
        valid_count = np.int64(-1)
        for j in range(per_pos):
            if valid_count >= 0:
                out[i, j] = valid_scratch[_randbelow(state, valid_count)]
                continue
            w = np.int64(-1)
            for _attempt in range(_NEG_ATTEMPT_CAP):
                cand = pop_nodes[plo + _randbelow(state, psize)]
                if not _edge_exists(src, dst, etype, u, cand, t):
                    w = cand
                    break
            if w < 0:
                valid_count = np.int64(0)
                for p in range(plo, phi):
                    cand = pop_nodes[p]
                    if not _edge_exists(src, dst, etype, u, cand, t):
                        valid_scratch[valid_count] = cand
                        valid_count += 1
                if valid_count == 0:
                    return np.int64(i)
                w = valid_scratch[_randbelow(state, valid_count)]
            out[i, j] = w
    return np.int64(-1)

