"""Counter-based deterministic random numbers.

Every random quantity in this package is a pure function of four integers:
the run seed, a stream id (one per node of the process description), a
trial index and a position.  There is no mutable generator state, so any
single draw can be reproduced in isolation and blocks of draws can be
computed in any order, in parallel, or twice, with identical results.

The construction is three chained SplitMix64 steps:

    h0 = mix(seed)
    h1 = mix(h0 + stream * GOLDEN)
    h2 = mix(h1 + trial  * GOLDEN)
    u64(position) = mix(h2 + position * GOLDEN)

``mix`` is the SplitMix64 finalizer (Steele, Lea & Flood's constants),
which is bijective on 64-bit words, and GOLDEN is the 64-bit golden-ratio
increment.  For a fixed (seed, stream, trial) the positions therefore walk
a plain SplitMix64 sequence; distinct trials or streams land in unrelated
sequences.  Statistical quality is more than enough for Monte Carlo;
nothing here is cryptographic.

All integer arithmetic is mod 2**64.  Scalar helpers use Python ints with
explicit masking; block helpers use numpy uint64 arrays, whose arithmetic
wraps natively.  The two paths are bit-identical (tested).
"""

from __future__ import annotations

import numpy as np

from .scratch import FRESH, tile_order

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# 2**-53, for mapping the top 53 bits of a word into (0, 1)
_U53 = 1.0 / (1 << 53)
# the largest double below 1: (2**53 - 1 + 0.5) * 2**-53 rounds up to 1.0,
# so the one word whose top 53 bits are all ones maps here instead
_BELOW_ONE = 1.0 - _U53


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    x &= MASK
    x = ((x ^ (x >> 30)) * _MIX_A) & MASK
    x = ((x ^ (x >> 27)) * _MIX_B) & MASK
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array.

    The input array is left untouched; the result is a fresh array.
    """
    return _mix64_inplace(x.copy(), np.empty_like(x))


def _mix64_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over x in place; ``scratch`` (same shape and
    dtype) holds the shifted words, so no other array is allocated."""
    for shift, factor in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        x ^= scratch
        if factor is not None:
            x *= np.uint64(factor)
    return x


def stream_key(seed: int, stream: int) -> int:
    """Collapse (seed, stream) into one 64-bit key."""
    h0 = mix64(seed)
    return mix64((h0 + (stream & MASK) * GOLDEN) & MASK)


def trial_key(seed: int, stream: int, trial: int) -> int:
    """Collapse (seed, stream, trial) into one 64-bit key."""
    skey = stream_key(seed, stream)
    return mix64((skey + (trial & MASK) * GOLDEN) & MASK)


def trial_keys(seed: int, stream: int, trials: np.ndarray) -> np.ndarray:
    """Vector of trial keys for a uint64 array of trial indices."""
    skey = np.uint64(stream_key(seed, stream))
    keys = trials.astype(np.uint64, copy=False) * np.uint64(GOLDEN)
    keys += skey
    return _mix64_inplace(keys, np.empty_like(keys))


def _word_to_unit(word: int) -> float:
    """Map a 64-bit word to a float in the open interval (0, 1)."""
    return min(((word >> 11) + 0.5) * _U53, _BELOW_ONE)


def uniform(seed: int, stream: int, trial: int, position: int) -> float:
    """One uniform draw in (0, 1), reproducible in isolation."""
    tkey = trial_key(seed, stream, trial)
    word = mix64((tkey + (position & MASK) * GOLDEN) & MASK)
    return _word_to_unit(word)


def uniform_block(
    seed: int, stream: int, trials: np.ndarray, positions: np.ndarray, scratch=FRESH
) -> np.ndarray:
    """Uniforms in (0, 1) for every (trial, position) pair.

    ``trials`` has shape (T,), ``positions`` shape (L,); the result has
    shape (T, L), stored in ``tile_order(T, L)``.  Row t column j equals
    ``uniform(seed, stream, trials[t], positions[j])`` bit for bit.  The
    result and the words behind it come from ``scratch``, and the words are
    handed back (``Scratch.give_back``): the next array asked for reuses
    their memory, so a sampler's tile needs one tile-sized array less.
    """
    tkeys = trial_keys(seed, stream, trials)
    pos = positions.astype(np.uint64) * np.uint64(GOLDEN)
    shape = (len(tkeys), len(pos))
    order = tile_order(*shape)
    out = scratch.empty(shape, order=order)
    words = np.add(tkeys[:, None], pos[None, :], out=scratch.empty(shape, np.uint64, order))
    _mixed_to_unit(words, out)
    scratch.give_back()
    return out


def uniform_column(seed: int, stream: int, trials: np.ndarray, position: int) -> np.ndarray:
    """One uniform per trial, all at the same position.  Shape (T,)."""
    words = trial_keys(seed, stream, trials)
    words += np.uint64((position & MASK) * GOLDEN & MASK)
    return _mixed_to_unit(words, np.empty(len(words)))


def _mixed_to_unit(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_word_to_unit(mix64(word)) of each word, into out; overwrites the words."""
    _mix64_inplace(words, out.view(np.uint64))
    words >>= np.uint64(11)
    # the top 53 bits fit int64 exactly, and int64 converts to float
    # faster than uint64; the float add rounds exactly as _word_to_unit
    np.add(words.view(np.int64), 0.5, out=out)
    out *= _U53
    return np.minimum(out, _BELOW_ONE, out=out)


def index_position(k: int) -> int:
    """Map a (possibly negative) sequence index to an unsigned position.

    Two's complement on 64 bits: distinct indices in [-2**63, 2**63) get
    distinct positions, and the mapping does not depend on the window the
    index happens to sit in.
    """
    return k & MASK


def index_positions(lo_plus_1: int, hi: int) -> np.ndarray:
    """Positions for the increment indices lo+1 .. hi, as uint64."""
    ks = np.arange(lo_plus_1, hi + 1, dtype=np.int64)
    return ks.view(np.uint64)
