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

All integer arithmetic is mod 2**64, and a word maps to (0, 1) by its
top 53 bits.  Three paths compute it, bit-identical (tested):

* scalar: :func:`uniform`, on Python ints with explicit masking;
* numpy: :func:`_mixed_to_unit`, about a dozen passes over uint64 arrays,
  whose arithmetic wraps natively;
* compiled: ``_uniforms.c``, one pass per tile in the tile's own memory
  order, called through ``ctypes``, which releases the GIL for the call.

:func:`gaussian_block` draws Gaussian increments from the same uniforms:
compiled, the library's second function writes them in the same pass,
with a port of the Cephes ``ndtri`` that ``scipy.special`` runs, bit for
bit; on the numpy path scipy's own ``ndtri`` transforms the uniforms.
So ``scipy.special`` is imported only where the library did not load.

:func:`uniform_block`, :func:`uniform_column` and :func:`gaussian_block`
take the compiled path wherever its library loads, and the numpy path
elsewhere; :func:`uniform_path` names the one in use.  The library is
looked for at import, beside this file in ``_build/`` under a name keyed
by a CRC of the C source, the compiler flags and the linked libraries.
Where it is missing, importing this module compiles it once with the
system's ``cc`` into a temporary file and renames that into place, so
concurrent first imports are safe.  Any failure (no compiler, a directory
that takes no files, a library that does not load) leaves the numpy path
in use, and nothing is printed.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

import numpy as np

from .scratch import FRESH, order_of, tile_order

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
    result comes from ``scratch``, and so do the numpy path's words.
    """
    tkeys = trial_keys(seed, stream, trials)
    shape = (len(tkeys), len(positions))
    return _units(tkeys, positions, scratch.empty(shape, order=tile_order(*shape)), scratch)


def uniform_column(seed: int, stream: int, trials: np.ndarray, position: int) -> np.ndarray:
    """One uniform per trial, all at the same position.  Shape (T,)."""
    tkeys = trial_keys(seed, stream, trials)
    pos = np.array([position & MASK], dtype=np.uint64)
    return _units(tkeys, pos, np.empty((len(tkeys), 1)))[:, 0]


def gaussian_block(
    seed: int, stream: int, trials: np.ndarray, positions: np.ndarray, mean: float,
    stddev: float, scratch=FRESH,
) -> np.ndarray:
    """``mean + stddev * ndtri(u)`` for the uniforms u of
    ``uniform_block(seed, stream, trials, positions)``, in its shape and
    order, with ndtri the inverse normal distribution function of
    ``scipy.special.ndtri`` bit for bit, and the multiply and the add
    rounded one after the other.  The compiled kernel draws it in one
    pass; where it did not load, numpy draws the uniforms and scipy,
    imported only then, transforms them."""
    if _kernel is None:
        from scipy.special import ndtri  # about 0.2 s and 20 MiB: only on this path

        u = uniform_block(seed, stream, trials, positions, scratch)
        z = ndtri(u, out=u)
        z *= stddev
        z += mean
        return z
    tkeys = trial_keys(seed, stream, trials)
    shape = (len(tkeys), len(positions))
    out = scratch.empty(shape, order=tile_order(*shape))
    return _tile(_kernel.gaussian_tile, tkeys, positions, out, mean, stddev)


def _units(tkeys: np.ndarray, positions: np.ndarray, out: np.ndarray, scratch=FRESH):
    """The uniform of word ``tkeys[t] + positions[j] * GOLDEN`` into each
    ``out[t, j]``, by the compiled kernel where it loaded, else by numpy."""
    if _kernel is not None:
        return _tile(_kernel.uniform_tile, tkeys, positions, out)
    order = order_of(out)
    pos = positions.astype(np.uint64) * np.uint64(GOLDEN)
    words = np.add(tkeys[:, None], pos[None, :], out=scratch.empty(out.shape, np.uint64, order))
    return _mixed_to_unit(words, out)


def _tile(kernel, tkeys: np.ndarray, positions: np.ndarray, out: np.ndarray, *args):
    """Call a compiled tile function on ``out``, ``args`` between the
    tile's memory order and its pointer, and return ``out``."""
    tkeys = np.ascontiguousarray(tkeys, dtype=np.uint64)
    pos = np.ascontiguousarray(positions, dtype=np.uint64)
    # the kernel walks raw memory: check what its pointers point at
    if out.shape != (len(tkeys), len(pos)) or out.dtype != np.float64 or not out.flags.forc:
        raise ValueError("the compiled kernels fill a contiguous float64 (T, L) tile")
    kernel(
        tkeys.ctypes.data, len(tkeys), pos.ctypes.data, len(pos), order_of(out) == "F", *args,
        out.ctypes.data,
    )
    return out


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


# the compiled path: its C source, and where and how it is built
_SOURCE = Path(__file__).with_name("_uniforms.c")
_BUILD_DIR = Path(__file__).with_name("_build")
# no -march (the library may be shared between machines) and no
# -ffast-math or fused multiply-adds, which would change the rounding
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
# libm's log and sqrt, the ones scipy's ndtri calls
_LIBS = ("-lm",)


def _load_kernel(directory: Path = _BUILD_DIR):
    """The compiled library from ``directory``, compiled there first where
    missing, with ``uniform_tile`` and ``gaussian_tile`` ready to call;
    None where no library builds or loads."""
    try:
        library = directory / _library_name()
        if not library.exists():
            _compile(library)
        kernel = ctypes.CDLL(str(library))
        uniform, gaussian = kernel.uniform_tile, kernel.gaussian_tile
    except (OSError, AttributeError):  # AttributeError: no such function in it
        return None
    ptr, size, flag, real = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_double
    uniform.argtypes = (ptr, size, ptr, size, flag, ptr)
    gaussian.argtypes = (ptr, size, ptr, size, flag, real, real, ptr)
    uniform.restype = gaussian.restype = None
    return kernel


def _library_name() -> str:
    """The library's file name, keyed by the C source, the flags and the
    libraries."""
    key = zlib.crc32(_SOURCE.read_bytes() + " ".join(_CFLAGS + _LIBS).encode())
    return f"uniforms-{key:08x}.so"


def _compile(library: Path) -> None:
    """Compile ``_SOURCE`` to ``library``, through a temporary file beside
    it that is renamed into place; OSError on any failure."""
    import subprocess  # only here: a build is rare, and the import is not free

    library.parent.mkdir(exist_ok=True)
    partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-o", str(partial), str(_SOURCE), *_LIBS],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=True, timeout=120,
        )
        os.replace(partial, library)
    except subprocess.SubprocessError as e:
        raise OSError(f"cc could not build {library.name}") from e
    finally:
        partial.unlink(missing_ok=True)


def uniform_path() -> str:
    """"compiled" where the C kernel draws the block and column uniforms
    and the Gaussian blocks, else "numpy"."""
    return "numpy" if _kernel is None else "compiled"


_kernel = _load_kernel()
