"""Tile memory: scratch that Monte Carlo tiles reuse, its layout, its scans.

Sampling and reducing one tile makes a handful of arrays the size of the
tile.  Allocated anew for every tile, arrays from about 256 KiB up come
back from the C allocator as untouched pages, and faulting those in again
costs more than the arithmetic done on them.  A :class:`Scratch` hands
out the same memory tile after tile, which matters most when several
threads fault pages in at once.

The Monte Carlo lane (:mod:`masstransport.verify`) makes tiles two
ways: the identity's hold whole windows of as many trials as fit, and a
walk (``verify._walk_rows``) cuts a chunk's rows into tiles of a few
positions, trial-contiguous while many trials walk.  A Scratch holds
only a tile's temporaries; what a chunk keeps across its tiles is its
own.  A tile's longer axis is the contiguous one
(:func:`tile_order`), and every temporary of the tile takes the order of
the array it is computed from (:func:`order_of`), so no pass mixes
layouts.  :func:`scan` runs a running sum, minimum or maximum along the
positions in whichever order the tile has: numpy's ``accumulate`` along
strided positions costs several times the stepped scan per element.  No
result depends on the layout: every pass is elementwise, a scan, or a
minimum or maximum, and a scan combines each trial's positions one after
another in either order.  So a scan can also be cut between tiles of
positions: adding the running sum carried from the last tile into the
first column of the next one before its scan gives the bits of one scan
over both.  The walked trajectories cut numpy's pairwise segment sums
between tiles the same way, by carrying each trial's partial sums
(``ergodic._SegmentSums``).

:func:`check_bytes` refuses, before anything is allocated, a number of
bytes that physical memory could not hold: each caller checks its one
tile or window first, naming that field, then what it keeps per trial,
naming trials.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import InvalidSpec


class Scratch(threading.local):
    """Slots of memory reused from tile to tile, one set per thread.

    ``tile()`` starts a tile.  The k-th array the tile then asks for with
    ``empty`` is carved from the k-th slot, which grows when it is too
    small, so code that takes the same steps for every tile allocates
    nothing after the first one.  Starting a tile recycles every slot:
    no array from a slot may outlive the tile it was asked for in.
    """

    def __init__(self):
        # per slot: its memory, and the last (shape, dtype) carved from it
        # with that array, since tiles mostly repeat the request before
        self._slots: list[np.ndarray] = []
        self._carved: list[tuple] = []
        self._used = 0

    def tile(self) -> "Scratch":
        """Start a tile."""
        self._used = 0
        return self

    def empty(self, shape, dtype=np.float64, order="C") -> np.ndarray:
        k = self._used
        self._used += 1
        if k == len(self._slots):
            self._slots.append(np.empty(0, dtype=np.uint8))
            self._carved.append((None, None))
        key = (tuple(shape), dtype, order)
        if self._carved[k][0] == key:
            return self._carved[k][1]
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._slots[k].nbytes < nbytes:
            # up to a multiple of an eighth of the next power of two: a
            # walk's tiles vary a little in size, and growing a slot by
            # each small step churned the allocator
            step = 1 << max(0, (nbytes - 1).bit_length() - 3)
            # the old memory goes before the new is asked for
            self._carved[k], self._slots[k] = (None, None), self._slots[k][:0]
            self._slots[k] = np.empty(-(-nbytes // step) * step, dtype=np.uint8)
        array = self._slots[k][:nbytes].view(dtype).reshape(shape, order=order)
        self._carved[k] = (key, array)
        return array


class _Fresh:
    """Scratch that allocates every array anew, for results a caller keeps."""

    @staticmethod
    def empty(shape, dtype=np.float64, order="C") -> np.ndarray:
        return np.empty(shape, dtype=dtype, order=order)


FRESH = _Fresh()


def tile_order(trials: int, positions: int) -> str:
    """The memory order of a (trials, positions) tile: "F", trials
    contiguous, when it holds more trials than positions, else "C"."""
    return "F" if trials > positions else "C"


def order_of(a: np.ndarray) -> str:
    """"F" when the trials (axis 0) of a 2-d array are its contiguous axis,
    else "C"; reversed views keep the order of the array they view."""
    if a.ndim != 2:
        return "C"
    return "F" if abs(a.strides[0]) < abs(a.strides[1]) else "C"


def scan(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(a, axis=1, out=out)`` bit for bit, in a's order.

    A trial-contiguous tile steps one position at a time, one ufunc call
    over the contiguous column of every trial; numpy's accumulate along
    the strided axis costs several times as much per element.  Both
    combine each trial's positions in order, so sums round alike and
    minima pick the same zero or NaN.  ``out`` may be ``a``.
    """
    if order_of(a) == "C":
        return ufunc.accumulate(a, axis=1, out=out)
    src, dst = a.T, out.T
    dst[0] = src[0]
    for j in range(1, len(src)):
        ufunc(dst[j - 1], src[j], out=dst[j])
    return out


def check_bytes(nbytes: int, field: str) -> None:
    """Refuse, naming ``field``, a run that needs ``nbytes`` of memory at
    once, more than the machine's physical memory.  Where the platform
    does not report its memory, nothing is refused."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > total:
        raise InvalidSpec(
            f"needs {nbytes} bytes, more than the {total} bytes of physical memory", field
        )
