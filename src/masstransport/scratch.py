"""Scratch memory that Monte Carlo tiles reuse instead of allocating.

Sampling and reducing one tile makes a handful of arrays the size of the
tile.  Allocated anew for every tile, arrays from about 256 KiB up come
back from the C allocator as untouched pages, and faulting those in again
cost more than the arithmetic done on them: about 1.2 us per 4 KiB page,
some 2.4 ns per float64, on the 2-core Xeon VM the timings in CHANGES.md
come from.  A :class:`Scratch` hands out the same memory tile after tile.
That matters most with several threads: in 20 paired runs of the
two-thread mc_long benchmark, reused memory was faster in 18, with a
median wall time of 5.1 s against 6.2 s for fresh arrays, while
single-threaded criterion 6 gained about 3%, within the spread of its runs.

:func:`check_memory` refuses, before anything is allocated, work whose
kept results or one trial's row could not fit in physical memory.
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
        self._used = 0
        return self

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        k = self._used
        self._used += 1
        if k == len(self._slots):
            self._slots.append(np.empty(0, dtype=np.uint8))
            self._carved.append((None, None))
        key = (tuple(shape), dtype)
        if self._carved[k][0] == key:
            return self._carved[k][1]
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._slots[k].nbytes < nbytes:
            self._slots[k] = np.empty(nbytes, dtype=np.uint8)
        array = self._slots[k][:nbytes].view(dtype).reshape(shape)
        self._carved[k] = (key, array)
        return array


class _Fresh:
    """Scratch that allocates every array anew, for results a caller keeps."""

    @staticmethod
    def empty(shape, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype=dtype)


FRESH = _Fresh()


def check_memory(trials: int, per_trial: int, width: int, window: str) -> None:
    """Refuse a run that the machine's physical memory could not hold.

    A run keeps ``per_trial`` float64 results for each trial, and every
    tile holds at least one trial's row of ``width`` float64 increments.
    The error names ``window`` when the row alone is too large, else
    trials.  Where the platform does not report its memory, nothing is
    refused.
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    for field, nbytes in ((window, 8 * width), ("trials", 8 * trials * per_trial)):
        if nbytes > total:
            raise InvalidSpec(
                f"needs {nbytes} bytes, more than the {total} bytes of physical memory", field
            )
