"""Long-run averages S_n / n and their convergence diagnostics.

The limit of S_n / n is the mean of the ergodic component the trajectory
lives on.  For the kinds in this package the component structure is
explicit: a mixture picks one component per trajectory and every other
kind is a single component, so the conditional mean given the invariant
events is just the per-component mean table, read from the
``(weight, process)`` pairs of ``process.components()``.

Two diagnostics are provided.  ``trajectory_batch`` tracks S_n / n along
a geometric grid of n and reports the terminal gap to the component
target.  ``estimate_dip_probability`` estimates the probability that the
average still strays beyond epsilon from its target somewhere in the
upper half of the horizon, a quantity that must go to zero as the
horizon grows; measuring it on a window that scales with n_max (rather
than a fixed tail start) is what makes the limit visible at finite
horizon.

Both walk their rows through ``verify._walk_rows`` (the dip by way of
``verify._estimate``), a tile of positions at a time, so neither holds a
whole row at any n_max.  The dip reads running sums.  The trajectories
read increments and sum each grid segment as ``np.add.reduceat`` does,
by replaying numpy's pairwise summation tree across tiles
(``_SegmentSums``): a running sum would round the long segments
differently.  ``trajectory`` sums one whole row with ``reduceat``
itself, the reference the walked batch equals bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import InvalidSpec
from .processes import Process
from .scratch import order_of
from .verify import EstimateCI, Z_DEFAULT, _estimate, _walk, _walk_rows
from .verify import _run_chunks  # noqa: F401  perfbench/spans.py patches ergodic._run_chunks

# averages below this n say little; the dip window never starts earlier
MIN_WINDOW_START = 64


def _targets(process: Process) -> np.ndarray:
    """The float target of S_n / n for each component id."""
    return np.array([c.mean() for _, c in process.components()], dtype=np.float64)


def average_grid(n_max: int) -> tuple[int, ...]:
    """Powers of two up to n_max, plus n_max itself."""
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")
    grid = []
    n = 1
    while n <= n_max:
        grid.append(n)
        n *= 2
    if grid[-1] != n_max:
        grid.append(n_max)
    return tuple(grid)


def _to_averages(sums: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """Rows of sums over the grid segments [0, g_1), [g_1, g_2), .., turned
    in place into S_n / n on the grid: their running sums in order,
    divided by n, so a row's bits do not depend on the rows beside it."""
    np.cumsum(sums, axis=1, out=sums)
    sums /= np.array(grid, dtype=np.float64)
    return sums


# numpy's float64 sum of a segment a[s:e], in add.reduce and add.reduceat,
# is a[s] + pairwise(a[s+1:e]).  pairwise over m elements is one leaf when
# m <= LEAF: below 8 elements a sum in order from SHORT_LEAF_START, else
# eight accumulators r_j of the elements j, j+8, .., up to the last full
# group of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
# rest added in order.  A longer run splits in halves at a multiple of 8,
# and its sum is pairwise(left) + pairwise(right).
LEAF = 128
# numpy 2 starts a short leaf at -0.0, which keeps a sum of -0.0 negative;
# read off numpy itself, as a segment of two -0.0 sums to the start
SHORT_LEAF_START = float(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0])

# the steps of the replay, in the order of the positions they read
_HEAD, _LEAF, _MERGE, _END = range(4)


def _pairwise_steps(a: int, m: int):
    """(_LEAF, start, length) for each leaf of pairwise over positions
    a..a+m-1, in order, and (_MERGE,) after each right half."""
    if m <= LEAF:
        yield _LEAF, a, m
        return
    half = m // 2
    half -= half % 8
    yield from _pairwise_steps(a, half)
    yield from _pairwise_steps(a + half, m - half)
    yield (_MERGE,)


def _grid_steps(grid: tuple[int, ...]):
    """The replay of every grid segment k: (_HEAD, k) for its first
    position, its pairwise steps, then (_END, k, whether it had any)."""
    s = 0
    for k, e in enumerate(grid):
        yield _HEAD, k
        if e - s > 1:
            yield from _pairwise_steps(s + 1, e - s - 1)
        yield _END, k, e - s > 1
        s = e


def _stack_depth(grid: tuple[int, ...]) -> int:
    """The most subtree sums a segment's replay holds at once: one, plus
    one for each left half waiting on the right one that is split again."""
    depth = 1
    for s, e in zip((0,) + grid[:-1], grid):
        m, d = e - s - 1, 1
        while m > LEAF:
            half = m // 2
            m, d = m - (half - half % 8), d + 1
        depth = max(depth, d)
    return depth


class _SegmentSums:
    """The sums of a chunk's rows over the grid segments [0, g_1), [g_1,
    g_2), .., fed a tile of positions at a time: out[t, k] is, bit for
    bit, ``add.reduceat``'s sum of segment k of row t.

    It replays numpy's summation tree of each segment across tiles: each
    trial's open leaf (eight accumulators) and the stack of finished
    subtree sums live in arrays of the chunk, one row of trials per
    accumulator or stack entry, and each full group of 8 positions of a
    leaf is one add.  That is a few dozen floats per trial at any n_max.
    """

    def __init__(self, grid: tuple[int, ...], out: np.ndarray):
        trials = out.shape[0]
        self.out = out
        self.acc = np.empty((8, trials))
        self.stack = np.empty((_stack_depth(grid), trials))
        self.depth = 0
        self.steps = _grid_steps(grid)
        self.step = next(self.steps)

    def feed(self, rows: np.ndarray, lo: int, block: np.ndarray) -> None:
        """Read positions lo .. lo + block.shape[1] - 1 (0-based along the
        row) of the out rows ``rows``, whose increments the rows of
        ``block`` hold, in the same order in every tile.  It is a visit of
        ``verify._walk``, and returns None."""
        cols = block.T
        hi = lo + len(cols)
        p, step, stack = lo, self.step, self.stack
        while step is not None:
            kind = step[0]
            if kind == _LEAF:
                a, m = step[1], step[2]
                if p == hi:
                    break
                start, p = p, min(a + m, hi)
                self._leaf(cols[start - lo : p - lo], m, start - a)
                if p < a + m:
                    break  # the leaf goes on in the next tile
                self.depth += 1
            elif kind == _HEAD:
                if p == hi:
                    break
                self.out[rows, step[1]] = cols[p - lo]
                p += 1
            elif kind == _MERGE:
                d = self.depth
                np.add(stack[d - 2], stack[d - 1], out=stack[d - 2])
                self.depth = d - 1
            else:  # _END of segment k: its head plus the pairwise sum of the rest
                if step[2]:
                    self.out[rows, step[1]] += stack[0]
                    self.depth = 0
            step = next(self.steps, None)
        self.step = step

    def _leaf(self, cols: np.ndarray, m: int, i: int) -> None:
        """Add the next elements of a leaf of m elements into the top of
        the stack: cols[j] holds element i + j, and i elements went in
        before."""
        acc, out = self.acc, self.stack[self.depth]
        stop = i + len(cols)
        if m < 8:
            if i == 0:
                out.fill(SHORT_LEAF_START)
            for col in cols:
                out += col
            return
        full, base = m - m % 8, i
        while i < min(stop, full):
            j = i % 8
            end = min(i - j + 8, stop)
            if i < 8:
                np.copyto(acc[j : j + end - i], cols[i - base : end - base])
            else:
                acc[j : j + end - i] += cols[i - base : end - base]
            i = end
            if i == full:
                np.add(acc[0::2], acc[1::2], out=acc[0::2])
                np.add(acc[0::4], acc[2::4], out=acc[0::4])
                np.add(acc[0], acc[4], out=out)
        for col in cols[i - base :]:
            out += col


@dataclass(frozen=True)
class TrajectoryRow:
    """One trajectory's running averages along the grid."""

    trial: int
    component: int
    target: float
    averages: tuple[float, ...]

    @property
    def final_gap(self) -> float:
        return abs(self.averages[-1] - self.target)


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    """Running averages of a batch: trial t follows component ``ids[t]``,
    whose target is ``targets[ids[t]]``, and ``averages[t]`` holds its
    S_n / n along the grid.  Equal reports hold the same bits."""

    n_max: int
    grid: tuple[int, ...]
    ids: np.ndarray
    targets: np.ndarray
    averages: np.ndarray

    @functools.cached_property
    def rows(self) -> tuple[TrajectoryRow, ...]:
        """One TrajectoryRow per trial, built when first read."""
        return tuple(
            TrajectoryRow(t, component, target, tuple(row))
            for t, (component, target, row) in enumerate(
                zip(self.ids.tolist(), self.targets[self.ids].tolist(), self.averages.tolist())
            )
        )

    def gap_fraction(self, threshold: float) -> float:
        """Fraction of trajectories whose terminal average misses by more
        than threshold."""
        gaps = np.abs(self.averages[:, -1] - self.targets[self.ids])
        return int(np.count_nonzero(gaps > threshold)) / len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrajectoryReport):
            return NotImplemented
        arrays = zip(
            (self.ids, self.targets, self.averages), (other.ids, other.targets, other.averages)
        )
        return (self.n_max, self.grid) == (other.n_max, other.grid) and all(
            a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in arrays
        )


def trajectory_batch(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> TrajectoryReport:
    """Running averages S_n / n on the grid for each trial: walked, with
    the bits ``trajectory`` gives the same trial (``_SegmentSums``)."""
    grid = average_grid(n_max)
    if trials < 0:
        raise InvalidSpec(f"trials must be non-negative, got {trials}")

    def step(chunk: np.ndarray, tile, averages: np.ndarray, ids: np.ndarray) -> None:
        sums = _SegmentSums(grid, averages)
        _walk(process, seed, chunk, n_max, tile, sums.feed, running=False)
        _to_averages(averages, grid)
        ids[:] = process.component_ids(seed, chunk)

    # the averages and the component id kept per trial; a walk holds no row
    kept = np.dtype((np.float64, (len(grid),))), np.int64
    averages, ids = _walk_rows(step, trials, threads, n_max, "n_max", *kept)
    return TrajectoryReport(n_max, grid, ids, _targets(process), averages)


def trajectory(process: Process, n_max: int, seed: int, trial: int = 0) -> TrajectoryRow:
    """One trajectory's running averages; pure in (process, n_max, seed, trial)."""
    grid = average_grid(n_max)
    trials = np.array([trial], dtype=np.uint64)
    # the whole row's segment sums, as add.reduceat gives them: the
    # reference that trajectory_batch's walk replays (``_SegmentSums``)
    starts = np.array((0,) + grid[:-1], dtype=np.intp)
    row = process.sample_block(seed, trials, 0, n_max)
    averages = _to_averages(np.add.reduceat(row, starts, axis=1), grid)
    component = int(process.component_ids(seed, trials)[0])
    target = process.components()[component][1].mean()
    return TrajectoryRow(trial, component, target, tuple(averages[0].tolist()))


@dataclass(frozen=True)
class DipReport:
    """Estimated probability that S_n / n strays epsilon past its target
    anywhere in the measured window."""

    epsilon: float
    n_max: int
    window_start: int
    side: str
    estimate: EstimateCI


def estimate_dip_probability(
    process: Process,
    epsilon: float,
    n_max: int,
    trials: int,
    seed: int,
    *,
    side: str = "below",
    min_start: int = MIN_WINDOW_START,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> DipReport:
    """Probability that the centered average dips past epsilon in the
    window [max(min_start, n_max // 2), n_max].

    Centering is per component: each trajectory is compared against the
    mean of the component it follows.  ``side='below'`` looks for
    averages under -epsilon, ``side='above'`` for averages over epsilon.
    The probability of either event tends to zero as n_max grows.

    Each chunk walks its rows (``verify._walk``), a tile of positions at
    a time, and keeps each trial's most extreme centered average of the
    window so far; no trial is dropped, and no tile holds a whole row.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidSpec(f"epsilon must be finite and positive, got {epsilon}")
    if side not in ("below", "above"):
        raise InvalidSpec(f"side must be 'below' or 'above', got {side!r}")
    if min_start < 1:
        raise InvalidSpec(f"min_start (the dip window floor) must be at least 1, got {min_start}")
    start = max(min_start, n_max // 2)
    if start > n_max:  # so n_max < 1 is refused too
        raise InvalidSpec(f"n_max={n_max} is below the window floor {min_start}")
    targets = _targets(process)
    past = np.less if side == "below" else np.greater
    extreme = np.minimum if side == "below" else np.maximum
    bound = -epsilon if side == "below" else epsilon

    def step(chunk: np.ndarray, tile):
        target = targets[process.component_ids(seed, chunk)]
        worst = np.empty(len(chunk))

        # no trial is dropped, so every tile holds every row of the chunk,
        # in the walk's order
        def visit(rows: np.ndarray, lo: int, sums: np.ndarray) -> None:
            first = max(lo + 1, start)  # the first n of the window in this tile
            if first > lo + sums.shape[1]:
                return None
            # only the window's columns are centered and scaled
            ratios = sums[:, first - lo - 1 :]
            steps = np.arange(first, lo + sums.shape[1] + 1, dtype=np.float64)
            shift = tile.empty(ratios.shape, order=order_of(ratios))
            ratios -= np.multiply(target[rows][:, None], steps, out=shift)
            ratios /= steps
            m = extreme.reduce(ratios, axis=1, out=tile.empty((len(rows),)))
            worst[rows] = m if first == start else extreme(worst[rows], m, out=m)
            return None

        _walk(process, seed, chunk, n_max, tile, visit)
        return past(worst, bound)

    estimate = _estimate(step, trials, threads, n_max, z, "n_max")
    return DipReport(epsilon, n_max, start, side, estimate)
