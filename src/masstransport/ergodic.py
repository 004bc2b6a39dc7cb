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
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidSpec
from .processes import Process
from .scratch import check_memory, order_of
from .verify import WALK_WIDTH, EstimateCI, Z_DEFAULT, _estimate, _fill_rows, _walk
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


def _running_averages(grid: tuple[int, ...]):
    """Map rows of X_1..X_{n_max} to S_n / n on the grid: segment sums, then
    their running sums, so a row's bits do not depend on the rows beside it.

    Rows stay whole here, not walked in tiles of positions as the dip is:
    ``add.reduceat`` sums a long segment blockwise, not in sequence, so a
    sum carried across tiles would change the bits of the averages (673 of
    the 960 of 64 ``gaussian_drift`` trials at n_max 16384, read off a
    running sum)."""
    starts = np.array((0,) + grid[:-1], dtype=np.intp)
    denom = np.array(grid, dtype=np.float64)

    def averages(block: np.ndarray) -> np.ndarray:
        sums = np.cumsum(np.add.reduceat(block, starts, axis=1), axis=1)
        sums /= denom
        return sums

    return averages


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


@dataclass(frozen=True)
class TrajectoryReport:
    n_max: int
    grid: tuple[int, ...]
    rows: tuple[TrajectoryRow, ...]

    def gap_fraction(self, threshold: float) -> float:
        """Fraction of trajectories whose terminal average misses by more
        than threshold."""
        misses = sum(1 for r in self.rows if r.final_gap > threshold)
        return misses / len(self.rows)


def trajectory_batch(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> TrajectoryReport:
    """Running averages S_n / n on the grid for each trial."""
    grid = average_grid(n_max)
    if trials < 0:
        raise InvalidSpec(f"trials must be non-negative, got {trials}")
    check_memory(trials, len(grid) + 1, n_max, "n_max")
    targets = _targets(process)
    averages_of = _running_averages(grid)

    def step(chunk: np.ndarray, tile, averages: np.ndarray, ids: np.ndarray) -> None:
        averages[:] = averages_of(process.sample_block(seed, chunk, 0, n_max, tile))
        ids[:] = process.component_ids(seed, chunk)

    averages = np.empty((trials, len(grid)))
    ids = np.empty(trials, dtype=np.int64)
    _fill_rows(step, threads, n_max, averages, ids)
    rows = tuple(
        TrajectoryRow(t, component, target, tuple(row))
        for t, (component, target, row) in enumerate(
            zip(ids.tolist(), targets[ids].tolist(), averages.tolist())
        )
    )
    return TrajectoryReport(n_max, grid, rows)


def trajectory(process: Process, n_max: int, seed: int, trial: int = 0) -> TrajectoryRow:
    """One trajectory's running averages; pure in (process, n_max, seed, trial)."""
    grid = average_grid(n_max)
    trials = np.array([trial], dtype=np.uint64)
    averages = _running_averages(grid)(process.sample_block(seed, trials, 0, n_max))
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
    check_memory(trials, 1, n_max, "n_max")
    targets = _targets(process)
    past = np.less if side == "below" else np.greater
    extreme = np.minimum if side == "below" else np.maximum
    bound = -epsilon if side == "below" else epsilon

    def step(chunk: np.ndarray, tile):
        target = targets[process.component_ids(seed, chunk)][:, None]
        worst = tile.empty((len(chunk),))

        # no trial is dropped, so every tile holds every row of the chunk
        def visit(rows: np.ndarray, lo: int, sums: np.ndarray) -> None:
            first = max(lo + 1, start)  # the first n of the window in this tile
            if first > lo + sums.shape[1]:
                return None
            # only the window's columns are centered and scaled
            ratios = sums[:, first - lo - 1 :]
            steps = np.arange(first, lo + sums.shape[1] + 1, dtype=np.float64)
            shift = tile.empty(ratios.shape, order=order_of(ratios))
            ratios -= np.multiply(target, steps, out=shift)
            ratios /= steps
            if first == start:
                extreme.reduce(ratios, axis=1, out=worst)
            else:
                extreme(worst, extreme.reduce(ratios, axis=1, out=tile.empty((len(rows),))), out=worst)
            return None

        _walk(process, seed, chunk, n_max, tile, visit)
        return past(worst, bound)

    estimate = _estimate(step, trials, threads, n_max, min(n_max, WALK_WIDTH), z, "n_max")
    return DipReport(epsilon, n_max, start, side, estimate)
