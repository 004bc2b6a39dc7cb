"""Long-run averages S_n / n and their convergence diagnostics.

The limit of S_n / n is the mean of the ergodic component the trajectory
lives on.  For the kinds in this package the component structure is
explicit: a mixture picks one component per trajectory and every other
kind is a single component, so the conditional mean given the invariant
events is just the per-component mean table.

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
from fractions import Fraction

import numpy as np

from .errors import InvalidSpec
from .processes import Process
from .verify import EstimateCI, Z_DEFAULT, _estimate, _fill_rows
from .verify import _run_chunks  # noqa: F401  perfbench/spans.py patches ergodic._run_chunks

# averages below this n say little; the dip window never starts earlier
MIN_WINDOW_START = 64


@dataclass(frozen=True)
class MeanComponent:
    """One ergodic component: its weight and its long-run average target."""

    index: int
    weight: Fraction
    mean: float
    exact_mean: Fraction | None


@dataclass(frozen=True)
class ConditionalMeanSpec:
    """The conditional mean of X_1 given the invariant events, as a table."""

    components: tuple[MeanComponent, ...]

    def mean(self) -> float:
        return float(sum(float(c.weight) * c.mean for c in self.components))

    def target(self, index: int) -> float:
        return self.components[index].mean


def conditional_mean(process: Process) -> ConditionalMeanSpec:
    """Per-component long-run targets of S_n / n for this process."""
    return ConditionalMeanSpec(
        tuple(
            MeanComponent(info.index, info.weight, info.process.mean(), info.process.exact_mean())
            for info in process.components()
        )
    )


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
    spec = conditional_mean(process)
    targets = np.array([c.mean for c in spec.components], dtype=np.float64)
    starts = np.array((0,) + grid[:-1], dtype=np.intp)
    denom = np.array(grid, dtype=np.float64)

    def step(chunk: np.ndarray, tile):
        block = process.sample_block(seed, chunk, 0, n_max, tile)
        sums = np.cumsum(np.add.reduceat(block, starts, axis=1), axis=1)
        sums /= denom
        return sums, process.component_ids(seed, chunk)

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
    spec = conditional_mean(process)
    trials = np.array([trial], dtype=np.uint64)
    block = process.sample_block(seed, trials, 0, n_max)
    sums = np.cumsum(block[0])
    component = int(process.component_ids(seed, trials)[0])
    averages = tuple(float(sums[n - 1] / n) for n in grid)
    return TrajectoryRow(trial, component, spec.target(component), averages)


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
    """
    if epsilon <= 0.0:
        raise InvalidSpec("epsilon must be positive; the dip event needs a margin")
    if side not in ("below", "above"):
        raise InvalidSpec(f"side must be 'below' or 'above', got {side!r}")
    start = max(min_start, n_max // 2)
    if start > n_max:
        raise InvalidSpec(f"n_max={n_max} is below the window floor {min_start}")
    spec = conditional_mean(process)
    targets = np.array([c.mean for c in spec.components], dtype=np.float64)
    # the n of each window column, as a float
    steps = np.arange(start, n_max + 1, dtype=np.float64)

    def step(chunk: np.ndarray, tile):
        block = process.sample_block(seed, chunk, 0, n_max, tile)
        ids = process.component_ids(seed, chunk)
        # only the window's columns are centered and scaled
        ratios = np.cumsum(block, axis=1, out=block)[:, start - 1 :]
        ratios -= np.multiply(targets[ids][:, None], steps, out=tile.empty(ratios.shape))
        ratios /= steps
        if side == "below":
            return ratios.min(axis=1) < -epsilon
        return ratios.max(axis=1) > epsilon

    return DipReport(epsilon, n_max, start, side, _estimate(step, trials, threads, n_max, z))
