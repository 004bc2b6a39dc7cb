"""Checking the transport identity, the maximal inequality and survival.

Every check exists in two independent lanes wherever the process allows:

* exact: fold the step law forward in integers (``processes.exact_fold``),
  keeping one law of whole windows for every n of the identity but only
  (S_n, X_1) of the surviving paths for the rest: Fractions, no tolerances;
* Monte Carlo: estimate the same quantity from seeded sampling and
  report a confidence interval.

The Monte Carlo lanes are deterministic given (spec, seed, trials): work
is cut into fixed-size chunks of trials whatever the thread count, each
chunk is a pure function of its trial indices and fills its own rows of
one per-trial array, and all reductions run on those full arrays.
Running with 1 or 16 threads produces the same bytes.

A chunk is one tile: as many whole trials as fit about ``TILE_BYTES`` of
float64 increments.  Each tile is sampled into memory its thread reuses
from tile to tile (see :mod:`masstransport.scratch`) and reduced to
per-trial values while it is still in cache.  Every draw is keyed by its
absolute (trial, position) and every per-trial value is reduced along
its own row, so the tile size changes no output either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import math
import os

import numpy as np

from .errors import InvalidSpec
from .processes import DEFAULT_ATOM_CAP, PathWindow, Process, exact_fold, window_fold
from .processes import exact_window_distribution  # noqa: F401  perfbench/spans.py patches verify.exact_window_distribution
from .scratch import Scratch, check_memory
from .transport import (
    mass_received_at_zero,
    mass_row,
    received_mass_terms,
    sent_mass_terms,
)

# default confidence level: two-sided 99%
Z_DEFAULT = 2.576

# sign checks pass when the estimate exceeds zero by at most this many
# standard errors; exact-vs-MC agreement is gated at AGREEMENT_SIGMAS
SIGN_SLACK = 3.0
AGREEMENT_SIGMAS = 4.0

# trials per work unit; a deterministic function of the window width (never
# of the thread count), capped so a chunk's sample block is one tile of
# about TILE_BYTES.  A tile and the scratch arrays behind it then stay in
# cache; smaller tiles pay more per-tile call overhead, larger ones spill
# out of L2.  512 KiB was the fastest of 256 KiB, 512 KiB and 1 MiB for
# criterion 6 on the 2-core Xeon of CHANGES.md.  Chunking only groups
# trials; every draw is keyed by its absolute trial index, so results
# cannot depend on these numbers.
CHUNK_TRIALS = 4096
TILE_BYTES = 512 << 10


@dataclass(frozen=True)
class EstimateCI:
    """A Monte Carlo mean with its normal-approximation interval."""

    mean: float
    std_error: float
    trials: int
    z: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_samples(cls, samples: np.ndarray, z: float = Z_DEFAULT) -> "EstimateCI":
        n = len(samples)
        if n < 2:
            raise ValueError("need at least 2 samples for a standard error")
        mean = float(np.mean(samples))
        std_error = float(np.std(samples, ddof=1) / math.sqrt(n))
        return cls(mean, std_error, n, z, mean - z * std_error, mean + z * std_error)

    def covers(self, x: float) -> bool:
        return self.ci_low <= x <= self.ci_high


def ci_overlap(a: EstimateCI, b: EstimateCI) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def sign_pass(est: EstimateCI, slack: float = SIGN_SLACK) -> bool:
    """One-sided check that the estimated mean is <= 0 up to noise."""
    return est.mean <= slack * est.std_error


def agreement_pass(est: EstimateCI, target: float, sigmas: float = AGREEMENT_SIGMAS) -> bool:
    """Two-sided check that an estimate is within a few sigma of a known value."""
    return abs(est.mean - target) <= sigmas * max(est.std_error, 1e-300)


@dataclass(frozen=True)
class IdentityTerm:
    """Estimates of E[M(0, n)] and E[M(-n, 0)] for one n."""

    n: int
    lhs: EstimateCI
    rhs: EstimateCI

    @property
    def passed(self) -> bool:
        return ci_overlap(self.lhs, self.rhs)


@dataclass(frozen=True)
class IdentityReport:
    horizon: int
    trials: int
    seed: int
    z: float
    terms: tuple[IdentityTerm, ...]

    @property
    def all_passed(self) -> bool:
        return all(t.passed for t in self.terms)


def _chunk_arrays(total: int, width: int) -> list[np.ndarray]:
    size = max(1, min(CHUNK_TRIALS, TILE_BYTES // (8 * max(1, width))))
    return [
        np.arange(s, min(s + size, total), dtype=np.uint64)
        for s in range(0, total, size)
    ]


def _run_chunks(total: int, threads: int, worker, width: int = 1):
    """Apply worker to each fixed chunk of trial indices, in order.

    The pool never has more threads than chunks or than CPUs.
    """
    chunks = _chunk_arrays(total, width)
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))


def _fill_rows(step, threads: int, width: int, *outs: np.ndarray) -> None:
    """The one Monte Carlo loop: fill ``outs``, one row per trial, by tiles.

    ``step(chunk, tile)`` samples and reduces the trials in ``chunk`` in
    the scratch memory ``tile`` and returns one array per entry of outs;
    its rows are copied out before the thread's next tile reuses ``tile``.
    """
    scratch = Scratch()

    def worker(chunk: np.ndarray) -> None:
        rows = slice(int(chunk[0]), int(chunk[0]) + len(chunk))
        for out, part in zip(outs, step(chunk, scratch.tile())):
            out[rows] = part

    _run_chunks(len(outs[0]), threads, worker, width)


def check_z(z: float) -> None:
    """A finite positive z; any other gives an interval that cannot fail,
    or one that always does."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidSpec(f"z must be finite and positive, got {z}")


def _check_interval(trials: int, z: float) -> None:
    """An interval needs two samples and a valid z; anything else is a
    usage error, not a crash or a meaningless interval."""
    if trials < 2:
        raise InvalidSpec("need at least 2 trials")
    check_z(z)


def _estimate(
    step, trials: int, threads: int, n_max: int, z: float, field: str
) -> EstimateCI:
    """EstimateCI of the one value per trial that ``step`` returns from
    rows of n_max increments; a row too large for memory is refused
    naming ``field``, the caller's name for n_max."""
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")
    _check_interval(trials, z)
    check_memory(trials, 1, n_max, field)
    samples = np.empty(trials)
    _fill_rows(lambda chunk, tile: (step(chunk, tile),), threads, n_max, samples)
    return EstimateCI.from_samples(samples, z)


def _anchored_float_sums(block: np.ndarray, anchor_end: bool) -> np.ndarray:
    """Partial sum matrix with a leading zero column; optionally re-anchor
    so the last column (the origin of a left window) is zero."""
    sums = np.concatenate(
        [np.zeros((block.shape[0], 1), dtype=np.float64), np.cumsum(block, axis=1)],
        axis=1,
    )
    if anchor_end:
        sums -= sums[:, -1:]
    return sums


def _min_partial_sum(block: np.ndarray) -> np.ndarray:
    """min(S_1..S_n) per row of increments; the sums overwrite the block."""
    return np.cumsum(block, axis=1, out=block).min(axis=1)


def mc_identity(
    process: Process,
    horizon: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> IdentityReport:
    """Estimate both sides of E[M(0, n)] = E[M(-n, 0)] for n = 1..horizon.

    The left side uses windows [0, horizon] on trials 0..trials-1, the
    right side windows [-horizon, 0] on trials trials..2*trials-1, so the
    two estimates are independent and each n passes when the confidence
    intervals overlap.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be at least 1")
    _check_interval(trials, z)
    check_memory(trials, 2 * horizon, 2 * horizon, "horizon")

    def step(chunk: np.ndarray, tile):
        left = process.sample_block(seed, chunk, 0, horizon, tile)
        lterms = sent_mass_terms(_anchored_float_sums(left, anchor_end=False))
        right = process.sample_block(seed, chunk + np.uint64(trials), -horizon, 0, tile)
        return lterms, received_mass_terms(_anchored_float_sums(right, anchor_end=True))

    lhs = np.empty((trials, horizon))
    rhs = np.empty((trials, horizon))
    _fill_rows(step, threads, 2 * horizon, lhs, rhs)
    terms = tuple(
        IdentityTerm(
            n,
            EstimateCI.from_samples(lhs[:, n - 1], z),
            EstimateCI.from_samples(rhs[:, n - 1], z),
        )
        for n in range(1, horizon + 1)
    )
    return IdentityReport(horizon, trials, seed, z, terms)


def exact_identity(
    process: Process, horizon: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Both sides of E[M(0, n)] = E[M(-n, 0)] for n = 1..horizon, exactly.

    One law of ``horizon`` increments serves both sides.  The left reads
    each window as [0, horizon], where entry n of the mass row sent from 0
    sees S_1..S_n only; the right reads it as [-horizon, 0], where entry -n
    of the received mass (ladder-epoch form) sees S_-n..S_0 only.  The two
    routes share nothing past the window law, which is the point.  Masses
    are in units of increments times ``scale`` > 0, which keeps every sign.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be at least 1")
    weights, den, scale = window_fold(process, horizon, atom_cap)
    lhs, rhs = [0] * horizon, [0] * horizon
    for key, w in weights.items():
        for m, mass in mass_row(PathWindow(0, horizon, key), 0).entries.items():
            lhs[m - 1] += w * mass
        for m, mass in mass_received_at_zero(PathWindow(-horizon, 0, key)).items():
            rhs[-m - 1] += w * mass
    return tuple((Fraction(a, den * scale), Fraction(b, den * scale)) for a, b in zip(lhs, rhs))


def exact_maximal_ergodic(
    process: Process, n_max: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> Fraction:
    """E[X_1; some S_n <= 0 with n <= n_max], exactly.

    The inequality value <= 0 holds for every stationary sequence at
    every n_max separately, so each finite check is a complete instance
    of the statement, not an approximation of a limit.  The quantity is
    non-decreasing in n_max: a path whose first visit to (-inf, 0]
    happens at n_max + 1 must have started upward, so extending the
    horizon only ever adds positive X_1 contributions.
    """
    weights, den, scale = _survivors(process, n_max, atom_cap)
    # E[X_1] less E[X_1; S_n > 0 for all n <= n_max]
    survived = sum(w * x1 for (_, x1), w in weights.items())
    return process.exact_mean() - Fraction(survived, den * scale)


def mc_maximal_ergodic(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> EstimateCI:
    """Estimate E[X_1; some S_n <= 0 with n <= n_max]."""

    def step(chunk: np.ndarray, tile):
        block = process.sample_block(seed, chunk, 0, n_max, tile)
        first = block[:, 0].copy()
        return first * (_min_partial_sum(block) <= 0.0)

    return _estimate(step, trials, threads, n_max, z, "horizon")


def _survivors(process: Process, n_max: int, atom_cap: int) -> tuple[dict, int, int]:
    """exact_fold over (S_n_max, X_1) of the paths with S_n > 0 for all n <= n_max."""
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")

    def extend(acc, x):  # X_1 is 0 only before the first step: a survivor's is > 0
        s = acc[0] + x
        return (s, acc[1] or x) if s > 0 else None

    return exact_fold(process, n_max, (0, 0), extend, atom_cap)


def exact_survival(process: Process, n_max: int, atom_cap: int = DEFAULT_ATOM_CAP) -> Fraction:
    """P(S_n > 0 for all n <= n_max), exactly."""
    weights, den, _ = _survivors(process, n_max, atom_cap)
    return Fraction(sum(weights.values()), den)


def mc_survival(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> EstimateCI:
    """Estimate P(S_n > 0 for all n <= n_max)."""

    def step(chunk: np.ndarray, tile):
        block = process.sample_block(seed, chunk, 0, n_max, tile)
        return _min_partial_sum(block) > 0.0

    return _estimate(step, trials, threads, n_max, z, "horizon")


# ---------------------------------------------------------------------------
# how much of the survival probability a finite horizon can miss


def survival_truncation_bound(process: Process, n_max: int) -> float | None:
    """Upper bound on P(ruin strictly after n_max), the truncation bias.

    The horizon-n_max survival probability overstates true survival by
    exactly P(first nonpositive sum occurs beyond n_max), which union
    bounds by sum of P(S_n <= 0) over n > n_max.  Available for positive
    mean iid, Gaussian and Markov processes and mixtures of those; None
    when no geometric tail bound is known for the kind.
    """
    decay = process.ruin_decay()
    if decay is None:
        return None
    rho, c = decay
    if rho <= 0.0:
        return 0.0
    if rho >= 1.0:
        return None
    return float(min(1.0, c * rho ** (n_max + 1) / (1.0 - rho)))
